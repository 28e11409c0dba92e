"""End-to-end command-line checks: JSON shapes, exit codes, determinism."""

import hashlib
import json
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bilor import LinearForm, fmt_rat, hessians, parse_form, primitive_subspace, realpoly
from bilor.cli import main

F4_ARGS = ["--form", "monomial: 0,1,1,1,0"]

CORPUS = [
    ["classify", "--form", "4: 1,4,5,2,0"],
    ["toeplitz", "--form", "monomial: 1,0,0,1", "-i", "1"],
    ["toeplitz", "--matrix", "1,1,1,0;1,1,1,1;0,1,1,1"],
    ["hessian", *F4_ARGS, "-i", "2", "--at", "1,1"],
    ["hessian", *F4_ARGS, "-i", "1", "--points", "1,2;3,1"],
    ["hrr", *F4_ARGS, "--ell", "1,1", "--up-to", "2"],
    ["sl", *F4_ARGS, "--ell", "1,0", "--up-to", "2"],
    ["mixed-hrr", *F4_ARGS, "--at-points", "1=1,1;1,1"],
    ["mixed-hrr", *F4_ARGS, "--cone", "open"],
    ["hilbert", *F4_ARGS],
    ["sperner", *F4_ARGS],
    ["annihilator", "--form", "monomial: 1,0,0,1"],
    ["primitive", "--form", "monomial: 1,0,0,1", "-j", "1", "--ell0", "1,1", "--ells", "1,2"],
    ["stable", "--form", "3: 1,1,1,1"],
    ["normally-stable", "--form", "4: 1,4,5,2,0"],
    ["pf", "--window", "2", "--form", "4: 1,4,5,2,0"],
    ["approximate", "--form", "monomial: 0,0,0,0,0,1", "-i", "1", "--steps", "1"],
    ["straighten", *F4_ARGS, "--ell", "1,1", "-i", "1"],
    ["verify-factorization", "--form", "monomial: 1,0,0,1", "-i", "1", "--points", "1,1"],
]


def run(capsys, argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, argv):
    code, out = run(capsys, argv)
    return code, json.loads(out)


@pytest.mark.parametrize("argv", CORPUS, ids=lambda a: a[0])
def test_repeated_runs_are_byte_identical(capsys, argv):
    first = run(capsys, argv)
    second = run(capsys, argv)
    assert first == second
    json.loads(first[1])  # every corpus command emits one JSON document


def test_classify_output(capsys):
    code, doc = run_json(capsys, ["classify", "--form", "4: 1,4,5,2,0"])
    assert code == 0
    assert (doc["order"], doc["order_strict"]) == (2, -1)
    assert doc["form"] == "4: 1, 4, 5, 2, 0"
    assert [e["lorentzian"]["pass"] for e in doc["per_order"]] == [True, True, True]
    assert [e["strict"]["pass"] for e in doc["per_order"]] == [False, False, False]
    assert doc["per_order"][2]["strict"]["witness"]["value"] == "0"


def test_toeplitz_is_a_data_command(capsys):
    code, doc = run_json(capsys, ["toeplitz", "--form", "monomial: 1,0,0,1", "-i", "1"])
    assert code == 0  # reports verdicts without judging
    assert doc["matrix"] == [["0", "0", "1"], ["1", "0", "0"]]
    assert doc["rank"] == 2
    tn = doc["totally_nonnegative"]
    assert not tn["pass"]
    assert tn["witness"] == {"rows": [0, 1], "cols": [0, 2], "value": "-1"}


def test_toeplitz_raw_matrix_mode(capsys):
    code, doc = run_json(
        capsys, ["toeplitz", "--matrix", "1,1,1,0;1,1,1,1;0,1,1,1"]
    )
    assert code == 0
    assert doc["totally_nonnegative"]["witness"] == {
        "rows": [0, 1, 2],
        "cols": [0, 1, 3],
        "value": "-1",
    }


def test_hessian_ordinary(capsys):
    code, doc = run_json(capsys, ["hessian", *F4_ARGS, "-i", "2", "--at", "1,1"])
    assert code == 0
    assert doc["matrix"] == [["0", "6", "4"], ["6", "4", "6"], ["4", "6", "0"]]
    assert (doc["det"], doc["reversal_det"]) == ("224", "-224")
    assert doc["signature"] == {"positive": 1, "zero": 0, "negative": 2}
    assert doc["mode"] == "ordinary"


def test_hessian_mixed(capsys):
    code, doc = run_json(
        capsys, ["hessian", *F4_ARGS, "-i", "1", "--points", "1,2;3,1"]
    )
    assert code == 0
    assert doc["matrix"] == [["54", "58"], ["58", "50"]]
    assert doc["mode"] == "mixed"


def test_failing_verdicts_exit_one(capsys):
    code, doc = run_json(capsys, ["hrr", *F4_ARGS, "--ell", "1,1", "--up-to", "2"])
    assert code == 1
    assert doc["verdict"]["failure"]["degree"] == 2
    assert doc["verdict"]["failure"]["value"] == "-224"

    code, doc = run_json(capsys, ["sl", *F4_ARGS, "--ell", "1,0", "--up-to", "2"])
    assert code == 1
    assert doc["verdict"]["failure"]["value"] == "0"

    code, doc = run_json(capsys, ["stable", "--form", "monomial: 1,0,0,1"])
    assert code == 1
    assert doc["verdict"]["detail"] == "dehomogenization is not real-rooted"
    assert doc["roots"] == {"degree_drop": 0, "nonpositive_real": 1, "total_real": 1}

    code, doc = run_json(capsys, ["mixed-hrr", *F4_ARGS, "--cone", "open"])
    assert code == 1
    assert doc["verdict"]["failure"]["minor"]["value"] == "-5/144"

    code, doc = run_json(capsys, ["mixed-hrr", *F4_ARGS, "--cone", "closed"])
    assert code == 1


def test_passing_verdicts_exit_zero(capsys):
    for argv in (
        ["mixed-hrr", *F4_ARGS, "--at-points", "1=1,1;1,1"],
        ["stable", "--form", "3: 1,1,1,1"],
        ["normally-stable", "--form", "4: 1,4,5,2,0"],
        ["pf", "--window", "2", "--form", "4: 1,4,5,2,0"],
        ["verify-factorization", "--form", "monomial: 1,0,0,1", "-i", "1", "--points", "1,1"],
    ):
        code, doc = run_json(capsys, argv)
        assert code == 0, argv
        assert doc["verdict"]["pass"] is True


def test_stable_roots_payload(capsys):
    code, doc = run_json(capsys, ["stable", "--form", "3: 1,1,1,1"])
    assert code == 0
    assert doc["roots"] == {"degree_drop": 0, "nonpositive_real": 3, "total_real": 3}


@pytest.mark.parametrize("command", ["stable", "normally-stable"])
def test_stability_commands_count_roots_once(capsys, monkeypatch, command):
    calls = []
    count_roots = realpoly.count_roots

    def counted(poly):
        calls.append(poly)
        return count_roots(poly)

    monkeypatch.setattr(realpoly, "count_roots", counted)
    # (X + Y)^4, and the form whose companion it is
    form = "monomial: 1, 4, 6, 4, 1" if command == "stable" else "4: 1, 4, 6, 4, 1"
    code, doc = run_json(capsys, [command, "--form", form])
    assert code == 0
    assert doc["roots"] == {"degree_drop": 0, "nonpositive_real": 4, "total_real": 4}
    assert len(calls) == 1


def test_cli_import_loads_no_introspection_modules():
    """A fresh `import bilor.cli`, in the environment of a benchmark child,
    loads none of the modules that only class-building machinery needs.
    `-S` keeps an installation's `.pth` start-up hooks, which may import
    anything, out of the check."""
    env = {
        "PATH": "/usr/local/bin:/usr/bin:/bin",
        "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    probe = ("import sys, bilor.cli; "
             "print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    done = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                          text=True)
    assert (done.returncode, done.stdout, done.stderr) == (0, "\n", "")


def test_approximate_first_step_frozen(capsys):
    code, doc = run_json(
        capsys,
        ["approximate", "--form", "monomial: 0,0,0,0,0,1", "-i", "1", "--steps", "1"],
    )
    assert code == 0
    assert doc["certified"] is True
    step = doc["steps"][0]
    assert step["rank_steps"] == [["1/2", "1/32"]]
    assert step["final_mix"] == "1/2"
    assert step["form"] == "5: 31/32, 79/64, 199/128, 499/256, 1249/512, 781/256"
    assert step["distance"] == "1249/512"


def test_straighten_frozen(capsys):
    code, doc = run_json(capsys, ["straighten", *F4_ARGS, "--ell", "1,1", "-i", "1"])
    assert code == 0
    assert doc["change"] == {"p": "1", "q": "1", "r": "1", "s": "2"}
    assert doc["image"] == "4: 14, 39/4, 20/3, 9/2, 3"
    assert doc["certified"] is True


def test_quotient_data_commands(capsys):
    code, doc = run_json(capsys, ["hilbert", *F4_ARGS])
    assert code == 0
    assert doc["hilbert"] == [1, 2, 3, 2, 1]
    assert doc["sperner"] == 3

    code, doc = run_json(capsys, ["annihilator", "--form", "monomial: 1,0,0,1"])
    assert code == 0
    assert [g["text"] for g in doc["generators"]] == ["x*y", "x^3 - y^3"]

    code, doc = run_json(
        capsys,
        ["primitive", "--form", "monomial: 1,0,0,1", "-j", "1",
         "--ell0", "1,1", "--ells", "1,2"],
    )
    assert code == 0
    assert doc["basis"] == [["-1/2", "1"]]
    assert doc["matches"] is True


def test_negative_values_attached_with_equals_sign(capsys):
    """argparse reads `-1,2` after a space as a flag; `--at=-1,2` reaches the library."""
    f4 = parse_form(F4_ARGS[1])[0]
    matrix = hessians.evaluate_hessian(hessians.hessian_family(f4, 1), -1, 2)
    code, doc = run_json(capsys, ["hessian", *F4_ARGS, "-i", "1", "--at=-1,2"])
    assert code == 0
    assert doc["points"] == [["-1", "2"]]
    assert doc["matrix"] == [[fmt_rat(x) for x in row] for row in matrix]

    c3 = parse_form("monomial: 1,0,0,1")[0]
    basis = primitive_subspace(c3, 1, LinearForm(-1, 1), [LinearForm(1, 2)])
    code, doc = run_json(
        capsys,
        ["primitive", "--form", "monomial: 1,0,0,1", "-j", "1", "--ell0=-1,1", "--ells", "1,2"],
    )
    assert code == 0
    assert doc["basis"] == [[fmt_rat(x) for x in v] for v in basis.vectors]
    assert doc["matches"] is basis.matches

    code = main(["hessian", *F4_ARGS, "-i", "1", "--at", "-1,2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == '{"error":{"code":"usage","message":"argument --at: expected one argument"}}\n'
    assert err == ""


def test_usage_errors_end_in_the_json_payload(capsys):
    for argv in ([], ["--format", "table"], ["nope"], ["hilbert", "--form", "1,2,1", "--bogus"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and err == "", argv
        assert json.loads(out)["error"]["code"] == "usage", argv
    with pytest.raises(SystemExit) as exc:
        main(["hilbert", "--help"])
    assert exc.value.code == 0
    assert "--form-file" in capsys.readouterr().out


def test_error_payloads_exit_two(capsys):
    code, doc = run_json(capsys, ["classify", "--form", "bogus"])
    assert code == 2
    assert doc["error"]["code"] == "format"
    assert doc["error"]["message"] == "bad rational 'bogus'"

    code, doc = run_json(capsys, ["toeplitz", "--form", "2: 1,1", "-i", "1"])
    assert code == 2
    assert doc["error"]["code"] == "format"

    code, doc = run_json(capsys, ["hilbert", "--form", "2: 0,0,0"])
    assert code == 2
    assert doc["error"]["code"] == "zero-form"

    code, doc = run_json(
        capsys, ["hessian", *F4_ARGS, "-i", "1", "--at", "1,1", "--points", "1,1"]
    )
    assert code == 2
    assert doc["error"]["code"] == "format"

    code, doc = run_json(
        capsys, ["straighten", "--form", "monomial: 1,0,0,1", "--ell", "1,1", "-i", "1"]
    )
    assert code == 2
    assert doc["error"]["code"] == "precondition"


@pytest.mark.parametrize("argv", [
    ["toeplitz", "--form", "2: 1e3000, 1, 1e3000", "-i", "1"],  # a 6001-digit witness
    ["classify", "--form", "2: 1e5000, 1, 1"],
    ["classify", "--form", "2: 1e999999999, 1, 1"],
], ids=["print", "parse", "huge-exponent"])
def test_values_past_the_digit_limit_are_format_errors(capsys, argv):
    code, doc = run_json(capsys, argv)
    assert code == 2
    assert doc["error"]["code"] == "format"


def test_minor_cap_env(capsys, monkeypatch):
    monkeypatch.setenv("BILOR_MINOR_CAP", "2")
    code, doc = run_json(
        capsys, ["toeplitz", "--form", "6: 1,1,1,1,1,1,1", "-i", "3"]
    )
    assert code == 2
    assert doc["error"]["code"] == "minor-cap"
    monkeypatch.delenv("BILOR_MINOR_CAP")
    code, _ = run_json(capsys, ["toeplitz", "--form", "6: 1,1,1,1,1,1,1", "-i", "3"])
    assert code == 0


def test_table_format(capsys):
    code, out = run(capsys, ["--format", "table", "sperner", *F4_ARGS])
    assert code == 0
    assert "sperner: 3" in out.splitlines()

    code, out = run(capsys, ["--format", "table", "classify", "--form", "4: 1,4,5,2,0"])
    assert code == 0
    assert "order: 2" in out.splitlines()
    assert "order_strict: -1" in out.splitlines()


def test_canonical_json_is_compact_and_sorted(capsys):
    _, out = run(capsys, ["sperner", *F4_ARGS])
    assert out == (
        '{"command":"sperner","convention":"monomial",'
        '"form":"4: 0, 1/4, 1/6, 1/4, 0","sperner":3}\n'
    )


def test_form_file_input(capsys, tmp_path):
    path = tmp_path / "form.txt"
    path.write_text("4: 1,4,5,2,0\n")
    direct = run(capsys, ["classify", "--form", "4: 1,4,5,2,0"])
    via_file = run(capsys, ["classify", "--form-file", str(path)])
    assert via_file == direct


@pytest.mark.parametrize("flag", ["--form-file", "--matrix-file"])
@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_input_file_is_a_format_error(capsys, tmp_path, flag, kind):
    path = tmp_path / "input.txt"
    if kind == "directory":
        path.mkdir()
    elif kind == "not-utf8":
        path.write_bytes(b"\xff\xfe 1,2")
    argv = ["toeplitz", flag, str(path)] + (["-i", "1"] if flag == "--form-file" else [])
    code, doc = run_json(capsys, argv)
    assert code == 2
    assert doc["error"]["code"] == "format"
    assert doc["error"]["message"].startswith(f"cannot read {flag} {str(path)!r}: ")


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_approximate_needs_at_least_one_step(capsys, steps):
    code, doc = run_json(
        capsys, ["approximate", "--form", "3: 1,2,3,1", "-i", "1", "--steps", steps]
    )
    assert code == 2
    assert doc["error"]["code"] == "precondition"


X10 = ["--form", "monomial: 0,0,0,0,0,0,0,0,0,0,1", "-i", "3"]
STRICT = ["--form", "3: 26,17,11,7", "-i", "1"]  # strictly 1-Lorentzian


@pytest.mark.parametrize("epsilon", ["0", "-1/8", "-2"])
def test_approximate_refuses_an_unreachable_epsilon(capsys, epsilon):
    code, doc = run_json(capsys, ["approximate", *X10, f"--epsilon={epsilon}"])
    assert code == 2
    assert doc["error"]["code"] == "precondition"
    assert "epsilon" in doc["error"]["message"]


def test_strict_input_meets_epsilon_zero(capsys):
    code, doc = run_json(capsys, ["approximate", *STRICT, "--epsilon", "0"])
    assert code == 0
    assert [st["distance"] for st in doc["steps"]] == ["0"]


def test_approximate_refuses_more_steps_than_the_budget(capsys, monkeypatch):
    code, doc = run_json(capsys, ["approximate", *X10, "--steps", "65"])
    assert code == 2
    assert doc["error"] == {
        "code": "budget-exhausted",
        "message": "steps 65 exceeds the halving budget 64 of approximants",
    }
    monkeypatch.setenv("BILOR_HALVING_BUDGET", "2")
    code, doc = run_json(capsys, ["approximate", *STRICT, "--steps", "3"])
    assert code == 0
    assert [st["distance"] for st in doc["steps"]] == ["0"] * 3


@pytest.mark.parametrize("epsilon", ["", " "])
def test_blank_epsilon_is_a_format_error(capsys, epsilon):
    code, doc = run_json(capsys, ["approximate", *STRICT, "--epsilon", epsilon])
    assert code == 2
    assert doc["error"]["code"] == "format"


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("argv", [
    ["approximate", "--form", "monomial: 0,0,0,0,0,1", "-i", "1", "--steps", "1"],
    ["straighten", *F4_ARGS, "--ell", "1,1", "-i", "1"],
])
def test_halving_budget_below_one_is_a_format_error(capsys, monkeypatch, budget, argv):
    monkeypatch.setenv("BILOR_HALVING_BUDGET", budget)
    code, doc = run_json(capsys, argv)
    assert code == 2
    assert doc["error"]["code"] == "format"
    assert doc["error"]["message"] == f"BILOR_HALVING_BUDGET must be at least 1, got {budget}"
    monkeypatch.setenv("BILOR_HALVING_BUDGET", "64")
    assert run_json(capsys, argv)[0] == 0


def test_help_hides_the_factorization_probe(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "verify-factorization" not in out
    assert "classify" in out


# Every error argv below hits one `FormatError` raise site of `bilor.cli`, or
# pins the order in which a command reports competing errors and reads the
# BILOR_* environment.  A leading NAME=value token sets that variable.
F4 = "--form 'monomial: 0,1,1,1,0'"
PINNED_ERRORS = [
    "BILOR_MINOR_CAP=x classify --form '4: 1,4,5,2,0'",
    "BILOR_MINOR_CAP=x classify --form bogus",
    "BILOR_MINOR_CAP=x toeplitz --form bogus -i 1",
    "BILOR_MINOR_CAP=x toeplitz --matrix '1,2;3,4'",
    f"BILOR_MINOR_CAP=x mixed-hrr {F4} --cone open --generators 1,1",
    f"BILOR_MINOR_CAP=x mixed-hrr {F4} --cone open",
    f"BILOR_MINOR_CAP=x mixed-hrr {F4} --at-points '1=1,1;1,1'",
    "BILOR_MINOR_CAP=x pf --window 2 --form bogus",
    "BILOR_MINOR_CAP=x pf --window 2 --form '4: 1,4,5,2,0'",
    f"BILOR_MINOR_CAP=x hrr {F4} --ell 1,1",
    "BILOR_MINOR_CAP=x BILOR_HALVING_BUDGET=y approximate --form 'monomial: 0,0,0,0,0,1' -i 1",
    "BILOR_MINOR_CAP=x approximate --form 'monomial: 0,0,0,0,0,1' -i 1",
    "BILOR_MINOR_CAP=x approximate --form 'monomial: 0,0,0,0,0,1' -i 1 --epsilon zz",
    f"BILOR_HALVING_BUDGET=y straighten {F4} --ell 1 -i 1",
    f"BILOR_HALVING_BUDGET=y straighten {F4} --ell 1,1 -i 1",
    "classify",
    "classify --form '4: 1,4,5,2,0' --form-file /dev/null",
    "toeplitz --form '4: 1,4,5,2,0' --matrix '1,2;3,4'",
    "toeplitz --matrix '1,2;3,4' --matrix-file /dev/null",
    "toeplitz --form '4: 1,4,5,2,0'",
    "toeplitz --form bogus",
    "toeplitz --matrix '1,2;3'",
    f"hessian {F4} -i 1 --at 1",
    f"hessian {F4} -i 1 --at 1,1 --points 1,1",
    f"hessian {F4} -i 1",
    f"hessian {F4} -i 9 --at 1,1 --points 1,1",
    f"hessian {F4} -i 1 --points '1,1;2'",
    f"hrr {F4} --ell 1",
    "hrr --form '2: 0,0,0' --ell 1",
    f"sl {F4} --ell 1,1,1 --up-to 9",
    f"mixed-hrr {F4}",
    f"mixed-hrr {F4} --cone open --at-points '1=1,1'",
    f"mixed-hrr {F4} --cone open --generators 1,1",
    f"mixed-hrr {F4} --cone closed --generators '1,1;1,2;2,1'",
    f"mixed-hrr {F4} --at-points 'x=1,1'",
    f"mixed-hrr {F4} --at-points '1=1,1|1=1,2'",
    f"mixed-hrr {F4} --at-points '|'",
    "mixed-hrr --form bogus --at-points '|'",
    "primitive --form 'monomial: 1,0,0,1' -j 1 --ell0 x --ells 1",
    "primitive --form 'monomial: 1,0,0,1' -j 1 --ell0 x",
    "approximate --form 'monomial: 0,0,0,0,0,1' -i 1 --epsilon 1/0",
    "approximate --form '4: 1,4,5,2,0' -i 9 --epsilon zz",
    "straighten --form 'monomial: 1,0,0,1' --ell x -i 1",
    "verify-factorization --form 'monomial: 1,0,0,1' -i 1 --points 1",
    "verify-factorization --form 'monomial: 1,0,0,1' -i 1",
    "stable --form '2: 0,0,0'",
    "normally-stable --form '2: 1,-1,1'",
    "sperner --form 'c: '",
    f"--format table hrr {F4} --ell 1",
    "--format table classify --form bogus",
]


def pinned_commands() -> list[str]:
    corpus = [shlex.join(argv) for argv in CORPUS]
    return [*corpus, *(f"--format table {c}" for c in corpus), *PINNED_ERRORS]


def output_digest(code: int, out: str) -> str:
    return hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()


PINNED_SHA256 = {
    "classify --form '4: 1,4,5,2,0'":
        "5f39a2358a0f5bbe22ade6f4ad334c0084ffd1b8da1ad0b7328927be8e105a24",
    "toeplitz --form 'monomial: 1,0,0,1' -i 1":
        "75d841137d30330132571f26136225470781bf5e3c8a2d7ee52fdacafac53125",
    "toeplitz --matrix '1,1,1,0;1,1,1,1;0,1,1,1'":
        "7a40f79220ed3a710206d07a1de23826373d046b1014019b3dd77435c3f4671b",
    "hessian --form 'monomial: 0,1,1,1,0' -i 2 --at 1,1":
        "c1f482a220bbf2cd7518b628e39a97ab264bd578123539cc4934261a51be55a6",
    "hessian --form 'monomial: 0,1,1,1,0' -i 1 --points '1,2;3,1'":
        "78dbad73ba9da0baa93d746257c778f31113435b66c763ac610d6a0d16753bf2",
    "hrr --form 'monomial: 0,1,1,1,0' --ell 1,1 --up-to 2":
        "4b1aca28ad399a4be5cc3b6a6c169c9dc8c44f577c640ff9ca0d27a2c6de98a7",
    "sl --form 'monomial: 0,1,1,1,0' --ell 1,0 --up-to 2":
        "e976245c5d495b139bb9061c9524141b11d374389cbfefc648440ea3124792de",
    "mixed-hrr --form 'monomial: 0,1,1,1,0' --at-points '1=1,1;1,1'":
        "c1e215644b15802ea0a774d1ff6ff80cf9b1b32f6603efc529b7e662360f02c4",
    "mixed-hrr --form 'monomial: 0,1,1,1,0' --cone open":
        "95dc368b14cbd8e9fdf00d5b79c8a1193026ab5e68adc2453c73cbb37cb8184d",
    "hilbert --form 'monomial: 0,1,1,1,0'":
        "036fe09b8bb0ac6a3e7d9d3c804384a54e4f533bede74f843de057f008368294",
    "sperner --form 'monomial: 0,1,1,1,0'":
        "52e6216eeb9a57ea6d0c227f326365327c8ce23ac7606075c1b1d7e4f9bf937e",
    "annihilator --form 'monomial: 1,0,0,1'":
        "735243bc4b598d3527ab3e358080096285b91a5a551e114be2dfacf15d33a132",
    "primitive --form 'monomial: 1,0,0,1' -j 1 --ell0 1,1 --ells 1,2":
        "0a09dd8331c1f8da0b5c61542b9ebe6d8689505f725ddc451b79b42cbb42792e",
    "stable --form '3: 1,1,1,1'":
        "273b9216b2e10d66105d5d59706d45cbd1b9e0bca585c329544c30e8eb5e888d",
    "normally-stable --form '4: 1,4,5,2,0'":
        "e13bf1f196c48bcd10d1ef521bd0fa8cccc7e9044fc49d22ee5666b3ceeed4b4",
    "pf --window 2 --form '4: 1,4,5,2,0'":
        "781f2769da5df37488303c78b93c2de5c29fe900d160b3397d74d102aec4f9b8",
    "approximate --form 'monomial: 0,0,0,0,0,1' -i 1 --steps 1":
        "e59cda376da74bf2c4fd611eabb8a21cd581893dce17ad66f956ef7d492c24c3",
    "straighten --form 'monomial: 0,1,1,1,0' --ell 1,1 -i 1":
        "0e2702331668af5474821ef1b5b49a29eb493b6a503abf206c81de67d5086611",
    "verify-factorization --form 'monomial: 1,0,0,1' -i 1 --points 1,1":
        "33067359dbb18315ec38a13ccd95b10cdc7b94328e4bc977de6368fd5769a5ea",
    "--format table classify --form '4: 1,4,5,2,0'":
        "97387efdc941b41a4426e926eb540c636c909427ff0903ea724d09176129b56e",
    "--format table toeplitz --form 'monomial: 1,0,0,1' -i 1":
        "c92f4ea9bf33e5d5019eb1c2caf54709ae4d5d69b56ef6ad39c4f5329e06027d",
    "--format table toeplitz --matrix '1,1,1,0;1,1,1,1;0,1,1,1'":
        "47c18bb9f902f753518179b2aceb35755978232acc85e24d4f0f914bdc929fcb",
    "--format table hessian --form 'monomial: 0,1,1,1,0' -i 2 --at 1,1":
        "793c4ee666961446137cdfde81fb0d06554c00bed4bb27600ef2c0a866806961",
    "--format table hessian --form 'monomial: 0,1,1,1,0' -i 1 --points '1,2;3,1'":
        "11d7201c879d06d85834f155aa61ae7ee716d7c611d444ed1add80c77829c9c4",
    "--format table hrr --form 'monomial: 0,1,1,1,0' --ell 1,1 --up-to 2":
        "7ee9a480dae190552988060983bf7826a12e91bd9b1a0efe7a688b78bb7ce2ad",
    "--format table sl --form 'monomial: 0,1,1,1,0' --ell 1,0 --up-to 2":
        "2816c9191e8ba07fc5473f0fdcf634d5acf8c68de1e5d2f042d0401a6a2ae750",
    "--format table mixed-hrr --form 'monomial: 0,1,1,1,0' --at-points '1=1,1;1,1'":
        "fa418b291bdaf550951c6d892860bff758786ddce96e8134bd140469b723151d",
    "--format table mixed-hrr --form 'monomial: 0,1,1,1,0' --cone open":
        "cc0cdc346d5398e1f25853c6d0251381558b137afd124a197493e0e8bc5e8899",
    "--format table hilbert --form 'monomial: 0,1,1,1,0'":
        "63a5a6d22aafe2a1b3dac834bdc76c1969562f684f0f26afcbb6678da2b4fb3b",
    "--format table sperner --form 'monomial: 0,1,1,1,0'":
        "5026262db7d990865ba6506b23eb41e2efa5ee3bdd4fe2db68e8faa90d334ef6",
    "--format table annihilator --form 'monomial: 1,0,0,1'":
        "7bf5e5dc7bf99d8066eed704858a990ec7b07b652b34a4617208d406310ed732",
    "--format table primitive --form 'monomial: 1,0,0,1' -j 1 --ell0 1,1 --ells 1,2":
        "64aad07bf91857dd3d73f6f775d6df7e747ca86d7c71772baaeb18d1262c8bd6",
    "--format table stable --form '3: 1,1,1,1'":
        "fdbfe05b69bb1c23931259d69567b1f02e8448eb6e0f85bd7d32fe134e82e926",
    "--format table normally-stable --form '4: 1,4,5,2,0'":
        "d0b8351821b2cb25908f93dd79433c46ea5e08e893a7f51a19bbc294b3d782c3",
    "--format table pf --window 2 --form '4: 1,4,5,2,0'":
        "6470c5b5279c318caed2a3ed7f88cf102aa51ed2a4a93964a828f00e239f089f",
    "--format table approximate --form 'monomial: 0,0,0,0,0,1' -i 1 --steps 1":
        "4b81af2f9cb39145a03fe8ead54e0efcf8bc633bf775a34daa17badd65532ed7",
    "--format table straighten --form 'monomial: 0,1,1,1,0' --ell 1,1 -i 1":
        "172cbc0c57a57fd7ef6f35d41689dd329781b8fc0a45640b052d7d4569f0a697",
    "--format table verify-factorization --form 'monomial: 1,0,0,1' -i 1 --points 1,1":
        "cf2e8c12f8117c7931447509ecc4aa9c769f27f1ea290f965f3e6a2c12ed2391",
    "BILOR_MINOR_CAP=x classify --form '4: 1,4,5,2,0'":
        "4d067954982ae1df700ca86362dba179e5da10f08d19e12d0d7d31860d1b1578",
    "BILOR_MINOR_CAP=x classify --form bogus":
        "5d8bf0a35bb35198b84a40acac9fc87a7043f1886059acedee9efcf3acbe8996",
    "BILOR_MINOR_CAP=x toeplitz --form bogus -i 1":
        "4d067954982ae1df700ca86362dba179e5da10f08d19e12d0d7d31860d1b1578",
    "BILOR_MINOR_CAP=x toeplitz --matrix '1,2;3,4'":
        "4d067954982ae1df700ca86362dba179e5da10f08d19e12d0d7d31860d1b1578",
    "BILOR_MINOR_CAP=x mixed-hrr --form 'monomial: 0,1,1,1,0' --cone open --generators 1,1":
        "1c2204abd530469d5ef96453a53efe4bbd2453fe52a71f96958fcc1b4dfcf7da",
    "BILOR_MINOR_CAP=x mixed-hrr --form 'monomial: 0,1,1,1,0' --cone open":
        "4d067954982ae1df700ca86362dba179e5da10f08d19e12d0d7d31860d1b1578",
    "BILOR_MINOR_CAP=x mixed-hrr --form 'monomial: 0,1,1,1,0' --at-points '1=1,1;1,1'":
        "c1e215644b15802ea0a774d1ff6ff80cf9b1b32f6603efc529b7e662360f02c4",
    "BILOR_MINOR_CAP=x pf --window 2 --form bogus":
        "5d8bf0a35bb35198b84a40acac9fc87a7043f1886059acedee9efcf3acbe8996",
    "BILOR_MINOR_CAP=x pf --window 2 --form '4: 1,4,5,2,0'":
        "4d067954982ae1df700ca86362dba179e5da10f08d19e12d0d7d31860d1b1578",
    "BILOR_MINOR_CAP=x hrr --form 'monomial: 0,1,1,1,0' --ell 1,1":
        "4b1aca28ad399a4be5cc3b6a6c169c9dc8c44f577c640ff9ca0d27a2c6de98a7",
    "BILOR_MINOR_CAP=x BILOR_HALVING_BUDGET=y approximate --form 'monomial: 0,0,0,0,0,1' -i 1":
        "190d717cc9e037d49c76a9fc6a66043936deec2470366f56b1ae0233649a4cec",
    "BILOR_MINOR_CAP=x approximate --form 'monomial: 0,0,0,0,0,1' -i 1":
        "4d067954982ae1df700ca86362dba179e5da10f08d19e12d0d7d31860d1b1578",
    "BILOR_MINOR_CAP=x approximate --form 'monomial: 0,0,0,0,0,1' -i 1 --epsilon zz":
        "475972117d5f4da2f84b2d997082c1f2f4286b49dd02c5e1665e8d0b05ad0f14",
    "BILOR_HALVING_BUDGET=y straighten --form 'monomial: 0,1,1,1,0' --ell 1 -i 1":
        "61d29e410559068948b62885b2df27b726fc7f261c19c0e0002cb5240cba7e4a",
    "BILOR_HALVING_BUDGET=y straighten --form 'monomial: 0,1,1,1,0' --ell 1,1 -i 1":
        "190d717cc9e037d49c76a9fc6a66043936deec2470366f56b1ae0233649a4cec",
    "classify":
        "3d2e88a485ce8475497cb66f15ed6ca6a36db62cde99cb96b12ee40565aff254",
    "classify --form '4: 1,4,5,2,0' --form-file /dev/null":
        "3d2e88a485ce8475497cb66f15ed6ca6a36db62cde99cb96b12ee40565aff254",
    "toeplitz --form '4: 1,4,5,2,0' --matrix '1,2;3,4'":
        "47292490d1cb229250f54f457dd1845dd975d8d33dedb6b79a8c82ce8b7d5a3d",
    "toeplitz --matrix '1,2;3,4' --matrix-file /dev/null":
        "422ef3e9eb97594ff531f5172766cc73bb9199ce31b421108e79577149f9c217",
    "toeplitz --form '4: 1,4,5,2,0'":
        "c8e610753f6965ebdc9792f6683bf68e0e43bb037cb811ce8a16eab17a0ea3c3",
    "toeplitz --form bogus":
        "5d8bf0a35bb35198b84a40acac9fc87a7043f1886059acedee9efcf3acbe8996",
    "toeplitz --matrix '1,2;3'":
        "c37fc98c75981ec874872d960955e0be22607b8a8f29813e6c28d661f1cf3dd2",
    "hessian --form 'monomial: 0,1,1,1,0' -i 1 --at 1":
        "61d29e410559068948b62885b2df27b726fc7f261c19c0e0002cb5240cba7e4a",
    "hessian --form 'monomial: 0,1,1,1,0' -i 1 --at 1,1 --points 1,1":
        "5c9ee8c3acf836b6e6ec65136a7093ad12957b53571886b6378158df02cdf14f",
    "hessian --form 'monomial: 0,1,1,1,0' -i 1":
        "5c9ee8c3acf836b6e6ec65136a7093ad12957b53571886b6378158df02cdf14f",
    "hessian --form 'monomial: 0,1,1,1,0' -i 9 --at 1,1 --points 1,1":
        "e07103437172c8ed80e413c40e5ede2c31bbbe7e9291fc95f7819e6feaae6e1c",
    "hessian --form 'monomial: 0,1,1,1,0' -i 1 --points '1,1;2'":
        "cc38dc911d2b8952cb153883a8bb89126d3ac5007e772d87ef19888a24800a81",
    "hrr --form 'monomial: 0,1,1,1,0' --ell 1":
        "61d29e410559068948b62885b2df27b726fc7f261c19c0e0002cb5240cba7e4a",
    "hrr --form '2: 0,0,0' --ell 1":
        "61d29e410559068948b62885b2df27b726fc7f261c19c0e0002cb5240cba7e4a",
    "sl --form 'monomial: 0,1,1,1,0' --ell 1,1,1 --up-to 9":
        "50ed75d63f2fc9e0d8379bf51019231a73899a87d93dc6a0634402953a659186",
    "mixed-hrr --form 'monomial: 0,1,1,1,0'":
        "c7782e9fc1d25755a44147335da4e61f521243d1119f086b00dab697c0c2e9c8",
    "mixed-hrr --form 'monomial: 0,1,1,1,0' --cone open --at-points '1=1,1'":
        "c7782e9fc1d25755a44147335da4e61f521243d1119f086b00dab697c0c2e9c8",
    "mixed-hrr --form 'monomial: 0,1,1,1,0' --cone open --generators 1,1":
        "1c2204abd530469d5ef96453a53efe4bbd2453fe52a71f96958fcc1b4dfcf7da",
    "mixed-hrr --form 'monomial: 0,1,1,1,0' --cone closed --generators '1,1;1,2;2,1'":
        "1c2204abd530469d5ef96453a53efe4bbd2453fe52a71f96958fcc1b4dfcf7da",
    "mixed-hrr --form 'monomial: 0,1,1,1,0' --at-points 'x=1,1'":
        "ed40ff7da06d515ee375b5e8ba3087b4c9462ecf04b7cf0b151d64a8379c490a",
    "mixed-hrr --form 'monomial: 0,1,1,1,0' --at-points '1=1,1|1=1,2'":
        "91426c98e30649b28097777cf1823e768e9831918a304707b6aac03e4ada5e9a",
    "mixed-hrr --form 'monomial: 0,1,1,1,0' --at-points '|'":
        "7e901216334982fb632aec28dbbac016e9020ce999f5038db4795a854fad23d5",
    "mixed-hrr --form bogus --at-points '|'":
        "5d8bf0a35bb35198b84a40acac9fc87a7043f1886059acedee9efcf3acbe8996",
    "primitive --form 'monomial: 1,0,0,1' -j 1 --ell0 x --ells 1":
        "61d29e410559068948b62885b2df27b726fc7f261c19c0e0002cb5240cba7e4a",
    "primitive --form 'monomial: 1,0,0,1' -j 1 --ell0 x":
        "e966de8e970ac479da37a088f4c5ff5cca8453a80aa2a693256b4b4979831b1b",
    "approximate --form 'monomial: 0,0,0,0,0,1' -i 1 --epsilon 1/0":
        "12cf2b2897c43f73ef76f84a0f45119b45ffc48cdf8be13c47455ff612846916",
    "approximate --form '4: 1,4,5,2,0' -i 9 --epsilon zz":
        "475972117d5f4da2f84b2d997082c1f2f4286b49dd02c5e1665e8d0b05ad0f14",
    "straighten --form 'monomial: 1,0,0,1' --ell x -i 1":
        "e966de8e970ac479da37a088f4c5ff5cca8453a80aa2a693256b4b4979831b1b",
    "verify-factorization --form 'monomial: 1,0,0,1' -i 1 --points 1":
        "61d29e410559068948b62885b2df27b726fc7f261c19c0e0002cb5240cba7e4a",
    "verify-factorization --form 'monomial: 1,0,0,1' -i 1":
        "b5dde9b634b775df646c2419b4fc711c3ad3da4715355c6f32fd0c539e6bab62",
    "stable --form '2: 0,0,0'":
        "1f5f1c68b1380e9f1da593d89b432d6b52950b6351438db2fa0e0b640cec713a",
    "normally-stable --form '2: 1,-1,1'":
        "413eeba7e349f4abfc181872f32fa7904840d21f2d6342dde30c8a4741765605",
    "sperner --form 'c: '":
        "a4c261e57d7a5ee196eaff0ff0ff0d48e40ed69836b80889b6d90d7aa71d3b5f",
    "--format table hrr --form 'monomial: 0,1,1,1,0' --ell 1":
        "61d29e410559068948b62885b2df27b726fc7f261c19c0e0002cb5240cba7e4a",
    "--format table classify --form bogus":
        "5d8bf0a35bb35198b84a40acac9fc87a7043f1886059acedee9efcf3acbe8996",
}


def test_every_pinned_command_has_a_digest():
    assert sorted(PINNED_SHA256) == sorted(pinned_commands())


@pytest.mark.parametrize("command", pinned_commands())
def test_output_bytes_are_pinned(capsys, monkeypatch, command):
    tokens = shlex.split(command)
    monkeypatch.delenv("BILOR_MINOR_CAP", raising=False)
    monkeypatch.delenv("BILOR_HALVING_BUDGET", raising=False)
    while tokens[0].startswith("BILOR_"):
        name, _, value = tokens.pop(0).partition("=")
        monkeypatch.setenv(name, value)
    assert output_digest(*run(capsys, tokens)) == PINNED_SHA256.get(command)
