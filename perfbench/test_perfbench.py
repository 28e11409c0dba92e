"""Tests of the benchmark itself: `python3 -m pytest -q perfbench`."""

import json
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corpus  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from tracer import LAYERS, PER_LAYER, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def lib():
    return ops.load_library()


def _tracer(lib):
    import bilor

    return Tracer(bilor, {name: getattr(lib, name) for name in LAYERS})


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_same_seed_gives_a_byte_identical_corpus(workload):
    for index in (0, 1):
        first = json.dumps(corpus.generate_pass(workload, 7, index), sort_keys=True)
        again = json.dumps(corpus.generate_pass(workload, 7, index), sort_keys=True)
        assert first == again


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_other_seed_gives_another_corpus_with_the_same_classes(workload):
    a = corpus.generate_pass(workload, 7, 0)
    b = corpus.generate_pass(workload, 8, 0)
    assert json.dumps(a, sort_keys=True) != json.dumps(b, sort_keys=True)

    def shape(ops_):
        return Counter((o["op"], o["cls"]) for o in ops_)

    assert shape(a) == shape(b) == shape(corpus.generate_pass(workload, 7, 3))


def test_work_bound_is_exact_for_a_passing_enumeration(lib):
    spec = {"id": "t", "op": "is_lorentzian", "cls": "A", "args": {"i": 3}, "expect": {},
            "form": corpus.form_text(corpus.poly_from_roots(range(1, 13)))}
    spec["bound"] = corpus.work_bound("is_lorentzian", 12, spec["args"])
    tracer = _tracer(lib)
    out = ops.run_library(ops.prepare(spec, lib), tracer)
    assert out.value["pass"] is True
    assert tracer.count("linalg.int_det") == spec["bound"] == corpus.tn_minors(4, 10)


def _cheapest_per_kind(workload):
    best = {}
    for spec in corpus.generate_pass(workload, 0, 0):
        key = (spec["op"], spec["cls"])
        if key not in best or spec["bound"] < best[key]["bound"]:
            best[key] = spec
    return list(best.values())


@pytest.mark.parametrize("workload", ["windows", "algebra", "approximate"])
def test_tracing_leaves_every_output_digest_unchanged(lib, workload):
    tracer = _tracer(lib)
    for spec in _cheapest_per_kind(workload):
        op = ops.prepare(spec, lib)
        plain, traced = ops.run_library(op), ops.run_library(op, tracer)
        assert plain.error is None and traced.error is None
        assert ops.digest(plain.value) == ops.digest(traced.value), spec["id"]
    assert tracer.metrics()["linalg.int_det.calls"] > 0


def test_tracing_leaves_cli_output_unchanged(lib):
    tracer = _tracer(lib)
    for spec in corpus.generate_pass("cli", 0, 0):
        op = ops.prepare(spec, lib)
        plain, traced = ops.run_in_process(op, lib), ops.run_in_process(op, lib, tracer)
        assert plain.error is None
        assert ops.digest(plain.value) == ops.digest(traced.value), spec["args"]["argv"]
    assert tracer.metrics()["cli.main.self_s"] > 0


def test_every_binding_is_wrapped_while_tracing_and_restored_after(lib):
    import bilor

    aliases = [(lib.lorentzian, "substitute"), (lib.lorentzian, "symmetric_mix"),
               (lib.algebra, "derive"), (lib.algebra, "evaluate_hessian"),
               (lib.cli, "parse_form"), (lib.forms, "substitute"), (bilor, "is_lorentzian")]
    before = [getattr(m, a) for m, a in aliases]
    tracer = _tracer(lib)
    with tracer.op():
        during = [getattr(m, a) for m, a in aliases]
    assert all(d is not b for d, b in zip(during, before))
    assert [getattr(m, a) for m, a in aliases] == before


def test_self_time_excludes_child_spans(lib):
    spec = {"id": "t", "op": "is_lorentzian", "cls": "A", "args": {"i": 2}, "expect": {},
            "form": corpus.form_text(corpus.poly_from_roots(range(1, 9))), "bound": 0}
    tracer = _tracer(lib)
    ops.run_library(ops.prepare(spec, lib), tracer)
    selfs = tracer.self_times()
    total = tracer.end[0] - tracer.start[0]
    assert abs(sum(selfs) - total) < 1e-6


def test_tail_keeps_ten_samples_beyond():
    assert run.samples_for_tail(95) == 200
    assert run.samples_for_tail(90) == 100
    xs = [float(k) for k in range(200)]
    assert run.tail(xs, 95) == (189.0, 10)


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert spec["end_to_end"] == [
        {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in run.END_TO_END
    ]
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(corpus.WORKLOADS)


def test_compare_marks_a_noisy_metric_unresolved(tmp_path, capsys):
    def write(path, values):
        docs = [{"workload": "cli", "metrics": {"op_ms_p50": {"value": v, "unit": "ms"}}}
                for v in values]
        path.write_text("".join(json.dumps(d) + "\n" for d in docs))

    steady, noisy, slower = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    write(steady, [100, 101, 99, 100])
    write(noisy, [60, 140, 100, 180])
    write(slower, [130, 131, 129, 130])
    run.run_compare(str(steady), str(noisy))
    assert "unresolved" in capsys.readouterr().out
    run.run_compare(str(steady), str(slower))
    out = capsys.readouterr().out
    assert "regressed" in out and "1.3000" in out
