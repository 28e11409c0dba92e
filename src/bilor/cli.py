"""Command line front end.

Every subcommand is one row of `COMMANDS`: its name, its help text (``None``
hides it from the usage line and the help), its handler and its own
arguments.  `build_parser` registers each row with ``--form`` /
``--form-file`` ahead of those arguments, and `PUBLIC_COMMANDS` is read off
the table.  A handler writes only its command's keys into the payload; those
that read a form load it through `_form`, which also records ``convention``
and ``form``.  `main` prints the payload as one canonical JSON object
(``--format table`` renders the same data as indented text) and derives the
exit status from it: 1 when the payload carries a top-level ``verdict`` that
failed, 0 otherwise, and 2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import algebra, hessians, linalg, lorentzian, paths, stability, toeplitz
from .errors import BilorError, FormatError
from .forms import LinearForm, format_form, from_monomial_coeffs, parse_form, substitute
from .verdict import fmt_rat, parse_rational


def _env_int(name: str) -> int | None:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return None
    try:
        return int(raw)
    except ValueError as exc:
        raise FormatError(f"{name} must be an integer, got {raw!r}") from exc


def _minor_cap() -> int | None:
    return _env_int("BILOR_MINOR_CAP")


def _budget() -> int:
    budget = _env_int("BILOR_HALVING_BUDGET")
    if budget is not None and budget < 1:
        raise FormatError(f"BILOR_HALVING_BUDGET must be at least 1, got {budget}")
    return lorentzian.DEFAULT_BUDGET if budget is None else budget


def _parse_point(text: str) -> tuple[Fraction, Fraction]:
    parts = text.split(",")
    if len(parts) != 2:
        raise FormatError(f"expected a,b point, got {text!r}")
    return parse_rational(parts[0]), parse_rational(parts[1])


def _parse_points(text: str) -> list[tuple[Fraction, Fraction]]:
    chunks = [c for c in text.split(";") if c.strip()]
    return [_parse_point(c) for c in chunks]


def _parse_linear(text: str) -> LinearForm:
    return LinearForm(*_parse_point(text))


def _parse_pointsets(text: str) -> dict[int, list[tuple[Fraction, Fraction]]]:
    """`0=1,1;2,1|1=1,1` maps degree 0 to [(1,1),(2,1)] and degree 1 to [(1,1)]."""
    out: dict[int, list[tuple[Fraction, Fraction]]] = {}
    for group in text.split("|"):
        group = group.strip()
        if not group:
            continue
        head, _, body = group.partition("=")
        try:
            j = int(head.strip())
        except ValueError as exc:
            raise FormatError(f"bad degree {head!r} in point sets") from exc
        if j in out:
            raise FormatError(f"degree {j} given twice in point sets")
        out[j] = _parse_points(body)
    if not out:
        raise FormatError("empty point sets")
    return out


def _load_text(inline: str | None, path: str | None, what: str) -> str:
    if (inline is None) == (path is None):
        raise FormatError(f"give exactly one of --{what} / --{what}-file")
    if inline is not None:
        return inline
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc
        raise FormatError(f"cannot read --{what}-file {path!r}: {reason}") from exc


def _form(args, payload: dict):
    """Load the form and record its input convention and canonical text."""
    form, payload["convention"] = parse_form(_load_text(args.form, args.form_file, "form"))
    payload["form"] = format_form(form)
    return form


def _rat_rows(rows) -> list[list[str]]:
    """A matrix, or a list of points, as rows of canonical rationals."""
    return [[fmt_rat(x) for x in row] for row in rows]


def _render_table(value, indent=0) -> list[str]:
    pad = "  " * indent
    if isinstance(value, dict):
        items = [(f"{k}:", value[k]) for k in sorted(value)]
    elif isinstance(value, list):
        items = [("-", item) for item in value]
    else:
        return [pad + _scalar(value)]
    lines: list[str] = []
    for label, v in items:
        if isinstance(v, (dict, list)) and v:
            lines.append(pad + label)
            lines.extend(_render_table(v, indent + 1))
        else:
            lines.append(f"{pad}{label} {_scalar(v)}")
    return lines


def _scalar(v) -> str:
    """A leaf: strings bare, anything else (numbers, null, booleans, empty
    containers) as its JSON text."""
    return v if isinstance(v, str) else json.dumps(v)


def _json_line(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_classify(args, payload: dict) -> None:
    form = _form(args, payload)
    lc = lorentzian.classify(form, args.max_order, _minor_cap())
    payload["degree"] = form.degree
    payload["order"] = lc.order
    payload["order_strict"] = lc.order_strict
    payload["per_order"] = [
        {"order": i, "strict": strict.to_json(), "lorentzian": loose.to_json()}
        for i, (strict, loose) in enumerate(lc.per_order)
    ]


def cmd_toeplitz(args, payload: dict) -> None:
    cap = _minor_cap()
    if args.matrix is not None or args.matrix_file is not None:
        if args.form is not None or args.form_file is not None:
            raise FormatError("give a form or a matrix, not both")
        window = dense = toeplitz.parse_matrix(
            _load_text(args.matrix, args.matrix_file, "matrix")
        )
    else:
        form = _form(args, payload)
        if args.order is None:
            raise FormatError("--order is required with a form input")
        window = toeplitz.from_form(form, args.order)
        payload["order"] = args.order
        dense = window.to_dense()
    payload["matrix"] = _rat_rows(dense)
    payload["rank"] = toeplitz.rank(window)
    payload["totally_positive"] = toeplitz.is_totally_positive(window).to_json()
    payload["totally_nonnegative"] = toeplitz.is_totally_nonnegative(window, cap).to_json()


def cmd_hessian(args, payload: dict) -> None:
    family = hessians.hessian_family(_form(args, payload), args.order)
    if (args.at is None) == (args.points is None):
        raise FormatError("give exactly one of --at / --points")
    if args.at is not None:
        points = [_parse_point(args.at)]
        matrix = hessians.evaluate_hessian(family, *points[0])
        payload["mode"] = "ordinary"
    else:
        points = _parse_points(args.points)
        matrix = hessians.evaluate_mixed_hessian(family, points)
        payload["mode"] = "mixed"
    payload["order"] = args.order
    payload["points"] = _rat_rows(points)
    payload["matrix"] = _rat_rows(matrix)
    payload["det"] = fmt_rat(linalg.det(matrix))
    payload["reversal_det"] = fmt_rat(hessians.reversal_det(matrix))
    payload["signature"] = hessians.signature(matrix).to_json()


def cmd_hrr_or_sl(args, payload: dict) -> None:
    """`hrr` and `sl`: the ordinary Hodge-Riemann or strong Lefschetz check at --ell."""
    form = _form(args, payload)
    up_to = form.degree // 2 if args.up_to is None else args.up_to
    check = algebra.check_hrr if args.command == "hrr" else algebra.check_sl
    ell = _parse_linear(args.ell)
    payload["ell"] = list(map(fmt_rat, ell.point()))
    payload["verdict"] = check(form, up_to, ell).to_json()


def cmd_mixed_hrr(args, payload: dict) -> None:
    form = _form(args, payload)
    up_to = form.degree // 2 if args.up_to is None else args.up_to
    if (args.cone is None) == (args.at_points is None):
        raise FormatError("give exactly one of --cone / --at-points")
    if args.cone is not None:
        generators = None
        if args.generators is not None:
            pts = _parse_points(args.generators)
            if len(pts) != 2:
                raise FormatError("--generators needs exactly two a,b pairs")
            generators = (LinearForm(*pts[0]), LinearForm(*pts[1]))
        v = algebra.check_mixed_hrr_cone(form, up_to, args.cone, generators, _minor_cap())
        payload["mode"] = {"cone": args.cone}
    else:
        sets = _parse_pointsets(args.at_points)
        v = algebra.check_mixed_hrr_at(form, up_to, sets)
        payload["mode"] = {"points": {str(j): _rat_rows(pts) for j, pts in sets.items()}}
    payload["verdict"] = v.to_json()


def cmd_hilbert(args, payload: dict) -> None:
    prof = algebra.profile(_form(args, payload))
    payload["hilbert"] = list(prof.hilbert)
    payload["sperner"] = prof.sperner
    payload["socle_degree"] = prof.socle_degree


def cmd_sperner(args, payload: dict) -> None:
    payload["sperner"] = algebra.profile(_form(args, payload)).sperner


def cmd_annihilator(args, payload: dict) -> None:
    payload["generators"] = [
        {"degree": g.degree, "text": g.text(), "coeffs": [fmt_rat(c) for c in g.coeffs]}
        for g in algebra.annihilator_generators(_form(args, payload))
    ]


def cmd_primitive(args, payload: dict) -> None:
    form = _form(args, payload)
    ells = [LinearForm(a, b) for a, b in _parse_points(args.ells)]
    basis = algebra.primitive_subspace(form, args.degree, _parse_linear(args.ell0), ells)
    payload["degree"] = basis.degree
    payload["basis"] = _rat_rows(basis.vectors)
    payload["expected_dim"] = basis.expected_dim
    payload["matches"] = basis.matches


def cmd_stable(args, payload: dict) -> None:
    form = _form(args, payload)
    if args.command == "normally-stable":  # the companion with the normalized coefficients
        form = from_monomial_coeffs(form.coeffs)
    verdict, roots = stability._stable(form, args.command)
    payload["verdict"] = verdict.to_json()
    payload["roots"] = None if roots is None else roots.to_json()


def cmd_pf(args, payload: dict) -> None:
    form = _form(args, payload)
    payload["window"] = args.window
    payload["verdict"] = stability.pf_window_check(form, args.window, _minor_cap()).to_json()


def cmd_approximate(args, payload: dict) -> None:
    form = _form(args, payload)
    epsilon = None if args.epsilon is None else parse_rational(args.epsilon)
    steps = lorentzian.approximate_tp(
        form,
        args.order,
        steps=args.steps,
        epsilon=epsilon,
        budget=_budget(),
        cap=_minor_cap(),
    )
    payload["order"] = args.order
    payload["certified"] = True
    payload["steps"] = [
        {
            "form": format_form(st.form),
            "distance": fmt_rat(st.distance),
            "rank_steps": _rat_rows(st.rank_steps),
            "final_mix": None if st.final_mix is None else fmt_rat(st.final_mix),
        }
        for st in steps
    ]


def cmd_straighten(args, payload: dict) -> None:
    form = _form(args, payload)
    change = lorentzian.straighten_from_hrr(
        form, _parse_linear(args.ell), args.order, _budget()
    )
    payload["order"] = args.order
    payload["change"] = {k: fmt_rat(getattr(change, k)) for k in "pqrs"}
    payload["image"] = format_form(substitute(form, change))
    payload["certified"] = True


def cmd_verify_factorization(args, payload: dict) -> None:
    form = _form(args, payload)
    pts = _parse_points(args.points)
    payload["order"] = args.order
    payload["points"] = _rat_rows(pts)
    payload["verdict"] = paths.verify_factorization(form, args.order, pts).to_json()


def _arg(*flags: str, **kwargs) -> tuple:
    """One argument of a row: (flags, add_argument keywords)."""
    return flags, kwargs


ORDER = _arg("--order", "--i", "-i", type=int, required=True)
ELL = _arg("--ell", required=True, help="linear form a,b")
UP_TO = _arg("--up-to", type=int)

# (name, help or None to hide it, handler, arguments after --form / --form-file)
COMMANDS = (
    ("classify", "strict/non-strict Lorentzian order", cmd_classify,
     (_arg("--max-order", type=int),)),
    ("toeplitz", "coefficient window, rank, TP/TN verdicts", cmd_toeplitz, (
        _arg("--order", "--i", "-i", type=int),
        _arg("--matrix", help="raw matrix text `a,b;c,d` instead of a form"),
        _arg("--matrix-file"),
    )),
    ("hessian", "Hessian matrix, determinants, signature", cmd_hessian, (
        ORDER,
        _arg("--at", help="single evaluation point a,b"),
        _arg("--points", help="mixed evaluation points a,b;a,b;..."),
    )),
    ("hrr", "ordinary Hodge-Riemann check at a linear form", cmd_hrr_or_sl, (ELL, UP_TO)),
    ("sl", "strong Lefschetz check at a linear form", cmd_hrr_or_sl, (ELL, UP_TO)),
    ("mixed-hrr", "mixed Hodge-Riemann: cone-backed or point sets", cmd_mixed_hrr, (
        UP_TO,
        _arg("--cone", choices=("open", "closed")),
        _arg("--generators", help="cone generators a,b;a,b (defaults to standard)"),
        _arg("--at-points", help="per-degree points: 0=a,b;a,b|1=a,b"),
    )),
    ("hilbert", "Hilbert function of the quotient algebra", cmd_hilbert, ()),
    ("sperner", "largest value of the Hilbert function", cmd_sperner, ()),
    ("annihilator", "the two annihilator generators", cmd_annihilator, ()),
    ("primitive", "primitive subspace for given linear data", cmd_primitive, (
        _arg("--degree", "--j", "-j", type=int, required=True),
        _arg("--ell0", required=True, help="distinguished linear form a,b"),
        _arg("--ells", default="", help="remaining linear forms a,b;a,b;..."),
    )),
    ("stable", "homogeneous stability", cmd_stable, ()),
    ("normally-stable", "stability of the normalized companion", cmd_stable, ()),
    ("pf", "total nonnegativity of all windows up to an order", cmd_pf,
     (_arg("--window", type=int, required=True),)),
    ("approximate", "certified strictly-Lorentzian approximants", cmd_approximate, (
        ORDER,
        _arg("--steps", type=int),
        _arg("--epsilon", help="target sup-norm distance (rational)"),
    )),
    ("straighten", "coordinate change from a Hodge-Riemann witness", cmd_straighten, (ELL, ORDER)),
    # developer command: entrywise band factorization of the mixed Hessian
    ("verify-factorization", None, cmd_verify_factorization,
     (ORDER, _arg("--points", default="", help="points a,b;a,b;... (d-2i of them)"))),
)

PUBLIC_COMMANDS = ",".join(name for name, help_text, _, _ in COMMANDS if help_text is not None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bilor",
        description="Exact positivity and Lorentzian-order tests for bivariate forms.",
    )
    parser.add_argument(
        "--format", choices=("json", "table"), default="json", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar=f"{{{PUBLIC_COMMANDS}}}")
    for name, help_text, handler, arguments in COMMANDS:
        # argparse lists a subcommand in the help whenever `help` is passed at all
        listed = {} if help_text is None else {"help": help_text}
        p = sub.add_parser(name, **listed)
        p.add_argument("--form", help="form text (see README for accepted shapes)")
        p.add_argument("--form-file", help="file holding the form text")
        for flags, kwargs in arguments:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    payload = {"command": args.command}
    try:
        args.handler(args, payload)
    except BilorError as exc:
        sys.stdout.write(_json_line({"error": {"code": exc.code, "message": str(exc)}}))
        return 2
    if args.format == "table":
        sys.stdout.write("\n".join(_render_table(payload)) + "\n")
    else:
        sys.stdout.write(_json_line(payload))
    return 1 if payload.get("verdict", {}).get("pass") is False else 0


if __name__ == "__main__":
    sys.exit(main())
