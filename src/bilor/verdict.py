"""Shared result types: pass/fail verdicts with exact witnesses."""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from .errors import FormatError

_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def _digit_limit() -> int:
    """Python's int/str digit limit, or its default 4300 where none is set."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def fmt_rat(x) -> str:
    """Canonical text for a rational: lowest terms, `p/q` or bare integer."""
    x = Fraction(x)
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError as exc:  # past the int/str digit limit
        raise FormatError(f"value too large to print: over {_digit_limit()} digits") from exc


def parse_rational(text: str) -> Fraction:
    """An exact rational; an exponent past the digit limit is refused unbuilt."""
    exponent = _EXPONENT.search(text)
    try:
        if exponent and abs(int(exponent[1])) >= _digit_limit():
            raise FormatError(f"exponent of {text.strip()!r} is too large")
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"bad rational {text!r}") from exc


@dataclass(frozen=True)
class MinorWitness:
    """A single minor pinned down by row/column index sets and its exact value."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    value: Fraction

    def to_json(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "value": fmt_rat(self.value),
        }


@dataclass(frozen=True)
class Verdict:
    """Outcome of a yes/no property test.

    A failing verdict carries a witness (the offending minor) whenever the
    property is a positivity condition on minors; `detail` is free text for
    special cases such as the zero form.
    """

    prop: str
    passed: bool
    witness: MinorWitness | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "pass": self.passed,
            "witness": self.witness.to_json() if self.witness else None,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class HrrFailure:
    """Where a Lefschetz-type check failed: the degree, the evaluation
    point(s) used, the offending determinant, and — for cone-backed checks —
    the failing minor."""

    degree: int | None = None
    points: tuple[tuple[Fraction, Fraction], ...] | None = None
    value: Fraction | None = None
    minor: MinorWitness | None = None

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "points": None
            if self.points is None
            else [[fmt_rat(a), fmt_rat(b)] for a, b in self.points],
            "value": None if self.value is None else fmt_rat(self.value),
            "minor": self.minor.to_json() if self.minor else None,
        }


@dataclass(frozen=True)
class HrrVerdict:
    """Outcome of SL / HRR / mixed-HRR checks up to a given degree."""

    prop: str
    up_to: int
    passed: bool
    failure: HrrFailure | None = None
    detail: str | None = None

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "up_to": self.up_to,
            "pass": self.passed,
            "failure": self.failure.to_json() if self.failure else None,
            "detail": self.detail,
        }
