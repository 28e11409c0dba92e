"""Shared result types: pass/fail verdicts with exact witnesses."""

from __future__ import annotations

import re
import sys
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


class Frozen:
    """Base of the immutable value types: a subclass names its fields in
    ``__slots__`` and sets each once in its own ``__init__``.  An instance
    equals only one of the same class with equal fields, hashes as its field
    tuple, prints as ``Name(field=value, ...)`` and refuses assignment."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class MinorWitness(Frozen):
    """A single minor pinned down by row/column index sets and its exact value."""

    __slots__ = ("rows", "cols", "value")

    def __init__(self, rows: tuple[int, ...], cols: tuple[int, ...], value: Fraction):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "value", value)

    def to_json(self) -> dict:
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "value": fmt_rat(self.value),
        }


class Verdict(Frozen):
    """Outcome of a yes/no property test.

    A failing verdict carries a witness (the offending minor) whenever the
    property is a positivity condition on minors; `detail` is free text for
    special cases such as the zero form.
    """

    __slots__ = ("prop", "passed", "witness", "detail")

    def __init__(
        self,
        prop: str,
        passed: bool,
        witness: MinorWitness | None = None,
        detail: str | None = None,
    ):
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "detail", detail)

    def __bool__(self) -> bool:
        return self.passed

    def to_json(self) -> dict:
        return {
            "property": self.prop,
            "pass": self.passed,
            "witness": self.witness.to_json() if self.witness else None,
            "detail": self.detail,
        }


class HrrFailure(Frozen):
    """Where a Lefschetz-type check failed: the degree, the evaluation
    point(s) used, the offending determinant, and — for cone-backed checks —
    the failing minor."""

    __slots__ = ("degree", "points", "value", "minor")

    def __init__(
        self,
        degree: int | None = None,
        points: tuple[tuple[Fraction, Fraction], ...] | None = None,
        value: Fraction | None = None,
        minor: MinorWitness | None = None,
    ):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "minor", minor)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "points": None
            if self.points is None
            else [[fmt_rat(a), fmt_rat(b)] for a, b in self.points],
            "value": None if self.value is None else fmt_rat(self.value),
            "minor": self.minor.to_json() if self.minor else None,
        }


class HrrVerdict(Frozen):
    """Outcome of SL / HRR / mixed-HRR checks up to a given degree."""

    __slots__ = ("prop", "up_to", "passed", "failure", "detail")

    def __init__(
        self,
        prop: str,
        up_to: int,
        passed: bool,
        failure: HrrFailure | None = None,
        detail: str | None = None,
    ):
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "up_to", up_to)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "failure", failure)
        object.__setattr__(self, "detail", detail)

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
