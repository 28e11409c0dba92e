"""Exception types shared across the package.

Every error carries a short machine-readable ``code`` so the command line
front end can report failures uniformly.
"""

from __future__ import annotations


class BilorError(Exception):
    code = "error"


class FormatError(BilorError):
    """Malformed text input (rationals, forms, matrices, point lists)."""

    code = "format"


class UsageError(BilorError):
    """Command line arguments that the parser refuses."""

    code = "usage"


class ShapeError(BilorError):
    """Dimension mismatch or a matrix that is not what it claims to be."""

    code = "shape"


class DegreeError(BilorError):
    """Degree or order out of the admissible range."""

    code = "degree"


class ZeroFormError(BilorError):
    """The zero form was supplied where a nonzero form is required."""

    code = "zero-form"


class ZeroPolynomialError(BilorError):
    code = "zero-polynomial"


class PreconditionError(BilorError):
    """A documented precondition of the operation does not hold."""

    code = "precondition"


class NotSymmetricError(BilorError):
    code = "not-symmetric"


class MinorCapError(BilorError):
    """Requested minor enumeration exceeds the configured size cap."""

    code = "minor-cap"


class BudgetError(BilorError):
    """An iterative search exhausted its halving / enumeration budget."""

    code = "budget-exhausted"
