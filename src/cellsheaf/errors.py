"""Exception types shared across the package.

The CLI maps these onto exit codes: malformed input (DocumentError,
UnknownElementError, EnumerationLimitError) exits 2, semantic failures
(ValidationError and subclasses) exit 1. Each class names, in its `check`
attribute, the report check that an error of its kind fails: a broken
order, chain or naturality square fails its own law, a member list that
is not up-closed fails `open-valid`, and anything else `document-valid`.
"""

from __future__ import annotations


class CellSheafError(Exception):
    """Base class for every error raised by this package."""

    check = "document-valid"


class DocumentError(CellSheafError):
    """A document could not be parsed or is structurally malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnknownElementError(CellSheafError):
    """An element identifier does not belong to the carrier."""


class ShapeError(CellSheafError):
    """Matrix dimensions are inconsistent with the requested operation."""


class EnumerationLimitError(CellSheafError):
    """A carrier is too large for exhaustive open-set enumeration."""

    def __init__(self, size: int, limit: int):
        self.size = size
        self.limit = limit
        super().__init__(
            f"carrier has {size} elements, above the enumeration limit {limit};"
            " raise --max-elements to override"
        )


class ValidationError(CellSheafError):
    """Well-formed input that violates a semantic requirement."""


class NotAntisymmetricError(ValidationError):
    """A preorder was used where a poset is required."""

    check = "poset-antisymmetry"

    def __init__(self, x: str, y: str):
        self.x = x
        self.y = y
        super().__init__(f"not a poset: {x} <= {y} and {y} <= {x} but {x} != {y}")


class NotOpenError(ValidationError):
    """A member set is not up-closed; carries one witness pair."""

    check = "open-valid"

    def __init__(self, element: str, successor: str):
        self.element = element
        self.successor = successor
        super().__init__(
            f"set is not open: contains {element} but not its successor {successor}"
        )


class SquareError(ValidationError):
    """A square of matrices from `low` to `high` whose two products, `left`
    and `right`, differ; each subclass words the failure in `template`."""

    template = ""

    def __init__(self, low: str, high: str, left, right):
        self.low = low
        self.high = high
        self.left = left
        self.right = right
        super().__init__(self.template.format(low=low, high=high, left=left, right=right))


class FunctorialityError(SquareError):
    """Two chains between the same pair compose to different matrices."""

    check = "functoriality"
    template = ("restriction maps from {low} to {high} disagree along different chains:"
                " {left} vs {right}")


class NaturalityError(SquareError):
    """A morphism component square fails to commute on a covering pair."""

    check = "naturality"
    template = ("component maps do not commute with restrictions on {low} <= {high}:"
                " {left} vs {right}")


class GlueConflictError(ValidationError):
    """Two local sections disagree on an overlap; carries the witness."""

    def __init__(self, element: str, left, right):
        self.element = element
        self.left = left
        self.right = right
        super().__init__(
            f"local sections disagree at {element}: {list(left)} vs {list(right)}"
        )
