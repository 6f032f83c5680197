"""Exception hierarchy.

Two broad families: input/contract violations (``ValidationError``,
CLI exit code 1) and failures arising during an otherwise valid
computation (``ComputationError``, CLI exit code 2).
"""


class QBeliefError(Exception):
    """Base class for all library errors."""


class ValidationError(QBeliefError):
    """Invalid input, dimensions, or operation contract."""


class ComputationError(QBeliefError):
    """A valid request that cannot be completed (conflict, singularity, ...)."""


# --- dense storage --------------------------------------------------------------

DENSE_BUDGET_BYTES = 1 << 28


class DenseBudgetExceeded(ComputationError):
    pass


def check_dense_budget(nbytes: int, what: str) -> None:
    """Refuse, before allocating, a dense array larger than the budget."""
    if nbytes > DENSE_BUDGET_BYTES:
        raise DenseBudgetExceeded(
            f"{what} needs {nbytes} bytes, over the {DENSE_BUDGET_BYTES}-byte dense budget"
        )


# --- mass-function ingestion -------------------------------------------------

class NegativeMass(ValidationError):
    pass


class MassSumViolation(ValidationError):
    pass


class UnknownElement(ValidationError):
    pass


class DuplicateFocalSet(ValidationError):
    pass


class FrameMismatch(ValidationError):
    pass


# --- classical operations ----------------------------------------------------

class InverseNotBBA(ComputationError):
    pass


class TotalConflict(ComputationError):
    pass


class DegenerateEmptyMass(ComputationError):
    pass


class ZeroPlausibility(ComputationError):
    pass


class ZeroVector(ComputationError):
    pass


class DimensionMismatch(ValidationError):
    pass


# --- simulator ----------------------------------------------------------------

class IndexOutOfRange(ValidationError):
    pass


class IndexOverlap(ValidationError):
    pass


class NotUnitary(ValidationError):
    pass


class ImpossibleOutcome(ComputationError):
    pass


class QubitCountMismatch(ValidationError):
    pass


# --- quantum pipelines ----------------------------------------------------------

class EmptyFocal(ValidationError):
    pass


class BadDimension(ValidationError):
    pass


class SingularMatrix(ComputationError):
    pass


class PostselectionFailed(ComputationError):
    pass
