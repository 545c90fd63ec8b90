"""Exception hierarchy shared by all modules."""


class SchurColError(Exception):
    """Base class for all package-specific errors."""


class DiscViolation(SchurColError):
    """A value required to lie strictly inside the unit disc does not."""


class UnitViolation(SchurColError):
    """A value required to be unimodular is not."""


class NearPole(SchurColError):
    """Evaluation or linear solve requested too close to a pole."""


class Terminal(SchurColError):
    """The Schur recursion reached a unimodular value and cannot continue."""


class DegreeDropFailure(SchurColError):
    """A Schur step did not reduce the polynomial degree by exactly one."""


class NotUnitary(SchurColError):
    """Matrix fails the unitarity residual bound; ``residual`` is the one found."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class NotSimple(SchurColError):
    """Colligation fails the simplicity requirement (a zero Hessenberg band entry)."""


class NotMinimal(SchurColError):
    """Colligation fails the controllability/observability requirement."""


class DimensionMismatch(SchurColError):
    """Operands have incompatible shapes."""


class InternalInconsistency(SchurColError):
    """Two routes that must agree analytically disagree numerically.

    A failed backward check of the recursion carries its ``residual``
    and ``tolerance``; both are None otherwise.
    """

    def __init__(
        self, message: str, residual: float | None = None, tolerance: float | None = None
    ):
        super().__init__(message)
        self.residual = residual
        self.tolerance = tolerance


class FeedbackSingular(SchurColError):
    """The feedback loop of a coupling is singular."""

