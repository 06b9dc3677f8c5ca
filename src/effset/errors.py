"""Exception types shared across the solver stack."""


class EffsetError(Exception):
    """Base class for every error raised by this package."""


class ZeroDenominator(EffsetError):
    """A ratio objective was evaluated where its denominator vanishes."""


class LengthMismatch(EffsetError):
    """Vectors of different lengths were combined."""


class NotOptimal(EffsetError):
    """An operation needed an optimal simplex state but got another status."""


class InvariantViolated(EffsetError):
    """An internal invariant of the solvers failed: a defect in this
    package, never a property of the input."""


class UnboundedDomain(EffsetError):
    """The feasible region admits an unbounded improving ray; the model
    requires a bounded polytope."""


class UnboundedRelaxation(EffsetError):
    """The root LP relaxation of an integer program is unbounded."""


class AllInteger(EffsetError):
    """Branch variable selection was asked for on an all-integer point."""


class NonIntegerPoint(EffsetError):
    """Cut construction needs an integer optimum but the point is fractional."""


class InfeasiblePoint(EffsetError):
    """A membership test was asked about a point outside the feasible set."""


class AssumptionViolated(EffsetError):
    """Instance data breaks a model assumption. `reason` is one of
    "empty-domain" (no feasible integer point), "unbounded", or
    "denominator" (a denominator is not strictly positive)."""

    def __init__(self, message: str, reason: str = "denominator"):
        self.reason = reason
        super().__init__(message)


class GenerationFailed(EffsetError):
    """The random generator exhausted its retry budget."""


class EnumerationBudgetExceeded(EffsetError):
    """Lattice enumeration would visit more candidates than the budget allows."""


class ParseError(EffsetError):
    """An instance file is malformed. Carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
