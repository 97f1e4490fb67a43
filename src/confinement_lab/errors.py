"""Exception types shared across the package."""


class ConfinementLabError(Exception):
    """Base class for all package errors."""


class GramCheckFailed(ConfinementLabError):
    """Quadrature failed to reproduce an orthonormal basis Gram matrix."""

    def __init__(self, max_deviation, tol):
        self.max_deviation = max_deviation
        self.tol = tol
        super().__init__(f"Gram matrix deviates from identity by {max_deviation:.3e} (tol {tol:.1e})")


class ShapeMismatch(ConfinementLabError):
    """Field data does not match the discretization it claims to live on."""


class ZeroField(ConfinementLabError):
    """An operation that needs a nonzero field received (numerically) zero."""


class NotConverged(ConfinementLabError):
    """Iteration exhausted its budget before reaching tolerance."""

    def __init__(self, iterations, last_residual, what="solve"):
        self.iterations = iterations
        self.last_residual = last_residual
        super().__init__(f"{what} not converged after {iterations} iterations (residual {last_residual:.3e})")


class NotCoercive(ConfinementLabError, ValueError):
    """Quadratic part of the action not positive: no Nehari scale exists."""


class CollapsedToZero(ConfinementLabError):
    """The iterate lost essentially all of its mass (bad init or step size)."""


class EigsNotConverged(ConfinementLabError):
    """Iterative eigensolver failed its residual check."""


class NearSingular(ConfinementLabError):
    """Linearized solve unreliable: operator has an eigenvalue too close to zero."""


class BisectionStalled(ConfinementLabError):
    """Shooting root find could not establish its bracket or converge."""


class MassTooLarge(ConfinementLabError):
    """Prescribed mass exceeds what the sampled branch tails can reach."""


class BracketNotFound(ConfinementLabError):
    """Root bracketing for the prescribed-mass search failed."""


class InsufficientTail(ConfinementLabError):
    """Too few samples in the asymptotic tail to extrapolate."""


class StepTooLarge(ConfinementLabError):
    """Time step rejected: energy drift over the first steps is too large."""
