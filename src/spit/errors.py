"""Exception types shared across the package.  In the trajectory loop an
`InfeasibleSlackError` rejects a trial (a Verlet step, its repair, a nudge),
which is redone smaller; a `FeasibilityError` rejects a projection."""


class SpitError(Exception):
    """Base class for all package-specific errors."""


class SingularBasisError(SpitError, ValueError):
    """Lattice basis is singular or violates the cell nondegeneracy bounds."""


class InfeasibleSlackError(SpitError, RuntimeError):
    """A barrier evaluation saw a nonpositive slack."""


class FeasibilityError(SpitError, RuntimeError):
    """A safeguard could not restore the strict-feasibility margin."""


class LinearizedInfeasibleError(FeasibilityError):
    """The linearized feasibility QP has no solution (or the solver stalled)."""


class RunAbort(SpitError, RuntimeError):
    """The trajectory loop hit an unrecoverable condition (e.g. vanishing step)."""
