"""Exception types shared across the package."""


class CodesignError(Exception):
    """Base class for all errors raised by this package."""


class NoStabilizingSolution(CodesignError):
    """The Riccati equation admits no stabilizing solution."""


class NonConvergence(CodesignError):
    """A solver failed to reach its residual tolerance."""


class NotHurwitz(CodesignError):
    """A matrix required to be Hurwitz has an eigenvalue too close to the
    imaginary axis (real part >= -1e-12)."""


class PBHViolation(CodesignError):
    """PBH rank test failed for an unstable eigenvalue."""

    def __init__(self, message: str, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateStep(CodesignError):
    """A flow step collapsed the placement vector below renormalizable size."""


class AllStartsFailed(CodesignError):
    """Every start of a multi-start descent ended in a solver failure."""


class NonNegativeEigenvalue(CodesignError):
    """An eigenvalue required to be strictly negative is not."""


class SingularBlock(CodesignError):
    """A zero-gain xi certificate is undecided or fails its eq-19 verification."""


class DimensionTooLarge(CodesignError):
    """The problem dimension exceeds the combinatorial enumeration cap."""


class NotAnEquilibrium(CodesignError):
    """Stability classification was requested away from an equilibrium."""


class SimulationDiverged(CodesignError):
    """A simulated path (or too many paths) left the trust region."""


class ProblemFormatError(CodesignError):
    """A problem file could not be parsed into a valid plant."""
