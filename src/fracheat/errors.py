"""Exception hierarchy shared by all fracheat modules."""


class FracheatError(Exception):
    """Base class for every error raised by this package."""


class EmptyGrid(FracheatError):
    """No cell center of the requested lattice falls inside the domain."""


class DomainError(FracheatError):
    """Parameters outside the admissible range (e.g. alpha >= min(2, d))."""


class AllocationError(FracheatError):
    """Requested dense operator exceeds the configured size cap."""


class DimensionMismatch(FracheatError):
    """Vector length does not match the operator / grid size."""


class ConvergenceFailure(FracheatError):
    """Eigen solve did not meet the residual tolerance."""

    def __init__(self, message, iterations=0):
        super().__init__(message)
        self.iterations = iterations


class SingularNode(FracheatError):
    """A grid node coincides with a singularity of the potential."""


class StepTooLarge(FracheatError):
    """Time step violates the positivity-preserving step restriction."""


class SolveFailure(FracheatError):
    """Linear solver broke down or produced an inadmissible state."""


class NonpositiveState(FracheatError):
    """State vector is not positive where a certificate requires it."""


class BallTooSmall(FracheatError):
    """A probe ball contains fewer grid nodes than the required minimum."""


class InsufficientEvidence(FracheatError):
    """Classifier input does not span enough mesh or truncation levels."""


class ConfigError(FracheatError):
    """Experiment configuration failed validation."""


class MissingLibrary(FracheatError):
    """numpy's bundled OpenBLAS, which the dense Cholesky calls, is absent."""
