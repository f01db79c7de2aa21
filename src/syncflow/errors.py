"""Exception hierarchy shared by all syncflow modules."""


class SyncflowError(Exception):
    """Base class for every error raised by this package."""


class InputError(SyncflowError):
    """Malformed or inconsistent input: bad dimensions, unknown ids, schema violations."""


class ConfigurationError(SyncflowError):
    """Individually valid settings that combine into an unusable configuration."""


class PreconditionError(SyncflowError):
    """An operation was invoked outside its documented preconditions."""


class RepresentationError(SyncflowError):
    """The requested object cannot be represented in the supported vocabulary."""


class NumericalError(SyncflowError):
    """An iterative numerical procedure failed to reach its target accuracy."""


class FiniteEscapeError(NumericalError):
    """State norm exceeded the divergence guard during integration.

    The exact flow stays in the box spanned by x0 and the zero sets, so a trip
    is fixed-step RK4 leaving its stability region, not an escape of the
    network; the integrator raises this error instead of overflowing silently.
    """

    def __init__(self, time: float, sup_norm: float, bound: float):
        self.time = time
        self.sup_norm = sup_norm
        self.bound = bound
        super().__init__(
            f"finite-escape suspected at t={time:.6g}: |x|_inf = {sup_norm:.3e} "
            f"exceeds guard {bound:.3e}"
        )
