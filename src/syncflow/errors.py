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
    """An RK4 step of length ``step`` became unstable at ``time``: |x|_inf
    (``sup_norm``) passed ``bound``, 1e8 times the sup norm (at least 1) of the box
    spanned by x0 and the zero sets.  The exact flow stays in that box, so no
    network of the catalog escapes, and a smaller step cures it.
    """

    def __init__(self, time: float, sup_norm: float, bound: float, step: float):
        self.time = time
        self.sup_norm = sup_norm
        self.bound = bound
        self.step = step
        super().__init__(
            f"RK4 step h={step:.6g} became unstable at t={time:.6g}: |x|_inf = {sup_norm:.3e} "
            f"passed the guard {bound:.3e}, 1e8 times the invariant box's sup norm (at least 1); "
            "the exact flow stays in the box, so a smaller dt cures it"
        )
