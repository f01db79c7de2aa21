"""Exception hierarchy shared by all syncflow modules: one class per exit code.

``InputError`` is exit code 2 and ``NumericalError`` (with ``FiniteEscapeError``)
exit code 3; the command line tells no other classes apart.
"""


class SyncflowError(Exception):
    """Base class for every error raised by this package."""


class InputError(SyncflowError):
    """Input outside what the program accepts (exit code 2): malformed scenario JSON,
    a value outside the range of its owner (K, the run grid, a signal, a check), an
    operation outside its documented preconditions, or an object the supported
    vocabulary cannot represent."""


class NumericalError(SyncflowError):
    """An iterative numerical procedure failed to reach its target accuracy (exit code 3)."""


class FiniteEscapeError(NumericalError):
    """An RK4 step of length ``step`` became unstable at ``time``: |x|_inf
    (``sup_norm``) passed ``bound``, 1e8 times the sup norm (at least 1) of the box
    spanned by x0 and the zero sets.  The exact flow stays in that box, so no
    network of the catalog escapes: the runaway is the fixed-step integrator's.
    """

    def __init__(self, time: float, sup_norm: float, bound: float, step: float):
        self.time = time
        self.sup_norm = sup_norm
        self.bound = bound
        self.step = step
        super().__init__(
            f"RK4 step h={step:.6g} became unstable at t={time:.6g}: |x|_inf = {sup_norm:.3e} "
            f"passed the guard {bound:.3e}, 1e8 times the invariant box's sup norm (at least 1); "
            "the exact flow stays in the box"
        )
