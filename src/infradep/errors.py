"""Exception hierarchy shared by all infradep modules.

Every exception carries a short machine-readable ``code`` so the CLI can
map failures to exit codes without string matching.  A model that could
reach a value outside its variable's domain fails validation
(``InvalidModelError``) before it is explored or simulated, so no
exception stands for such a value.
"""

from __future__ import annotations


class InfradepError(Exception):
    """Base class for all errors raised by this package."""

    code = "ERROR"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class InvalidModelError(InfradepError):
    """A model fails ``validate_model``; ``report`` holds every finding.

    The one gate, ``require_valid``, raises it before a model is explored
    or simulated, so no stage meets a value outside its variable's domain."""

    code = "INVALID_MODEL"

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


class InvalidParamError(InfradepError):
    """A model parameter is outside its admissible range."""

    code = "INVALID_PARAM"


class InvalidArgError(InfradepError):
    """An operation argument is outside its admissible range."""

    code = "INVALID_ARG"


class StateLimitExceeded(InfradepError):
    """Reachability exploration hit the configured state cap."""

    code = "STATE_LIMIT"

    def __init__(self, message: str, limit: int):
        super().__init__(message)
        self.limit = limit


class ImmediateCycleError(InfradepError):
    """A cycle of vanishing states (immediate transitions) was detected."""

    code = "IMMEDIATE_CYCLE"


class NotErgodicError(InfradepError):
    """The chain has more than one terminal strongly-connected component."""

    code = "NOT_ERGODIC"


class NoConvergenceError(InfradepError):
    """A solver did not reach the requested residual (or its system is singular)."""

    code = "NO_CONVERGENCE"

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class UnreachableTargetError(InfradepError):
    """The absorption target is hit with probability below one."""

    code = "UNREACHABLE_TARGET"

    def __init__(self, message: str, hit_probability: float):
        super().__init__(message)
        self.hit_probability = hit_probability


class EventCapExceeded(InfradepError):
    """A simulation produced more events than the configured cap.

    The partial trace that was produced up to the cap is attached.
    """

    code = "EVENT_CAP_EXCEEDED"

    def __init__(self, message: str, trace=None):
        super().__init__(message)
        self.trace = trace


class UnknownLabelError(InfradepError):
    """A named label does not exist on the model under analysis."""

    code = "UNKNOWN_LABEL"


class NotAttackModelError(InfradepError):
    """A real/apparent-status check was run on a model without that shape."""

    code = "NOT_ATTACK_MODEL"
