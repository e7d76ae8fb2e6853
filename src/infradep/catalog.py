"""Built-in interdependency models of the coupled infrastructures.

Four ready-made models over an electricity infrastructure and the
information infrastructure that monitors and controls it:

* ``accidental``       - accidental information-infrastructure failures with
                         coupling in both directions (cascading + escalating).
* ``cascading-only``   - same, restricted to the constraints the information
                         infrastructure puts on the electricity side.
* ``common-cause``     - the accidental model plus common-cause failures that
                         knock both infrastructures out at once.
* ``attack``           - malicious attacks, tracking the real status of each
                         infrastructure separately from the status apparent
                         to the operator.

Each model is defined once, by its file ``models/<name>.gsts`` in this
package, written at the default parameters.  :func:`builtin_model` binds a
:class:`ModelParams` onto the parsed file: rates by parameter name,
``k_max`` as the bound of the ``n_cfg`` counter and the literal of every
guard that compares ``n_cfg`` with that bound, and ``rho``/``p8`` as the
rate coefficients listed in ``_COEFFICIENTS``.  All rates are per unit time
and deliberately desk-scale defaults.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from importlib import resources

from .dsl import parse_model
from .errors import InvalidParamError
from .model import Comparison, IntDomain, Model, Not, Timed

@dataclass(frozen=True)
class ModelParams:
    """Rates and structural knobs shared by the built-in models.

    ``rho`` slows e-restoration down while the information infrastructure
    is degraded (escalation of time-to-restore); ``k_max`` bounds how many
    undue configuration changes can pile up before the grid is lost;
    ``p8`` splits common-cause mass between the partial-outage and
    blackout outcomes.
    """

    lambda_mp: float = 0.01  # masked passive i-failure
    lambda_ma: float = 0.01  # masked active i-failure
    lambda_s: float = 0.01  # signalled i-failure
    lambda_e: float = 0.02  # e-failure
    lambda_e2: float = 0.05  # e-failure accumulation (partial outage -> lost)
    lambda_c: float = 0.1  # undue configuration change
    lambda_k: float = 0.1  # constraint of a signalled i-outage on the grid
    mu_i: float = 1.0  # i-restoration
    mu_e: float = 2.0  # e-restoration
    mu_c: float = 2.0  # configuration restoration
    rho: float = 0.25  # e-restoration slow-down factor, in (0, 1]
    k_max: int = 2  # configuration-change threshold, >= 1
    lambda_cc: float = 0.001  # common cause
    p8: float = 0.5  # share of common-cause failures that black out, in [0, 1]
    lambda_ap: float = 0.005  # passive deceptive attack
    lambda_aa: float = 0.005  # active deceptive attack
    lambda_pa: float = 0.005  # perceptible attack
    lambda_oc: float = 0.1  # operator configuration change (deceived)
    lambda_ic: float = 0.1  # configuration change by the compromised system
    lambda_d: float = 0.5  # attack detection

    def validated(self) -> "ModelParams":
        rates = {
            name: getattr(self, name)
            for name in self.__dataclass_fields__
            if name not in ("rho", "k_max", "p8")
        }
        for name, value in rates.items():
            if not (math.isfinite(value) and value > 0):
                raise InvalidParamError(f"rate {name} must be positive and finite, got {value}")
        if not 0 < self.rho <= 1:
            raise InvalidParamError(f"rho must be in (0, 1], got {self.rho}")
        if not 0 <= self.p8 <= 1:
            raise InvalidParamError(f"p8 must be in [0, 1], got {self.p8}")
        if not (isinstance(self.k_max, int) and self.k_max >= 1):
            raise InvalidParamError(f"k_max must be an integer >= 1, got {self.k_max}")
        return self


DEFAULT_PARAMS = ModelParams()

BUILTIN_MODELS = ("accidental", "cascading-only", "common-cause", "attack")

MODEL_DESCRIPTIONS = {
    "accidental": "accidental i-failures and e-failures with two-way coupling "
    "(cascading and escalating failures)",
    "cascading-only": "one-way coupling: constraints of the information "
    "infrastructure on the electricity infrastructure",
    "common-cause": "accidental model plus common-cause failures hitting both "
    "infrastructures at once",
    "attack": "malicious attacks with separate real and apparent "
    "infrastructure statuses",
}


@functools.cache
def _shipped(name: str) -> Model:
    """The packaged model file, parsed on first use and once per process."""
    path = resources.files(__package__).joinpath("models", f"{name}.gsts")
    return parse_model(path.read_bytes())


# The configuration-change counter whose bound is ``k_max``, and the rate
# coefficients set by the structural knobs (``p8`` splits ``lambda_cc``).
_COUNTER = "n_cfg"
_COEFFICIENTS = {
    "e_restoration_slow": lambda p: p.rho,
    "cc_to_6": lambda p: 1.0 - p.p8,
    "cc_to_8": lambda p: p.p8,
}


def builtin_model(name: str, params: ModelParams = DEFAULT_PARAMS) -> Model:
    """Look up a built-in model by its public (hyphenated) name."""
    if name not in BUILTIN_MODELS:
        raise KeyError(f"unknown builtin model {name!r}; expected one of {BUILTIN_MODELS}")
    p = params.validated()
    shipped = _shipped(name)
    bound = shipped.variable(_COUNTER).domain.hi

    def rebound(g):
        if isinstance(g, Comparison):
            return replace(g, value=p.k_max) if g.var == _COUNTER and g.value == bound else g
        if isinstance(g, Not):
            return Not(rebound(g.term))
        return type(g)(tuple(rebound(t) for t in g.terms))

    transitions = []
    for t in shipped.transitions:
        if t.name in _COEFFICIENTS:
            coeff = _COEFFICIENTS[t.name](p)
            if coeff == 0:  # a zero-rate branch is left out, not declared
                continue
            t = replace(t, kind=Timed(replace(t.kind.rate, coeff=coeff)))
        transitions.append(replace(t, guard=rebound(t.guard)))
    return replace(
        shipped,
        variables=tuple(
            replace(v, domain=IntDomain(v.domain.lo, p.k_max)) if v.name == _COUNTER else v
            for v in shipped.variables
        ),
        parameters={n: getattr(p, n) for n in shipped.parameters},
        transitions=tuple(transitions),
    )


accidental_model = functools.partial(builtin_model, "accidental")
