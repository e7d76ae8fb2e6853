"""Built-in interdependency models of the coupled infrastructures.

Four ready-made models over an electricity infrastructure and the
information infrastructure that monitors and controls it:

* ``accidental``       - accidental information-infrastructure failures with
                         coupling in both directions (cascading + escalating).
* ``cascading_only``   - same, restricted to the constraints the information
                         infrastructure puts on the electricity side.
* ``common_cause``     - the accidental model plus common-cause failures that
                         knock both infrastructures out at once.
* ``attack``           - malicious attacks, tracking the real status of each
                         infrastructure separately from the status apparent
                         to the operator.

All rates are per unit time and deliberately desk-scale defaults; override
any of them through :class:`ModelParams`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import InvalidParamError
from .model import (
    Comparison,
    EnumDomain,
    Immediate,
    IntDomain,
    Label,
    Model,
    Or,
    RateExpr,
    SetValue,
    Shift,
    Timed,
    Transition,
    VariableDecl,
    g_and,
    g_not,
    var_eq,
    var_in,
)

INFO_STATUSES = (
    "i_working",
    "passive_latent",
    "active_latent",
    "partial_i_outage",
    "i_weakened",
)
ELEC_STATUSES = ("e_working", "e_weakened", "partial_e_outage", "e_lost")
ATTACK_STATUSES = ("none", "passive_dec", "active_dec", "perceptible", "detected")
REAL_INFO_STATUSES = ("i_working", "partial_i_outage")


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


def builtin_model(name: str, params: ModelParams = DEFAULT_PARAMS) -> Model:
    """Look up a built-in model by its public (hyphenated) name."""
    try:
        ctor = _BUILTIN_CTORS[name]
    except KeyError:
        raise KeyError(f"unknown builtin model {name!r}; expected one of {BUILTIN_MODELS}")
    return ctor(params)


# ---------------------------------------------------------------------------
# Accidental-failure model


def _accidental_variables(p: ModelParams) -> tuple[VariableDecl, ...]:
    return (
        VariableDecl("info", EnumDomain(INFO_STATUSES), "i_working"),
        VariableDecl("elec", EnumDomain(ELEC_STATUSES), "e_working"),
        VariableDecl("n_cfg", IntDomain(0, p.k_max), 0),
    )


def _accidental_transitions(p: ModelParams) -> list[Transition]:
    k = p.k_max
    return [
        Transition(
            "masked_passive",
            Timed(RateExpr(1.0, "lambda_mp")),
            var_eq("info", "i_working"),
            (SetValue("info", "passive_latent"),),
            frozenset({"internal"}),
        ),
        Transition(
            "masked_active",
            Timed(RateExpr(1.0, "lambda_ma")),
            var_in("info", ("i_working", "passive_latent")),
            (SetValue("info", "active_latent"),),
            frozenset({"internal"}),
        ),
        Transition(
            "signalled",
            Timed(RateExpr(1.0, "lambda_s")),
            var_in("info", ("i_working", "passive_latent", "active_latent", "i_weakened")),
            (SetValue("info", "partial_i_outage"),),
            frozenset({"internal"}),
        ),
        Transition(
            "i_restoration",
            Timed(RateExpr(1.0, "mu_i")),
            var_eq("info", "partial_i_outage"),
            (SetValue("info", "i_working"),),
            frozenset({"restoration"}),
        ),
        Transition(
            "e_failure_normal",
            Timed(RateExpr(1.0, "lambda_e")),
            g_and(var_in("info", ("i_working", "i_weakened")), var_eq("elec", "e_working")),
            (SetValue("elec", "partial_e_outage"),),
            frozenset({"internal"}),
        ),
        # An e-failure while errors are latent goes unconfined: blackout.
        Transition(
            "e_failure_escal_sev",
            Timed(RateExpr(1.0, "lambda_e")),
            g_and(
                var_in("info", ("passive_latent", "active_latent")),
                var_eq("elec", "e_working"),
            ),
            (SetValue("elec", "e_lost"),),
            frozenset({"escalating"}),
        ),
        # An e-failure during a signalled i-outage degrades recovery instead.
        Transition(
            "e_failure_escal_rest",
            Timed(RateExpr(1.0, "lambda_e")),
            g_and(var_eq("info", "partial_i_outage"), var_eq("elec", "e_working")),
            (SetValue("elec", "partial_e_outage"),),
            frozenset({"escalating"}),
        ),
        Transition(
            "e_fail_accumulate",
            Timed(RateExpr(1.0, "lambda_e2")),
            var_eq("elec", "partial_e_outage"),
            (SetValue("elec", "e_lost"),),
            frozenset({"internal"}),
        ),
        Transition(
            "cfg_change_first",
            Timed(RateExpr(1.0, "lambda_c")),
            g_and(
                var_eq("info", "active_latent"),
                var_eq("elec", "e_working"),
                Comparison("n_cfg", "<", k),
            ),
            (SetValue("elec", "e_weakened"), Shift("n_cfg", 1)),
            frozenset({"cascading"}),
        ),
        Transition(
            "cfg_change_more",
            Timed(RateExpr(1.0, "lambda_c")),
            g_and(
                var_eq("info", "active_latent"),
                var_eq("elec", "e_weakened"),
                Comparison("n_cfg", "<", k),
            ),
            (Shift("n_cfg", 1),),
            frozenset({"cascading"}),
        ),
        Transition(
            "cfg_overflow",
            Timed(RateExpr(1.0, "lambda_c")),
            g_and(
                var_eq("info", "active_latent"),
                var_eq("elec", "e_weakened"),
                Comparison("n_cfg", "==", k),
            ),
            (SetValue("elec", "e_lost"),),
            frozenset({"cascading"}),
        ),
        Transition(
            "outage_constraint",
            Timed(RateExpr(1.0, "lambda_k")),
            g_and(var_eq("info", "partial_i_outage"), var_eq("elec", "e_working")),
            (SetValue("elec", "e_weakened"),),
            frozenset({"cascading"}),
        ),
        Transition(
            "cfg_restoration",
            Timed(RateExpr(1.0, "mu_c")),
            g_and(var_eq("info", "i_working"), var_eq("elec", "e_weakened")),
            (SetValue("elec", "e_working"), SetValue("n_cfg", 0)),
            frozenset({"restoration"}),
        ),
        Transition(
            "e_restoration_fast",
            Timed(RateExpr(1.0, "mu_e")),
            g_and(
                var_eq("info", "i_working"),
                var_in("elec", ("partial_e_outage", "e_lost")),
            ),
            (SetValue("elec", "e_working"),),
            frozenset({"restoration"}),
        ),
        Transition(
            "e_restoration_slow",
            Timed(RateExpr(p.rho, "mu_e")),
            g_and(
                var_in("info", ("passive_latent", "active_latent", "partial_i_outage")),
                var_in("elec", ("partial_e_outage", "e_lost")),
            ),
            (SetValue("elec", "e_working"),),
            frozenset({"restoration", "escalating"}),
        ),
        # Loss of power constrains the information infrastructure; the
        # constraint is not a failure, so it binds and lifts instantly.
        Transition(
            "i_weaken",
            Immediate(1, 1.0),
            g_and(
                var_eq("info", "i_working"),
                var_in("elec", ("partial_e_outage", "e_lost")),
            ),
            (SetValue("info", "i_weakened"),),
            frozenset({"cascading"}),
        ),
        Transition(
            "i_unweaken",
            Immediate(1, 1.0),
            g_and(
                var_eq("info", "i_weakened"),
                var_in("elec", ("e_working", "e_weakened")),
            ),
            (SetValue("info", "i_working"),),
            frozenset({"internal"}),
        ),
    ]


def _numbered_labels_accidental() -> tuple[Label, ...]:
    return (
        Label("state1", g_and(var_eq("info", "i_working"), var_eq("elec", "e_working"))),
        Label(
            "state2",
            g_and(
                var_in("info", ("passive_latent", "active_latent")),
                var_eq("elec", "e_working"),
            ),
        ),
        Label("state3", g_and(var_eq("info", "active_latent"), var_eq("elec", "e_weakened"))),
        Label(
            "state4", g_and(var_eq("info", "partial_i_outage"), var_eq("elec", "e_weakened"))
        ),
        Label(
            "state5", g_and(var_eq("info", "i_weakened"), var_eq("elec", "partial_e_outage"))
        ),
        Label(
            "state6",
            g_and(var_eq("info", "partial_i_outage"), var_eq("elec", "partial_e_outage")),
        ),
        Label("state7", g_and(var_eq("info", "i_weakened"), var_eq("elec", "e_lost"))),
        Label("state8", g_and(var_eq("info", "partial_i_outage"), var_eq("elec", "e_lost"))),
    )


def _accidental_parameters(p: ModelParams) -> dict[str, float]:
    return {
        "lambda_mp": p.lambda_mp,
        "lambda_ma": p.lambda_ma,
        "lambda_s": p.lambda_s,
        "lambda_e": p.lambda_e,
        "lambda_e2": p.lambda_e2,
        "lambda_c": p.lambda_c,
        "lambda_k": p.lambda_k,
        "mu_i": p.mu_i,
        "mu_e": p.mu_e,
        "mu_c": p.mu_c,
    }


def accidental_model(params: ModelParams = DEFAULT_PARAMS) -> Model:
    """Two-way coupled model under accidental failures."""
    p = params.validated()
    return Model(
        name="accidental",
        variables=_accidental_variables(p),
        parameters=_accidental_parameters(p),
        transitions=tuple(_accidental_transitions(p)),
        labels=_numbered_labels_accidental(),
    )


# ---------------------------------------------------------------------------
# Cascading-only model


def cascading_only_model(params: ModelParams = DEFAULT_PARAMS) -> Model:
    """One-way coupling: info-infrastructure constraints on the grid only.

    Compared to the accidental model: the weakening feedback (immediate
    transitions) is absent, so plain e-failures and signalled i-failures
    keep their one-way guards, and the numbered states that involved
    i-weakening are renumbered onto the working status.
    """
    p = params.validated()
    transitions = []
    for t in _accidental_transitions(p):
        if t.name in ("i_weaken", "i_unweaken"):
            continue
        if t.name == "e_failure_normal":
            t = replace(
                t, guard=g_and(var_eq("info", "i_working"), var_eq("elec", "e_working"))
            )
        elif t.name == "signalled":
            t = replace(
                t,
                guard=var_in("info", ("i_working", "passive_latent", "active_latent")),
            )
        transitions.append(t)

    labels = list(_numbered_labels_accidental())
    labels[4] = Label(
        "state5", g_and(var_eq("info", "i_working"), var_eq("elec", "partial_e_outage"))
    )
    labels[6] = Label(
        "state7",
        g_and(
            var_in("info", ("i_working", "passive_latent", "active_latent")),
            var_eq("elec", "e_lost"),
        ),
    )
    return Model(
        name="cascading_only",
        variables=_accidental_variables(p),
        parameters=_accidental_parameters(p),
        transitions=tuple(transitions),
        labels=tuple(labels),
    )


# ---------------------------------------------------------------------------
# Common-cause model


def common_cause_model(params: ModelParams = DEFAULT_PARAMS) -> Model:
    """Accidental model plus common-cause failures.

    One cause downs both infrastructures at once, landing in the
    escalation states (partial outage of both, or blackout with i-outage).
    From states already there the transitions are disabled; no new states
    arise.  ``p8`` in {0, 1} drops the zero-rate branch instead of
    declaring a zero rate.
    """
    p = params.validated()
    base = accidental_model(p)
    in_state6 = g_and(
        var_eq("info", "partial_i_outage"), var_eq("elec", "partial_e_outage")
    )
    in_state8 = g_and(var_eq("info", "partial_i_outage"), var_eq("elec", "e_lost"))
    outside = g_and(g_not(in_state6), g_not(in_state8))

    extra = []
    if p.p8 < 1:
        extra.append(
            Transition(
                "cc_to_6",
                Timed(RateExpr(1.0 - p.p8, "lambda_cc")),
                outside,
                (SetValue("info", "partial_i_outage"), SetValue("elec", "partial_e_outage")),
                frozenset({"common_cause"}),
            )
        )
    if p.p8 > 0:
        extra.append(
            Transition(
                "cc_to_8",
                Timed(RateExpr(p.p8, "lambda_cc")),
                outside,
                (SetValue("info", "partial_i_outage"), SetValue("elec", "e_lost")),
                frozenset({"common_cause"}),
            )
        )

    parameters = dict(base.parameters)
    parameters["lambda_cc"] = p.lambda_cc
    return Model(
        name="common_cause",
        variables=base.variables,
        parameters=parameters,
        transitions=base.transitions + tuple(extra),
        labels=base.labels,
    )


# ---------------------------------------------------------------------------
# Attack model


def _apparent_differs() -> Or:
    """Apparent status diverges from the real one in some component."""
    terms = []
    for v in REAL_INFO_STATUSES:
        terms.append(g_and(var_eq("app_info", v), Comparison("real_info", "!=", v)))
    for v in ELEC_STATUSES:
        terms.append(g_and(var_eq("app_elec", v), Comparison("real_elec", "!=", v)))
    return Or(tuple(terms))


def attack_model(params: ModelParams = DEFAULT_PARAMS) -> Model:
    """Malicious attacks with real vs. apparent infrastructure status.

    Deceptive attacks (passive or active) freeze what the operator sees:
    the apparent electricity status stops mirroring reality until the
    attack is detected, at which point the apparent statuses snap back to
    the real ones.  Perceptible attacks are visible immediately.
    """
    p = params.validated()
    k = p.k_max
    deceived = var_in("attack", ("passive_dec", "active_dec"))
    visible = var_in("attack", ("none", "perceptible", "detected"))

    variables = (
        VariableDecl("attack", EnumDomain(ATTACK_STATUSES), "none"),
        VariableDecl("real_info", EnumDomain(REAL_INFO_STATUSES), "i_working"),
        VariableDecl("real_elec", EnumDomain(ELEC_STATUSES), "e_working"),
        VariableDecl("app_info", EnumDomain(REAL_INFO_STATUSES), "i_working"),
        VariableDecl("app_elec", EnumDomain(ELEC_STATUSES), "e_working"),
        VariableDecl("n_cfg", IntDomain(0, k), 0),
    )

    transitions = [
        # Passive deception: the operator is fed a phantom partial e-outage.
        Transition(
            "passive_attack",
            Timed(RateExpr(1.0, "lambda_ap")),
            var_eq("attack", "none"),
            (
                SetValue("attack", "passive_dec"),
                SetValue("real_info", "partial_i_outage"),
                SetValue("app_elec", "partial_e_outage"),
            ),
            frozenset({"attack"}),
        ),
        # ... so the operator "fixes" a healthy grid, weakening it.
        Transition(
            "operator_cfg",
            Timed(RateExpr(1.0, "lambda_oc")),
            g_and(
                var_eq("attack", "passive_dec"),
                var_in("real_elec", ("e_working", "e_weakened")),
                Comparison("n_cfg", "<", k),
            ),
            (
                SetValue("real_elec", "e_weakened"),
                SetValue("app_elec", "e_weakened"),
                Shift("n_cfg", 1),
            ),
            frozenset({"attack", "cascading"}),
        ),
        Transition(
            "operator_overflow",
            Timed(RateExpr(1.0, "lambda_oc")),
            g_and(
                var_eq("attack", "passive_dec"),
                var_eq("real_elec", "e_weakened"),
                Comparison("n_cfg", "==", k),
            ),
            (SetValue("real_elec", "e_lost"), SetValue("app_elec", "partial_e_outage")),
            frozenset({"attack", "cascading"}),
        ),
        # Active deception: the compromised system acts on the grid itself
        # while everything keeps looking normal.
        Transition(
            "active_attack",
            Timed(RateExpr(1.0, "lambda_aa")),
            var_eq("attack", "none"),
            (SetValue("attack", "active_dec"), SetValue("real_info", "partial_i_outage")),
            frozenset({"attack"}),
        ),
        Transition(
            "ii_cfg",
            Timed(RateExpr(1.0, "lambda_ic")),
            g_and(
                var_eq("attack", "active_dec"),
                var_in("real_elec", ("e_working", "e_weakened")),
                Comparison("n_cfg", "<", k),
            ),
            (SetValue("real_elec", "e_weakened"), Shift("n_cfg", 1)),
            frozenset({"attack", "cascading"}),
        ),
        Transition(
            "ii_overflow",
            Timed(RateExpr(1.0, "lambda_ic")),
            g_and(
                var_eq("attack", "active_dec"),
                var_eq("real_elec", "e_weakened"),
                Comparison("n_cfg", "==", k),
            ),
            (SetValue("real_elec", "e_lost"), SetValue("app_elec", "partial_e_outage")),
            frozenset({"attack", "cascading"}),
        ),
    ]

    # Detection re-synchronizes the apparent statuses with the real ones.
    # One transition per electricity status, since updates assign literals.
    for ev in ELEC_STATUSES:
        transitions.append(
            Transition(
                f"detection_{ev}",
                Timed(RateExpr(1.0, "lambda_d")),
                g_and(deceived, var_eq("real_elec", ev)),
                (
                    SetValue("attack", "detected"),
                    SetValue("app_info", "partial_i_outage"),
                    SetValue("app_elec", ev),
                ),
                frozenset({"attack"}),
            )
        )

    transitions += [
        Transition(
            "perceptible_attack",
            Timed(RateExpr(1.0, "lambda_pa")),
            var_eq("attack", "none"),
            (
                SetValue("attack", "perceptible"),
                SetValue("real_info", "partial_i_outage"),
                SetValue("app_info", "partial_i_outage"),
            ),
            frozenset({"attack"}),
        ),
        Transition(
            "e_failure",
            Timed(RateExpr(1.0, "lambda_e")),
            g_and(var_eq("real_elec", "e_working"), visible),
            (SetValue("real_elec", "partial_e_outage"), SetValue("app_elec", "partial_e_outage")),
            frozenset({"internal"}),
        ),
        # Under deception the monitoring channel is corrupted: the failure
        # happens but the apparent status stays frozen.
        Transition(
            "e_failure_masked",
            Timed(RateExpr(1.0, "lambda_e")),
            g_and(var_eq("real_elec", "e_working"), deceived),
            (SetValue("real_elec", "partial_e_outage"),),
            frozenset({"internal"}),
        ),
        Transition(
            "e_fail_accumulate",
            Timed(RateExpr(1.0, "lambda_e2")),
            g_and(var_eq("real_elec", "partial_e_outage"), visible),
            (SetValue("real_elec", "e_lost"), SetValue("app_elec", "e_lost")),
            frozenset({"internal"}),
        ),
        Transition(
            "e_fail_accumulate_masked",
            Timed(RateExpr(1.0, "lambda_e2")),
            g_and(var_eq("real_elec", "partial_e_outage"), deceived),
            (SetValue("real_elec", "e_lost"),),
            frozenset({"internal"}),
        ),
        Transition(
            "i_restoration",
            Timed(RateExpr(1.0, "mu_i")),
            g_and(
                var_in("attack", ("detected", "perceptible")),
                var_eq("real_info", "partial_i_outage"),
            ),
            (
                SetValue("attack", "none"),
                SetValue("real_info", "i_working"),
                SetValue("app_info", "i_working"),
            ),
            frozenset({"restoration"}),
        ),
        Transition(
            "cfg_restoration",
            Timed(RateExpr(1.0, "mu_c")),
            g_and(
                var_eq("attack", "none"),
                var_eq("real_info", "i_working"),
                var_eq("real_elec", "e_weakened"),
            ),
            (
                SetValue("real_elec", "e_working"),
                SetValue("app_elec", "e_working"),
                SetValue("n_cfg", 0),
            ),
            frozenset({"restoration"}),
        ),
        Transition(
            "e_restoration_fast",
            Timed(RateExpr(1.0, "mu_e")),
            g_and(
                var_eq("real_info", "i_working"),
                var_in("real_elec", ("partial_e_outage", "e_lost")),
                visible,
            ),
            (SetValue("real_elec", "e_working"), SetValue("app_elec", "e_working")),
            frozenset({"restoration"}),
        ),
        Transition(
            "e_restoration_slow",
            Timed(RateExpr(p.rho, "mu_e")),
            g_and(
                var_eq("real_info", "partial_i_outage"),
                var_in("real_elec", ("partial_e_outage", "e_lost")),
                visible,
            ),
            (SetValue("real_elec", "e_working"), SetValue("app_elec", "e_working")),
            frozenset({"restoration", "escalating"}),
        ),
    ]

    labels = (
        Label(
            "state1",
            g_and(
                var_eq("attack", "none"),
                var_eq("real_info", "i_working"),
                var_eq("real_elec", "e_working"),
                var_eq("app_info", "i_working"),
                var_eq("app_elec", "e_working"),
            ),
        ),
        Label("state2", var_eq("attack", "passive_dec")),
        Label("state3", var_eq("attack", "active_dec")),
        Label("state4", var_eq("attack", "detected")),
        Label(
            "state8",
            g_and(
                var_eq("real_elec", "e_lost"),
                var_eq("app_elec", "partial_e_outage"),
                var_in("attack", ("passive_dec", "active_dec")),
            ),
        ),
        Label("deceived", _apparent_differs()),
    )

    parameters = {
        "lambda_ap": p.lambda_ap,
        "lambda_aa": p.lambda_aa,
        "lambda_pa": p.lambda_pa,
        "lambda_oc": p.lambda_oc,
        "lambda_ic": p.lambda_ic,
        "lambda_d": p.lambda_d,
        "lambda_e": p.lambda_e,
        "lambda_e2": p.lambda_e2,
        "mu_i": p.mu_i,
        "mu_c": p.mu_c,
        "mu_e": p.mu_e,
    }
    return Model(
        name="attack",
        variables=variables,
        parameters=parameters,
        transitions=tuple(transitions),
        labels=labels,
    )


_BUILTIN_CTORS = {
    "accidental": accidental_model,
    "cascading-only": cascading_only_model,
    "common-cause": common_cause_model,
    "attack": attack_model,
}
