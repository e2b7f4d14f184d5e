"""Stroke ledgers for Otto machines powered by non-thermal baths.

Cycle conventions. The four strokes are: (1) isentropic compression
omega1 -> omega2, (2) isochoric contact with the "hot" bath, (3) isentropic
expansion omega2 -> omega1, (4) isochoric contact with the cold bath at T1.
Work extracted by the piston is negative; energy entering the working fluid
is positive. With n1/n2 the thermal occupations at (omega1, T1)/(omega2, T2)
and delta_n the bath-induced excess, the endpoint energies give

    W1 = (omega2 - omega1) (n1 + 1/2)
    E2 = omega2 (n2 + delta_n - n1) = W2 + Q2,  W2 = omega2 delta_n
    W3 = (omega1 - omega2) (n2 + delta_n + 1/2)
    E4 = omega1 (n1 - n2 - delta_n) = W4 + Q4,  W4 = -omega1 delta_n

for the standard first-kind cycle. A first-kind bath (squeezed or displaced
thermal) delivers both heat Q2 and work W2; the efficiency of the engine
regime is always 1 - omega1/omega2, but its bound 1 - T1/Theta involves the
fictitious excitation parameter Theta rather than a temperature, so it is
not a thermodynamic (second-law) bound.

The modified cycle undoes the bath's unitary before expanding, harvesting
the stored ergotropy: W3' = (omega1 - omega2)(n2 + 1/2) - omega2 delta_n.
When n2 < n1 the machine runs as engine and refrigerator at once (efficiency
exactly 1, COP = omega1/(omega2 - omega1)).

Second-kind baths thermalise the working fluid; every stroke-2/4 exchange is
heat, and the Carnot bound at the real temperature T_real applies.

A degenerate cycle (E2 = 0) is not an error: the ledger is returned with the
efficiency marked undefined and the reason recorded.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Union

from .errors import InvalidExcess, NotApplicable
from .gaussian import GaussianModeState, delta_n
from .thermo import (
    invert_occupation,
    occupation,
    thermal_entropy,
)

# Relative tolerance for boundary ties (engine side wins at zero net work).
_TIE_TOL = 1e-12


@dataclass(frozen=True)
class ThermalBath:
    """Plain thermal bath at the cycle's T2."""


@dataclass(frozen=True)
class SqueezedThermalBath:
    """Squeezed thermal bath; drives the working fluid to a squeezed thermal state."""

    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"squeezing amplitude must be non-negative, got {self.r!r}")


@dataclass(frozen=True)
class DisplacedThermalBath:
    """Coherently displaced thermal bath; working fluid ends displaced thermal."""

    alpha: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError(f"displacement must be finite, got {self.alpha!r}")


@dataclass(frozen=True)
class SqueezedDisplacedBath:
    """Squeeze plus displacement, in that order."""

    r: float
    alpha: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", complex(self.alpha))
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"squeezing amplitude must be non-negative, got {self.r!r}")
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError(f"displacement must be finite, got {self.alpha!r}")


@dataclass(frozen=True)
class SecondKindBath:
    """Gibbs-preserving non-thermal bath, parameterised by excess occupation.

    Exactly one of `excess` (the shift delta_n of the working fluid's
    occupation, possibly negative) or `t_real` (the real temperature the
    working fluid thermalises to) must be given; t_real is normalised to an
    excess once the cycle's omega2 and T2 are known.
    """

    excess: float | None = None
    t_real: float | None = None

    def __post_init__(self) -> None:
        if (self.excess is None) == (self.t_real is None):
            raise ValueError("give exactly one of excess or t_real")
        if self.excess is not None and not math.isfinite(float(self.excess)):
            raise ValueError(f"excess must be finite, got {self.excess!r}")
        if self.t_real is not None and (
            not math.isfinite(float(self.t_real)) or float(self.t_real) < 0.0
        ):
            raise ValueError(f"t_real must be a non-negative number, got {self.t_real!r}")

    def excess_for(self, omega2: float, t2: float) -> float:
        if self.excess is not None:
            return float(self.excess)
        return occupation(omega2, float(self.t_real)) - occupation(omega2, t2)


BathSpec = Union[
    ThermalBath,
    SqueezedThermalBath,
    DisplacedThermalBath,
    SqueezedDisplacedBath,
    SecondKindBath,
]


def bath_wf_state(bath: BathSpec, n2: float) -> GaussianModeState:
    """Working-fluid state after stroke 2 for a first-kind bath."""
    if isinstance(bath, ThermalBath):
        return GaussianModeState(n_th=n2)
    if isinstance(bath, SqueezedThermalBath):
        return GaussianModeState(n_th=n2, r=bath.r)
    if isinstance(bath, DisplacedThermalBath):
        return GaussianModeState(n_th=n2, alpha=bath.alpha)
    if isinstance(bath, SqueezedDisplacedBath):
        return GaussianModeState(n_th=n2, r=bath.r, alpha=bath.alpha)
    raise NotApplicable(f"{type(bath).__name__} does not produce a Gaussian WF state")


@dataclass(frozen=True)
class CycleConfig:
    """The four Otto-cycle parameters plus the hot-bath description.

    Natural units hbar = k_B = 1; invariants omega1 <= omega2 and T1 <= T2.
    """

    omega1: float
    omega2: float
    t1: float
    t2: float
    bath: BathSpec

    def __post_init__(self) -> None:
        for name in ("omega1", "omega2", "t1", "t2"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (math.isfinite(self.omega1) and self.omega1 > 0.0):
            raise ValueError(f"omega1 must be positive, got {self.omega1!r}")
        if not (math.isfinite(self.omega2) and self.omega2 > 0.0):
            raise ValueError(f"omega2 must be positive, got {self.omega2!r}")
        if self.omega1 > self.omega2:
            raise ValueError("omega1 must not exceed omega2 (compression stroke)")
        if not (math.isfinite(self.t1) and self.t1 >= 0.0):
            raise ValueError(f"t1 must be non-negative, got {self.t1!r}")
        if not (math.isfinite(self.t2) and self.t2 >= 0.0):
            raise ValueError(f"t2 must be non-negative, got {self.t2!r}")
        if self.t1 > self.t2:
            raise ValueError("t1 must not exceed t2 (cold bath is the colder one)")

    @property
    def frequency_ratio(self) -> float:
        return self.omega1 / self.omega2


class CycleKind(enum.Enum):
    STANDARD = "standard"
    MODIFIED = "modified"
    SECOND_KIND = "second-kind"


# The bath kinds each cycle accepts. First-kind baths (thermal, squeezed,
# displaced) drive the standard cycle; the modified cycle also needs the
# working fluid left non-passive, which a thermal bath never does.
APPLICABLE_BATHS = {
    CycleKind.STANDARD: (
        ThermalBath, SqueezedThermalBath, DisplacedThermalBath, SqueezedDisplacedBath
    ),
    CycleKind.MODIFIED: (SqueezedThermalBath, DisplacedThermalBath, SqueezedDisplacedBath),
    CycleKind.SECOND_KIND: (SecondKindBath,),
}


def check_applicable(kind: CycleKind, bath: BathSpec) -> None:
    """Raise NotApplicable unless the `kind` cycle accepts this bath kind."""
    if not isinstance(bath, APPLICABLE_BATHS[kind]):
        raise NotApplicable(f"the {kind.value} cycle does not apply to a {type(bath).__name__}")


class RegimeTag(enum.Enum):
    NOT_ENGINE = "NotEngine"
    SUB_CARNOT_HYBRID_ENGINE = "SubCarnotHybridEngine"
    SUPER_CARNOT_ENGINE_HEAT_PUMP = "SuperCarnotEngineHeatPump"
    SUPER_CARNOT_ENGINE_REFRIGERATOR = "SuperCarnotEngineRefrigerator"
    DUAL_ENGINE_REFRIGERATOR = "DualEngineRefrigerator"
    GENUINE_HEAT_ENGINE = "GenuineHeatEngine"


@dataclass(frozen=True)
class StrokeLedger:
    """Per-stroke energy bookkeeping of one cycle evaluation.

    w3 is always the stroke-3 work as executed; in the modified cycle it
    equals w3_prime and splits into a thermal part w3_th and the ergotropy
    release w3_nonpas = -w2. e2 = w2 + q2 and e4 = w4 + q4 hold exactly by
    construction. eta is None outside the engine regime (eta_reason says
    why); cop and w_inv appear only when the cold bath is refrigerated.
    """

    kind: CycleKind
    w1: float
    w2: float
    w3: float
    w4: float
    q2: float
    q4: float
    e2: float
    e4: float
    eta: float | None
    cop: float | None
    regime: RegimeTag
    w3_prime: float | None = None
    w3_th: float | None = None
    w3_nonpas: float | None = None
    w_inv: float | None = None
    eta_reason: str | None = None
    note: str | None = None

    @property
    def energies(self) -> tuple[float, ...]:
        return (self.w1, self.w2, self.w3, self.w4, self.q2, self.q4, self.e2, self.e4)

    @property
    def energy_scale(self) -> float:
        return max(abs(x) for x in self.energies)

    @property
    def net_work(self) -> float:
        """Piston work over the whole cycle (negative when work is extracted)."""
        return self.w1 + self.w3

    @property
    def first_law_sum(self) -> float:
        return self.w1 + self.w2 + self.w3 + self.w4 + self.q2 + self.q4


def _occupations(config: CycleConfig) -> tuple[float, float]:
    return (
        occupation(config.omega1, config.t1),
        occupation(config.omega2, config.t2),
    )


def standard_cycle(config: CycleConfig) -> StrokeLedger:
    """Evaluate the standard four-stroke cycle with a first-kind bath.

    The engine condition is n1 <= n2 + delta_n; in the engine regime the
    efficiency is -(W1+W3)/E2 = 1 - omega1/omega2 regardless of delta_n.
    """
    check_applicable(CycleKind.STANDARD, config.bath)
    n1, n2 = _occupations(config)
    dn = delta_n(bath_wf_state(config.bath, n2))
    return _first_kind_ledger(config, n1, n2, dn, modified=False)


def modified_cycle(config: CycleConfig) -> StrokeLedger:
    """Evaluate the cycle with the bath's unitary undone before expansion.

    Requires a non-passive first-kind bath (delta_n > 0). With delta_n = 0
    there is nothing to undo; the standard ledger is returned, flagged in
    `note`. The undo is treated as exact and cost-free.
    """
    check_applicable(CycleKind.MODIFIED, config.bath)
    n1, n2 = _occupations(config)
    dn = delta_n(bath_wf_state(config.bath, n2))
    if dn == 0.0:
        ledger = _first_kind_ledger(config, n1, n2, dn, modified=False)
        return replace(ledger, note="delta_n = 0: nothing to undo, standard-cycle ledger")
    return _first_kind_ledger(config, n1, n2, dn, modified=True)


def _first_kind_ledger(
    config: CycleConfig, n1: float, n2: float, dn: float, modified: bool
) -> StrokeLedger:
    o1, o2 = config.omega1, config.omega2
    w1 = (o2 - o1) * (n1 + 0.5)
    q2 = o2 * (n2 - n1)
    w2 = o2 * dn
    e2 = w2 + q2
    q4 = o1 * (n1 - n2)

    # Factored net work avoids the catastrophic cancellation of w1 + w3 near
    # the engine boundary; `excess` is the engine margin n2 + dn - n1.
    excess = (n2 - n1) + dn

    if not modified:
        w3 = (o1 - o2) * (n2 + dn + 0.5)
        w4 = -o1 * dn
        e4 = w4 + q4
        net = -(o2 - o1) * excess
        scale = max(abs(x) for x in (w1, w2, w3, w4, q2, q4, e2, e4))
        tol = _TIE_TOL * scale
        eta, reason = _engine_efficiency(net, e2, tol)
        regime = _classify_first_kind(net, q2, e4, tol)
        return StrokeLedger(
            kind=CycleKind.STANDARD,
            w1=w1, w2=w2, w3=w3, w4=w4, q2=q2, q4=q4, e2=e2, e4=e4,
            eta=eta, cop=None, regime=regime, eta_reason=reason,
        )

    w3_th = (o1 - o2) * (n2 + 0.5)
    w3_nonpas = -w2
    w3p = w3_th + w3_nonpas
    w4 = 0.0
    e4 = w4 + q4
    scale = max(abs(x) for x in (w1, w2, w3p, w4, q2, q4, e2, e4))
    tol = _TIE_TOL * scale
    common = dict(
        kind=CycleKind.MODIFIED,
        w1=w1, w2=w2, w3=w3p, w4=w4, q2=q2, q4=q4, e2=e2, e4=e4,
        w3_prime=w3p, w3_th=w3_th, w3_nonpas=w3_nonpas,
    )

    net = (o2 - o1) * (n1 - n2) - o2 * dn
    regime = _classify_modified(net, n1, n2, tol)
    if regime is RegimeTag.SUB_CARNOT_HYBRID_ENGINE:
        # engine only; heat is still dumped into the cold bath (q4 <= 0)
        eta = 1.0 - (o1 * (n2 - n1)) / (o2 * excess)
        return StrokeLedger(**common, eta=eta, cop=None, regime=regime)

    # n2 < n1: the cycle refrigerates the cold bath (q4 > 0). It is a dual
    # engine/refrigerator only if the piston still extracts net work.
    w_inv = w1 + w2 + w3p
    cop = o1 / (o2 - o1)  # n2 < n1 forces o1 < o2 under t1 <= t2
    if regime is RegimeTag.DUAL_ENGINE_REFRIGERATOR:
        return StrokeLedger(**common, eta=1.0, cop=cop, w_inv=w_inv, regime=regime)
    return StrokeLedger(
        **common, eta=None, cop=cop, w_inv=w_inv, regime=regime,
        eta_reason="refrigerates but consumes piston work (W1 + W3' > 0)",
    )


def second_kind_cycle(config: CycleConfig) -> StrokeLedger:
    """Evaluate the cycle for a bath that thermalises the working fluid.

    All stroke-2/4 energy is heat (W2 = W4 = 0) and the engine efficiency
    1 - omega1/omega2 obeys the Carnot bound at the real temperature
    T_real = invert_occupation(omega2, n2 + delta_n).
    """
    check_applicable(CycleKind.SECOND_KIND, config.bath)
    n1, n2 = _occupations(config)
    dn = config.bath.excess_for(config.omega2, config.t2)
    nc = n2 + dn
    if nc < 0.0:
        raise InvalidExcess(
            f"excess {dn!r} would drive the working fluid to occupation {nc!r} < 0"
        )
    o1, o2 = config.omega1, config.omega2
    w1 = (o2 - o1) * (n1 + 0.5)
    w3 = (o1 - o2) * (nc + 0.5)
    excess = (n2 - n1) + dn
    q2 = o2 * excess
    q4 = -o1 * excess
    e2, e4 = q2, q4
    scale = max(abs(x) for x in (w1, w3, q2, q4))
    tol = _TIE_TOL * scale
    net = -(o2 - o1) * excess
    eta, reason = _engine_efficiency(net, e2, tol)
    return StrokeLedger(
        kind=CycleKind.SECOND_KIND,
        w1=w1, w2=0.0, w3=w3, w4=0.0, q2=q2, q4=q4, e2=e2, e4=e4,
        eta=eta, cop=None, regime=_classify_second_kind(net, tol), eta_reason=reason,
    )


# The one cycle dispatch table: each cycle kind to its evaluator.
CYCLE_EVALUATORS = {
    CycleKind.STANDARD: standard_cycle,
    CycleKind.MODIFIED: modified_cycle,
    CycleKind.SECOND_KIND: second_kind_cycle,
}


def _engine_efficiency(net: float, e2: float, tol: float) -> tuple[float | None, str | None]:
    """-(net work)/E2 in the engine regime, None with a reason otherwise."""
    if net > tol:
        return None, "not an engine: the piston absorbs net work"
    if e2 <= tol:
        return None, "degenerate cycle: no energy input in stroke 2 (E2 = 0)"
    return -net / e2, None


# One regime rule per cycle kind, shared by the evaluators and classify_regime.
# `net` is the cycle's piston work; ties within `tol` go to the engine side.
def _classify_first_kind(net: float, q2: float, e4: float, tol: float) -> RegimeTag:
    if net > tol:
        return RegimeTag.NOT_ENGINE
    if q2 >= -tol:
        return RegimeTag.SUB_CARNOT_HYBRID_ENGINE
    if e4 > tol:
        return RegimeTag.SUPER_CARNOT_ENGINE_REFRIGERATOR
    return RegimeTag.SUPER_CARNOT_ENGINE_HEAT_PUMP


def _classify_modified(net: float, n1: float, n2: float, tol: float) -> RegimeTag:
    if n2 >= n1:
        return RegimeTag.SUB_CARNOT_HYBRID_ENGINE
    return RegimeTag.DUAL_ENGINE_REFRIGERATOR if net <= tol else RegimeTag.NOT_ENGINE


def _classify_second_kind(net: float, tol: float) -> RegimeTag:
    return RegimeTag.GENUINE_HEAT_ENGINE if net <= tol else RegimeTag.NOT_ENGINE


def classify_regime(config: CycleConfig, ledger: StrokeLedger) -> RegimeTag:
    """Re-derive the operating-regime tag of a computed ledger.

    Boundary ties (zero net work, vanishing Q2, n1 = n2) resolve to the
    engine side within a 1e-12 * (energy scale) tolerance, matching the tags
    the cycle evaluators assign.
    """
    tol = _TIE_TOL * ledger.energy_scale
    if ledger.kind is CycleKind.SECOND_KIND:
        return _classify_second_kind(ledger.net_work, tol)
    if ledger.kind is CycleKind.MODIFIED:
        return _classify_modified(ledger.net_work, *_occupations(config), tol)
    return _classify_first_kind(ledger.net_work, ledger.q2, ledger.e4, tol)


@dataclass(frozen=True)
class LawReport:
    """First- and second-law audit of a single ledger.

    The first-law residual is |sum of all stroke energies| relative to the
    largest stroke energy. The Clausius sum uses the hot temperature relevant
    to the cycle (T2 for first-kind baths, T_real for second-kind) and is
    skipped, with a reason, at zero temperature. The entropy check compares
    the working fluid's passive entropy change over stroke 2 against Q2/T_hot.
    """

    first_law_residual: float
    clausius_sum: float | None
    clausius_skipped: str | None
    entropy_change: float | None
    entropy_bound: float | None
    hot_temperature: float | None

    @property
    def clausius_ok(self) -> bool:
        return self.clausius_sum is None or self.clausius_sum <= 1e-12

    @property
    def entropy_ok(self) -> bool:
        if self.entropy_change is None or self.entropy_bound is None:
            return True
        return self.entropy_change >= self.entropy_bound - 1e-12


def audit_laws(ledger: StrokeLedger, config: CycleConfig) -> LawReport:
    """Check energy conservation and the equilibrium second law on a ledger.

    Never raises; zero-temperature cycles get the Clausius and entropy checks
    flagged as skipped while the first law is still verified.
    """
    scale = ledger.energy_scale
    residual = abs(ledger.first_law_sum) / scale if scale > 0.0 else 0.0

    n1, n2 = _occupations(config)
    if ledger.kind is CycleKind.SECOND_KIND:
        dn = config.bath.excess_for(config.omega2, config.t2)
        hot = invert_occupation(config.omega2, n2 + dn)
        passive_c = n2 + dn
    else:
        hot = config.t2
        passive_c = n2

    clausius = None
    skipped = None
    if config.t1 == 0.0 or hot == 0.0:
        skipped = "skipped: zero temperature"
    else:
        clausius = ledger.q2 / hot + ledger.q4 / config.t1

    entropy_change = thermal_entropy(passive_c) - thermal_entropy(n1)
    entropy_bound = ledger.q2 / hot if hot > 0.0 else None

    return LawReport(
        first_law_residual=residual,
        clausius_sum=clausius,
        clausius_skipped=skipped,
        entropy_change=entropy_change,
        entropy_bound=entropy_bound,
        hot_temperature=hot,
    )
