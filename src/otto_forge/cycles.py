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
efficiency marked undefined and the reason recorded. A ledger entry beyond
the double range is an OverflowError.

Every evaluation runs through one column kernel, `ledger_columns`: given
arrays of omega1, omega2, T1, T2 and delta_n it returns every ledger column,
with the regime and efficiency rules applied as masks. The scalar
evaluators, sweeps and audits all call it; a scalar evaluation is a size-1
call. Its transcendentals come from the column forms of the thermo and
gaussian functions (`occupation_column`, `invert_occupation_column`,
`excess_excitation_column`): each is one call of `rowwise`, the one way a
scalar function runs over rows, with a fast path. Columns that hold one
value (one row, or broadcasts) make one scalar call. Otherwise the fast path
maps every libm function the scalar code calls (expm1, exp, log1p, sinh, pow
for ** 2, abs of a complex) over the column, one Python call per element,
through `libm_column`, because numpy's vectorised loops differ from libm by
an ulp or two on some inputs, which the cancellation in
Q2 = omega2 (n2 - n1) amplifies. Only + - * /, comparisons, abs, max and
where run as numpy ufuncs, in the scalar code's order, and round as it does.
The rows whose scalar call raises (a failed check, or a division by
expm1(x) = 0) or that the fast path cannot vouch for (an overflow it would
have to guess) go to the scalar function, those rows alone, so the scalar
functions stay the one definition of every branch, check and message.
"""

from __future__ import annotations

import enum
import functools
import itertools
import math
from dataclasses import dataclass, fields
from typing import Callable, ClassVar, NamedTuple, Union

import numpy as np

from .errors import InvalidExcess, NotApplicable, OttoForgeError
from .gaussian import excess_excitation
from .thermo import (
    _EXP_OVERFLOW,
    invert_occupation,
    occupation,
)

# Relative tolerance for boundary ties (engine side wins at zero net work).
_TIE_TOL = 1e-12


def dressed_excess(omega2: float, t2: float, r: float, alpha: complex) -> float:
    """delta_n of the Gibbs state at (omega2, T2) dressed by squeezing r and displacement alpha."""
    return excess_excitation(occupation(omega2, t2), r, alpha)


class _FirstKindBath:
    """A bath that leaves the working fluid in its Gibbs state dressed by the bath's r and alpha."""

    def __post_init__(self) -> None:
        if "alpha" in vars(self):  # a field, not the class's 0j
            object.__setattr__(self, "alpha", complex(self.alpha))
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValueError(f"squeezing amplitude must be non-negative, got {self.r!r}")
        if not (math.isfinite(self.alpha.real) and math.isfinite(self.alpha.imag)):
            raise ValueError(f"displacement must be finite, got {self.alpha!r}")

    def excess_for(self, omega2: float, t2: float) -> float:
        return dressed_excess(omega2, t2, self.r, self.alpha)


@dataclass(frozen=True)
class ThermalBath(_FirstKindBath):
    """Plain thermal bath at the cycle's T2."""

    r: ClassVar[float] = 0.0
    alpha: ClassVar[complex] = 0j


@dataclass(frozen=True)
class SqueezedThermalBath(_FirstKindBath):
    """Squeezed thermal bath; drives the working fluid to a squeezed thermal state."""

    r: float
    alpha: ClassVar[complex] = 0j


@dataclass(frozen=True)
class DisplacedThermalBath(_FirstKindBath):
    """Coherently displaced thermal bath; working fluid ends displaced thermal."""

    r: ClassVar[float] = 0.0
    alpha: complex


@dataclass(frozen=True)
class SqueezedDisplacedBath(_FirstKindBath):
    """Squeeze plus displacement, in that order."""

    r: float
    alpha: complex


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
        return float(_energy_scale(*self.energies))

    @property
    def net_work(self) -> float:
        """Piston work over the whole cycle (negative when work is extracted)."""
        return self.w1 + self.w3


def standard_cycle(config: CycleConfig) -> StrokeLedger:
    """Evaluate the standard four-stroke cycle with a first-kind bath.

    The engine condition is n1 <= n2 + delta_n; in the engine regime the
    efficiency is -(W1+W3)/E2 = 1 - omega1/omega2 regardless of delta_n.
    """
    return cycle_columns(CycleKind.STANDARD, config).ledger(0)


def modified_cycle(config: CycleConfig) -> StrokeLedger:
    """Evaluate the cycle with the bath's unitary undone before expansion.

    Requires a non-passive first-kind bath (delta_n > 0). With delta_n = 0
    there is nothing to undo; the standard ledger is returned, flagged in
    `note`. The undo is treated as exact and cost-free.
    """
    return cycle_columns(CycleKind.MODIFIED, config).ledger(0)


def second_kind_cycle(config: CycleConfig) -> StrokeLedger:
    """Evaluate the cycle for a bath that thermalises the working fluid.

    All stroke-2/4 energy is heat (W2 = W4 = 0) and the engine efficiency
    1 - omega1/omega2 obeys the Carnot bound at the real temperature
    T_real = invert_occupation(omega2, n2 + delta_n).
    """
    return cycle_columns(CycleKind.SECOND_KIND, config).ledger(0)


def cycle_columns(kind: CycleKind, config: CycleConfig) -> LedgerColumns:
    """The `kind` ledger of one config as size-1 columns: one kernel call at the bath's delta_n."""
    check_applicable(kind, config.bath)
    dn = config.bath.excess_for(config.omega2, config.t2)
    return ledger_columns(kind, config.omega1, config.omega2, config.t1, config.t2, dn)


# Column codes. A regime column holds indices into _REGIMES; an eta-reason
# column holds indices into _ETA_REASONS, 0 meaning that eta is defined.
_REGIMES = tuple(RegimeTag)
_CODE = {tag: code for code, tag in enumerate(_REGIMES)}
_ETA_REASONS = (
    None,
    "not an engine: the piston absorbs net work",
    "degenerate cycle: no energy input in stroke 2 (E2 = 0)",
    "refrigerates but consumes piston work (W1 + W3' > 0)",
)
_NOT_AN_ENGINE, _DEGENERATE, _CONSUMES_WORK = 1, 2, 3
_NOTHING_TO_UNDO = "delta_n = 0: nothing to undo, standard-cycle ledger"

# The exceptions a row's evaluation may raise; each becomes that row's error.
ROW_ERRORS = (OttoForgeError, ValueError, ArithmeticError)


def _fail(errors: np.ndarray, mask: np.ndarray, exc: Exception) -> None:
    """Record `exc` as the error of every masked row that has not failed yet."""
    rows = np.flatnonzero(mask)
    errors[rows[np.equal(errors[rows], None)]] = exc


def rowwise(fn: Callable[..., float], errors: np.ndarray, *columns, fast=None) -> np.ndarray:
    """`fn` applied to each row of the broadcast columns, as len(errors) floats.

    Each call gets Python numbers, so libm rounds as in a scalar call.
    Columns that hold one value (one row, scalars or broadcasts) make one
    call, with each column's first value. Otherwise `fast`, if given, gets
    the columns as length-n float (or complex) arrays, with numpy warnings
    off, and returns the values and a mask of the rows it leaves to `fn`,
    which then runs on those rows alone (on every row without `fast`). A row
    whose call raises one of ROW_ERRORS gets NaN, and the exception in
    `errors` unless the row has already failed.
    """
    n = len(errors)
    if not n:
        return np.empty(0)
    columns = [np.asarray(c) for c in columns]
    if n == 1 or all(c.ndim == 0 or c.strides[0] == 0 for c in columns):
        try:
            value = fn(*(c.item(0) for c in columns))
        except ROW_ERRORS as exc:
            value = math.nan
            _fail(errors, np.ones(n, dtype=bool), exc)
        return np.full(n, value, dtype=float)
    columns = [_column(np.asarray(c, complex if np.iscomplexobj(c) else float), n) for c in columns]
    if fast is None:
        values, left = np.empty(n), np.ones(n, dtype=bool)
    else:
        with np.errstate(all="ignore"):
            values, left = fast(*columns)
    rows = np.flatnonzero(left)
    results = []
    for i, args in zip(rows.tolist(), zip(*(c[rows].tolist() for c in columns))):
        try:
            results.append(fn(*args))
        except ROW_ERRORS as exc:
            results.append(math.nan)
            if errors[i] is None:
                errors[i] = exc
    values[rows] = results
    return values


def libm_column(fn: Callable[..., float], column: np.ndarray, *args) -> np.ndarray:
    """fn(x, *args) for each element x of the 1-d `column`, as a float array.

    Each call gets a Python number, so libm rounds it as in a scalar call.
    `fn` must not raise on any element.
    """
    values = map(fn, column.tolist(), *map(itertools.repeat, args))
    return np.fromiter(values, dtype=float, count=len(column))


def occupation_column(omega, t, errors: np.ndarray) -> np.ndarray:
    """occupation(omega, t) of each row, bit for bit, as len(errors) floats.

    omega and t broadcast to len(errors) rows; failed rows as in rowwise.
    """
    return rowwise(occupation, errors, omega, t, fast=_occupation_fast)


def _occupation_fast(omega, t):
    valid = np.isfinite(omega) & (omega > 0.0) & np.isfinite(t) & (t >= 0.0)
    x = omega / t
    warm = valid & (t > 0.0)  # T = 0 holds exactly 0
    tail = warm & (x > _EXP_OVERFLOW)
    body = warm & ~tail
    expm1 = libm_column(math.expm1, np.where(body, x, 1.0))
    values = np.where(body, 1.0 / expm1, 0.0)
    if tail.any():
        values[tail] = libm_column(math.exp, -x[tail])
    return values, ~valid | (body & (expm1 == 0.0))


def invert_occupation_column(omega, n, errors: np.ndarray) -> np.ndarray:
    """invert_occupation(omega, n) of each row, bit for bit, as len(errors) floats.

    Broadcasting and failed rows as in `occupation_column`.
    """
    return rowwise(invert_occupation, errors, omega, n, fast=_invert_occupation_fast)


def _invert_occupation_fast(omega, n):
    valid = np.isfinite(omega) & (omega > 0.0) & np.isfinite(n) & (n >= 0.0)
    excited = valid & (n != 0.0)  # n = 0 maps back to T = 0
    log1p = libm_column(math.log1p, np.where(excited, 1.0 / n, 1.0))
    return np.where(excited, omega / log1p, 0.0), ~valid | (excited & (log1p == 0.0))


# Bounds within which sinh(r), its square and |alpha|^2 stay in the double
# range: sinh(710) < 1.2e308, (1e154)^2 = 1e308, and |alpha| < 1.5e153 when
# both its parts are within 1e153. The column form leaves rows beyond them
# (or holding NaN) to the scalar code, which decides whether they overflow.
_SINH_ARGUMENT, _SQUARED, _ALPHA_PART = 710.0, 1e154, 1e153


def excess_excitation_column(n_th, r, alpha, errors: np.ndarray) -> np.ndarray:
    """excess_excitation(n_th, r, alpha) of each row, bit for bit, as len(errors) floats.

    Broadcasting and failed rows as in `occupation_column`. sinh(0)^2 and
    |0|^2 are exactly 0, so libm runs only on the squeezed and the displaced rows.
    """
    return rowwise(excess_excitation, errors, n_th, r, alpha, fast=_excess_excitation_fast)


def _excess_excitation_fast(n_th, r, alpha):
    scalar = ~(
        (np.abs(r) <= _SINH_ARGUMENT)
        & (np.abs(alpha.real) <= _ALPHA_PART) & (np.abs(alpha.imag) <= _ALPHA_PART)
    )
    squeezed = np.flatnonzero(~scalar & (r != 0.0))
    sinh = libm_column(math.sinh, r[squeezed])
    too_large = np.abs(sinh) > _SQUARED
    scalar[squeezed[too_large]] = True
    squeeze, displacement = np.zeros(len(r)), np.zeros(len(r))
    squeeze[squeezed[~too_large]] = libm_column(pow, sinh[~too_large], 2)
    displaced = np.flatnonzero(~scalar & (alpha != 0.0))
    displacement[displaced] = libm_column(pow, libm_column(abs, alpha[displaced]), 2)
    return (2.0 * n_th + 1.0) * squeeze + displacement, scalar


@dataclass(eq=False)
class LedgerColumns:
    """The ledgers of n cycle evaluations, one length-n array per entry.

    The inputs (omega1, omega2, t1, t2, dn) and the occupations n1, n2 are
    kept with the ledger entries. Entries a StrokeLedger leaves as None hold
    NaN: eta and cop outside their regimes, w_inv without refrigeration, and
    w3_prime and its split w3_th, w3_nonpas outside the modified ledger. `split`
    marks the rows that hold a modified ledger; the other rows of a modified
    call fell back to the standard one (delta_n = 0). `errors` holds, for
    each failed row, the exception its scalar evaluation raises; the
    numbers of such a row mean nothing.
    """

    kind: CycleKind
    omega1: np.ndarray
    omega2: np.ndarray
    t1: np.ndarray
    t2: np.ndarray
    dn: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w3: np.ndarray
    w4: np.ndarray
    q2: np.ndarray
    q4: np.ndarray
    e2: np.ndarray
    e4: np.ndarray
    w3_prime: np.ndarray
    w3_th: np.ndarray
    w3_nonpas: np.ndarray
    eta: np.ndarray
    cop: np.ndarray
    w_inv: np.ndarray
    regime: np.ndarray
    reason: np.ndarray
    split: np.ndarray
    law_residual: np.ndarray
    errors: np.ndarray

    def __len__(self) -> int:
        return len(self.errors)

    @property
    def failed(self) -> np.ndarray:
        return np.not_equal(self.errors, None)

    def ledger(self, i: int) -> StrokeLedger:
        """Row i as a StrokeLedger; raises the row's exception if it failed."""
        if self.errors[i] is not None:
            raise self.errors[i]
        # a modified call's row without the split fell back to the standard ledger
        fell_back = self.kind is CycleKind.MODIFIED and not self.split[i]
        return StrokeLedger(
            kind=CycleKind.STANDARD if fell_back else self.kind,
            w1=self.w1[i].item(), w2=self.w2[i].item(), w3=self.w3[i].item(), w4=self.w4[i].item(),
            q2=self.q2[i].item(), q4=self.q4[i].item(), e2=self.e2[i].item(), e4=self.e4[i].item(),
            eta=_defined(self.eta[i]), cop=_defined(self.cop[i]),
            regime=_REGIMES[self.regime[i]],
            w3_prime=_defined(self.w3_prime[i]),
            w3_th=_defined(self.w3_th[i]), w3_nonpas=_defined(self.w3_nonpas[i]),
            w_inv=_defined(self.w_inv[i]),
            eta_reason=_ETA_REASONS[self.reason[i]],
            note=_NOTHING_TO_UNDO if fell_back else None,
        )

    def row_slice(self, rows: slice) -> LedgerColumns:
        """Those rows of every column; their `laws` is computed anew when read."""
        return LedgerColumns(self.kind, *(getattr(self, f.name)[rows] for f in fields(self)[1:]))

    def law(self, i: int) -> LawReport:
        """The law audit of row i's ledger (the row must not have failed)."""
        return _law_report(self.laws, i, self.law_residual[i].item())

    @functools.cached_property
    def laws(self) -> LawColumns:
        """`law_columns` of every row, computed on first use (a sweep never uses it)."""
        return law_columns(
            self.kind, self.omega2, self.t1, self.t2, self.n2, self.dn,
            self.q2, self.q4, self.eta, self.cop, self.errors,
        )


def _defined(value: np.floating) -> float | None:
    value = value.item()
    return None if math.isnan(value) else value


def ledger_columns(
    kind: CycleKind, omega1, omega2, t1, t2, dn, errors: np.ndarray | None = None,
    n1=None, n2=None,
) -> LedgerColumns:
    """Every ledger column of the `kind` cycle, one row per element of the inputs.

    omega1, omega2, t1, t2 and dn (the bath's excess delta_n) broadcast to
    one length. Each row must satisfy CycleConfig's invariants; none is
    checked here. `errors`, if given, is an object array of that length
    whose non-None rows already failed (computing dn); it is filled in place
    with the rows that fail here: an invalid second-kind excess
    (InvalidExcess), a ledger entry beyond the double range (OverflowError)
    or a vanishing hybrid-engine denominator (ZeroDivisionError).
    n1 and n2, if given, stand for `occupation_column(omega1, t1, errors)`
    and `occupation_column(omega2, t2, errors)`, computed before the call
    (in that order), with their failed rows already in `errors`.
    """
    inputs = [np.asarray(x, dtype=float) for x in (omega1, omega2, t1, t2, dn)]
    n = len(errors) if errors is not None else max(x.size for x in inputs)
    o1, o2, t1, t2, dn = (_column(x, n) for x in inputs)
    if errors is None:
        errors = np.full(n, None, dtype=object)
    n1 = occupation_column(o1, t1, errors) if n1 is None else _column(np.asarray(n1, float), n)
    n2 = occupation_column(o2, t2, errors) if n2 is None else _column(np.asarray(n2, float), n)
    # failed rows carry NaN and overflowing ones inf; both end up in `errors`
    with np.errstate(all="ignore"):
        columns = _KERNELS[kind](o1, o2, n1, n2, dn, errors)
        scale = columns.pop("scale")
        columns["law_residual"] = _first_law_residual(
            *(columns[name] for name in ("w1", "w2", "w3", "w4", "q2", "q4")), scale
        )
    # np.maximum passes NaN and inf on, so the energy scale is finite exactly
    # when every stroke energy is; the other entries are sums and quotients
    # of finite energies, which can only overflow.
    bad = ~np.isfinite(scale)
    for name in ("law_residual", "eta", "cop", "w_inv"):
        bad |= np.isinf(columns[name])
    if bad.any():
        _fail(errors, bad, OverflowError("a ledger entry exceeds the double range"))
    return LedgerColumns(kind, o1, o2, t1, t2, dn, n1, n2, errors=errors, **columns)


def _column(values: np.ndarray, n: int) -> np.ndarray:
    """`values` (one value or n of them) as a length-n array, a view when possible."""
    if values.shape == (n,):
        return values
    return values.reshape(1) if n == 1 else np.broadcast_to(values, (n,))


def _first_kind_strokes(o1, o2, n1, n2, dn) -> tuple:
    """W1, Q2, W2, E2 and Q4, the strokes the standard and modified ledgers share."""
    w1 = (o2 - o1) * (n1 + 0.5)
    q2 = o2 * (n2 - n1)
    w2 = o2 * dn
    return w1, q2, w2, w2 + q2, o1 * (n1 - n2)


def _standard_columns(o1, o2, n1, n2, dn, errors) -> dict:
    w1, q2, w2, e2, q4 = _first_kind_strokes(o1, o2, n1, n2, dn)
    w3 = (o1 - o2) * (n2 + dn + 0.5)
    w4 = -o1 * dn
    e4 = w4 + q4
    # Factored net work avoids the catastrophic cancellation of w1 + w3 near
    # the engine boundary; (n2 - n1) + dn is the engine margin.
    net = -(o2 - o1) * ((n2 - n1) + dn)
    scale = _energy_scale(w1, w2, w3, w4, q2, q4, e2, e4)
    tol = _TIE_TOL * scale
    eta, reason = _engine_efficiency(net, e2, tol)
    undefined = np.full(len(w1), np.nan)
    return dict(
        w1=w1, w2=w2, w3=w3, w4=w4, q2=q2, q4=q4, e2=e2, e4=e4, w3_prime=undefined,
        w3_th=undefined, w3_nonpas=undefined, eta=eta, cop=undefined, w_inv=undefined,
        regime=_classify_first_kind(net, q2, e4, tol), reason=reason,
        split=np.zeros(len(w1), dtype=bool), scale=scale,
    )


def _modified_columns(o1, o2, n1, n2, dn, errors) -> dict:
    """The modified ledger on rows with something to undo (dn != 0), the standard one elsewhere."""
    w1, q2, w2, e2, q4 = _first_kind_strokes(o1, o2, n1, n2, dn)
    split = dn != 0.0
    w3_th = (o1 - o2) * (n2 + 0.5)
    w3_nonpas = -w2
    w3p = w3_th + w3_nonpas
    w4 = np.zeros(len(w1))
    e4 = w4 + q4
    scale = _energy_scale(w1, w2, w3p, w4, q2, q4, e2, e4)
    tol = _TIE_TOL * scale
    net = (o2 - o1) * (n1 - n2) - o2 * dn
    regime = _classify_modified(net, n1, n2, tol)
    # hybrid engine only (n2 >= n1); heat is still dumped into the cold bath (q4 <= 0)
    hybrid = regime == _CODE[RegimeTag.SUB_CARNOT_HYBRID_ENGINE]
    hybrid_divisor = o2 * ((n2 - n1) + dn)
    vanishing = split & hybrid & (hybrid_divisor == 0.0)
    if vanishing.any():
        _fail(errors, vanishing, ZeroDivisionError("float division by zero"))
    # n2 < n1: the cycle refrigerates the cold bath (q4 > 0). It is a dual
    # engine/refrigerator only if the piston still extracts net work.
    dual = regime == _CODE[RegimeTag.DUAL_ENGINE_REFRIGERATOR]
    columns = dict(
        w1=w1, w2=w2, w3=w3p, w4=w4, q2=q2, q4=q4, e2=e2, e4=e4,
        w3_prime=w3p, w3_th=w3_th, w3_nonpas=w3_nonpas,
        eta=np.where(hybrid, 1.0 - (o1 * (n2 - n1)) / hybrid_divisor,
                     np.where(dual, 1.0, np.nan)),
        cop=np.where(hybrid, np.nan, o1 / (o2 - o1)),  # n2 < n1 forces o1 < o2 under t1 <= t2
        w_inv=np.where(hybrid, np.nan, w1 + w2 + w3p),
        regime=regime,
        reason=np.where(regime == _CODE[RegimeTag.NOT_ENGINE], _CONSUMES_WORK, 0),
        scale=scale,
    )
    if not split.all():
        standard = _standard_columns(o1, o2, n1, n2, dn, errors)
        columns = {name: np.where(split, col, standard[name]) for name, col in columns.items()}
    columns["split"] = split
    return columns


def _second_kind_columns(o1, o2, n1, n2, dn, errors) -> dict:
    nc = n2 + dn
    for i in np.flatnonzero(nc < 0.0).tolist():
        if errors[i] is None:
            errors[i] = InvalidExcess(
                f"excess {dn[i].item()!r} would drive the working fluid "
                f"to occupation {nc[i].item()!r} < 0"
            )
    w1 = (o2 - o1) * (n1 + 0.5)
    w3 = (o1 - o2) * (nc + 0.5)
    excess = (n2 - n1) + dn
    q2 = o2 * excess
    q4 = -o1 * excess
    zero = np.zeros(len(w1))
    scale = _energy_scale(w1, zero, w3, zero, q2, q4, q2, q4)
    tol = _TIE_TOL * scale
    net = -(o2 - o1) * excess
    eta, reason = _engine_efficiency(net, q2, tol)
    undefined = np.full(len(w1), np.nan)
    return dict(
        w1=w1, w2=zero, w3=w3, w4=zero, q2=q2, q4=q4, e2=q2, e4=q4, w3_prime=undefined,
        w3_th=undefined, w3_nonpas=undefined, eta=eta, cop=undefined, w_inv=undefined,
        regime=_classify_second_kind(net, tol), reason=reason,
        split=np.zeros(len(w1), dtype=bool), scale=scale,
    )


_KERNELS = {CycleKind.STANDARD: _standard_columns, CycleKind.MODIFIED: _modified_columns,
            CycleKind.SECOND_KIND: _second_kind_columns}


def _energy_scale(*energies):
    """The largest |stroke energy| of each row."""
    return functools.reduce(np.maximum, map(np.abs, energies))


def _first_law_residual(w1, w2, w3, w4, q2, q4, scale) -> np.ndarray:
    """|W1 + W2 + W3 + W4 + Q2 + Q4| over the energy scale; 0 where the scale is 0."""
    total = np.abs(np.asarray(w1 + w2 + w3 + w4 + q2 + q4))
    return np.divide(total, scale, out=np.zeros_like(total), where=np.asarray(scale) > 0.0)


def _engine_efficiency(net, e2, tol) -> tuple[np.ndarray, np.ndarray]:
    """-(net work)/E2 in the engine regime, NaN with a reason code otherwise."""
    not_engine = net > tol
    degenerate = ~not_engine & (e2 <= tol)
    eta = np.where(not_engine | degenerate, np.nan, -net / e2)
    return eta, np.where(not_engine, _NOT_AN_ENGINE, np.where(degenerate, _DEGENERATE, 0))


# One regime rule per cycle kind, shared by the kernel and classify_regime.
# `net` is the cycle's piston work; ties within `tol` go to the engine side.
def _classify_first_kind(net, q2, e4, tol) -> np.ndarray:
    return np.where(
        net > tol, _CODE[RegimeTag.NOT_ENGINE], np.where(
            q2 >= -tol, _CODE[RegimeTag.SUB_CARNOT_HYBRID_ENGINE], np.where(
                e4 > tol, _CODE[RegimeTag.SUPER_CARNOT_ENGINE_REFRIGERATOR],
                _CODE[RegimeTag.SUPER_CARNOT_ENGINE_HEAT_PUMP])))


def _classify_modified(net, n1, n2, tol) -> np.ndarray:
    return np.where(
        n2 >= n1, _CODE[RegimeTag.SUB_CARNOT_HYBRID_ENGINE], np.where(
            net <= tol, _CODE[RegimeTag.DUAL_ENGINE_REFRIGERATOR], _CODE[RegimeTag.NOT_ENGINE]))


def _classify_second_kind(net, tol) -> np.ndarray:
    return np.where(
        net <= tol, _CODE[RegimeTag.GENUINE_HEAT_ENGINE], _CODE[RegimeTag.NOT_ENGINE]
    )


def classify_regime(config: CycleConfig, ledger: StrokeLedger) -> RegimeTag:
    """Re-derive the operating-regime tag of a computed ledger.

    Boundary ties (zero net work, vanishing Q2, n1 = n2) resolve to the
    engine side within a 1e-12 * (energy scale) tolerance, matching the tags
    the cycle evaluators assign.
    """
    tol = _TIE_TOL * ledger.energy_scale
    if ledger.kind is CycleKind.SECOND_KIND:
        code = _classify_second_kind(ledger.net_work, tol)
    elif ledger.kind is CycleKind.MODIFIED:
        n1, n2 = occupation(config.omega1, config.t1), occupation(config.omega2, config.t2)
        code = _classify_modified(ledger.net_work, n1, n2, tol)
    else:
        code = _classify_first_kind(ledger.net_work, ledger.q2, ledger.e4, tol)
    return _REGIMES[code]


# The absolute slack of every law inequality: the Clausius sum and the engine
# and COP bounds.
INEQUALITY_TOL = 1e-12


class LawColumns(NamedTuple):
    """The law checks of n ledgers, as `law_columns` gives them: one length-n array each."""

    hot: np.ndarray
    clausius: np.ndarray
    value: np.ndarray
    bound: np.ndarray


def law_columns(kind: CycleKind, omega2, t1, t2, n2, dn, q2, q4, eta, cop, errors) -> LawColumns:
    """The hot temperature, Clausius sum, checked value and its bound for `kind` ledgers.

    Theta = invert_occupation(omega2, n2 + dn) is T_real for a second-kind
    bath, the hot temperature of the Clausius sum Q2/T_hot + Q4/T1, and the
    fictitious excitation parameter for a first-kind bath, whose T_hot is T2.
    The sum is NaN where a zero temperature skips it. Standard and
    second-kind cycles check eta against 1 - T1/Theta where eta is defined
    and Theta > 0, the modified cycle its COP against T1/(T2 - T1) where it
    refrigerates and T2 > T1; elsewhere the bound is NaN. A row whose Theta
    fails gets the error in `errors`.
    """
    undefined = np.full(len(t1), np.nan)
    if kind is CycleKind.MODIFIED:
        hot, value = t2, cop
        bound = np.divide(t1, t2 - t1, out=undefined, where=~np.isnan(cop) & (t2 > t1))
    else:
        theta = invert_occupation_column(omega2, n2 + dn, errors)
        hot = theta if kind is CycleKind.SECOND_KIND else t2
        value = eta
        bound = 1.0 - np.divide(t1, theta, out=undefined, where=~np.isnan(eta) & (theta > 0.0))
    with np.errstate(all="ignore"):
        clausius = np.where((t1 == 0.0) | (hot == 0.0), np.nan, q2 / hot + q4 / t1)
    return LawColumns(hot, clausius, value, bound)


@dataclass(frozen=True)
class LawReport:
    """First- and second-law audit of a single ledger.

    The first-law residual is |sum of all stroke energies| relative to the
    largest stroke energy. The hot temperature and the Clausius sum, skipped
    with a reason at zero temperature, are those of a `law_columns` row.
    """

    first_law_residual: float
    clausius_sum: float | None
    clausius_skipped: str | None
    hot_temperature: float | None


def audit_laws(ledger: StrokeLedger, config: CycleConfig) -> LawReport:
    """Check energy conservation and the equilibrium second law on a ledger.

    A size-1 `law_columns` call on the energies of `ledger`, at the hot
    occupation and the bath excess of `config`; at zero temperature the
    Clausius check is skipped while the first law is still verified.
    """
    n2 = occupation(config.omega2, config.t2)
    dn = config.bath.excess_for(config.omega2, config.t2)
    residual = _first_law_residual(*ledger.energies[:6], ledger.energy_scale).item()
    # an undefined eta or cop (None) becomes NaN
    row = (np.array([x], dtype=float) for x in (
        config.omega2, config.t1, config.t2, n2, dn, ledger.q2, ledger.q4, ledger.eta, ledger.cop))
    laws = law_columns(ledger.kind, *row, np.full(1, None, dtype=object))
    return _law_report(laws, 0, residual)


def _law_report(laws: LawColumns, i: int, residual: float) -> LawReport:
    """Row i of `laws` as a LawReport with first-law residual `residual`."""
    clausius = laws.clausius[i].item()
    skipped = math.isnan(clausius)
    return LawReport(
        first_law_residual=residual,
        clausius_sum=None if skipped else clausius,
        clausius_skipped="skipped: zero temperature" if skipped else None,
        hot_temperature=laws.hot[i].item(),
    )
