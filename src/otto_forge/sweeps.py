"""Parameter sweeps, tabular emission, and randomized law-audit campaigns.

Sweeps walk a uniform, endpoint-inclusive grid along one axis of a base
cycle configuration and evaluate the chosen cycle at every point. Per-point
physics and arithmetic errors (e.g. an invalid second-kind excess, or a
squeezing too large for a double) become row-level flags; a sweep never
aborts. Rows come back in axis order.

The delta-n axis deserves a note: for a second-kind bath it sets the excess
directly, while for squeezed or displaced baths the bath parameter (r or
|alpha|) is re-solved at every grid point so that the stroke-2 excess equals
the axis value. That makes efficiency-versus-excess sweeps bath-agnostic.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import NotApplicable, OttoForgeError
from .cycles import (
    CYCLE_EVALUATORS,
    BathSpec,
    CycleConfig,
    CycleKind,
    DisplacedThermalBath,
    LawReport,
    SecondKindBath,
    SqueezedDisplacedBath,
    SqueezedThermalBath,
    StrokeLedger,
    ThermalBath,
    audit_laws,
    bath_wf_state,
    check_applicable,
    modified_cycle,
    second_kind_cycle,
    standard_cycle,
)
from .gaussian import delta_n as state_delta_n
from .thermo import fictitious_temperature, occupation

TABLE_COLUMNS = (
    "axis",
    "W1",
    "W2",
    "W3",
    "W3_prime",
    "W4",
    "Q2",
    "Q4",
    "E2",
    "E4",
    "eta",
    "cop",
    "regime",
    "law_residual",
)


def ledger_record(ledger: StrokeLedger, law: LawReport) -> dict:
    """The table columns after `axis` for one ledger and its law audit."""
    return {
        "W1": ledger.w1,
        "W2": ledger.w2,
        "W3": ledger.w3,
        "W3_prime": ledger.w3_prime,
        "W4": ledger.w4,
        "Q2": ledger.q2,
        "Q4": ledger.q4,
        "E2": ledger.e2,
        "E4": ledger.e4,
        "eta": ledger.eta,
        "cop": ledger.cop,
        "regime": ledger.regime.value,
        "law_residual": law.first_law_residual,
    }


class SweepAxis(Enum):
    FREQUENCY_RATIO = "frequency-ratio"
    DELTA_N = "delta-n"
    SQUEEZE_R = "squeeze-r"
    DISPLACEMENT_MAG = "displacement"
    COLD_TEMPERATURE = "cold-temperature"


@dataclass(frozen=True)
class SweepSpec:
    """One-axis sweep description over a base cycle configuration."""

    base: CycleConfig
    axis: SweepAxis
    start: float
    stop: float
    steps: int
    cycle_kind: CycleKind = CycleKind.STANDARD

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", float(self.start))
        object.__setattr__(self, "stop", float(self.stop))
        object.__setattr__(self, "steps", int(self.steps))
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("sweep bounds must be finite")
        if self.start >= self.stop:
            raise ValueError(f"start must be below stop, got [{self.start}, {self.stop}]")
        if self.steps < 2:
            raise ValueError(f"steps must be at least 2, got {self.steps}")
        self._check_cycle()
        self._check_axis()

    def _check_cycle(self) -> None:
        """Refuse a cycle/bath pair for which every row would be NotApplicable."""
        try:
            check_applicable(self.cycle_kind, self.base.bath)
        except NotApplicable as exc:
            raise ValueError(str(exc)) from None

    def _check_axis(self) -> None:
        bath = self.base.bath
        axis = self.axis
        if axis is SweepAxis.FREQUENCY_RATIO:
            if self.start <= 0.0 or self.stop > 1.0:
                raise ValueError("frequency ratio must stay in (0, 1]")
        elif axis is SweepAxis.DELTA_N:
            if isinstance(bath, (SqueezedThermalBath, DisplacedThermalBath)):
                if self.start < 0.0:
                    raise ValueError("first-kind baths cannot produce a negative excess")
            elif not isinstance(bath, SecondKindBath):
                raise ValueError(
                    f"delta-n axis needs a second-kind, squeezed or displaced bath, "
                    f"got {type(bath).__name__}"
                )
        elif axis is SweepAxis.SQUEEZE_R:
            if not isinstance(bath, SqueezedThermalBath):
                raise ValueError("squeeze-r axis needs a SqueezedThermalBath")
            if self.start < 0.0:
                raise ValueError("squeezing amplitude is non-negative")
        elif axis is SweepAxis.DISPLACEMENT_MAG:
            if not isinstance(bath, DisplacedThermalBath):
                raise ValueError("displacement axis needs a DisplacedThermalBath")
            if self.start < 0.0:
                raise ValueError("displacement magnitude is non-negative")
        elif axis is SweepAxis.COLD_TEMPERATURE:
            if self.start < 0.0 or self.stop > self.base.t2:
                raise ValueError("cold temperature must stay within [0, T2]")

    def grid(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)

    def config_at(self, value: float) -> CycleConfig:
        base = self.base
        axis = self.axis
        if axis is SweepAxis.FREQUENCY_RATIO:
            return replace(base, omega1=value * base.omega2)
        if axis is SweepAxis.COLD_TEMPERATURE:
            return replace(base, t1=value)
        if axis is SweepAxis.SQUEEZE_R:
            return replace(base, bath=SqueezedThermalBath(r=value))
        if axis is SweepAxis.DISPLACEMENT_MAG:
            phase = base.bath.alpha / abs(base.bath.alpha) if base.bath.alpha else 1.0
            return replace(base, bath=DisplacedThermalBath(alpha=value * phase))
        # delta-n: re-solve the bath knob so the stroke-2 excess equals value
        if isinstance(base.bath, SecondKindBath):
            return replace(base, bath=SecondKindBath(excess=value))
        if isinstance(base.bath, SqueezedThermalBath):
            n2 = occupation(base.omega2, base.t2)
            r = math.asinh(math.sqrt(value / (2.0 * n2 + 1.0)))
            return replace(base, bath=SqueezedThermalBath(r=r))
        return replace(base, bath=DisplacedThermalBath(alpha=math.sqrt(value)))


@dataclass(frozen=True)
class SweepRow:
    """One grid point: the axis value plus either a ledger+audit or an error flag."""

    axis_value: float
    ledger: StrokeLedger | None
    law: LawReport | None
    error: str | None = None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the sweep, one row per grid point, in axis order."""
    cycle = CYCLE_EVALUATORS[spec.cycle_kind]

    def point(value: float) -> SweepRow:
        v = float(value)
        try:
            config = spec.config_at(v)
            ledger = cycle(config)
            return SweepRow(v, ledger, audit_laws(ledger, config), None)
        except (OttoForgeError, ValueError, ArithmeticError) as exc:
            return SweepRow(v, None, None, f"{type(exc).__name__}: {exc}")

    return [point(v) for v in spec.grid()]


def row_record(row: SweepRow) -> dict:
    """Flatten a sweep row to the stable table schema."""
    if row.error is not None:
        return dict.fromkeys(TABLE_COLUMNS) | {
            "axis": row.axis_value, "regime": f"error:{row.error}"
        }
    return {"axis": row.axis_value} | ledger_record(row.ledger, row.law)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def emit_table(rows: list[SweepRow], format: str = "csv") -> bytes:
    """Serialise sweep rows as RFC-4180 CSV or JSON (one object per row).

    CSV floats carry 17 significant digits, enough to round-trip doubles
    exactly; the JSON form round-trips bit-exactly through json.loads.
    """
    if not rows:
        raise ValueError("emit_table needs at least one row")
    records = [row_record(row) for row in rows]
    if format == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\r\n")
        writer.writerow(TABLE_COLUMNS)
        for record in records:
            writer.writerow(_csv_cell(record[c]) for c in TABLE_COLUMNS)
        return buffer.getvalue().encode("utf-8")
    if format == "json":
        return json.dumps(records).encode("utf-8")
    raise ValueError(f"unknown table format {format!r} (expected 'csv' or 'json')")


@dataclass(frozen=True)
class AuditSummary:
    """Outcome of a randomized law-audit campaign. ok means zero violations."""

    samples: int
    seed: int
    family: str
    ledgers: int
    engines: int
    max_first_law_residual: float
    first_law_violations: int
    clausius_checked: int
    clausius_violations: int
    bound_checked: int
    bound_violations: int

    @property
    def ok(self) -> bool:
        return (
            self.first_law_violations == 0
            and self.clausius_violations == 0
            and self.bound_violations == 0
        )


_AUDIT_FAMILIES = ("first-kind", "second-kind", "mixed")

# Audit thresholds: energy closure is relative, the inequality checks are the
# absolute slacks used throughout the test suite.
_FIRST_LAW_TOL = 1e-9
_INEQUALITY_TOL = 1e-12


def _draw_config(rng: np.random.Generator, family: str) -> tuple[CycleConfig, str]:
    omega2 = rng.uniform(1.0, 100.0)
    ratio = rng.uniform(0.0, 1.0)
    omega1 = omega2 * (ratio if ratio > 0.0 else 1e-6)
    t2 = rng.uniform(0.0, 50.0)
    t1 = rng.uniform(0.0, 1.0) * t2
    kind = family if family != "mixed" else ("first-kind", "second-kind")[rng.integers(2)]
    if kind == "second-kind":
        n2 = occupation(omega2, t2)
        excess = rng.uniform(0.0, 1.0) * (n2 + 2.0) - n2  # keeps n2 + excess >= 0
        bath: BathSpec = SecondKindBath(excess=excess)
    else:
        r = rng.uniform(0.0, 1.5)
        mag = rng.uniform(0.0, 3.0)
        phase = rng.uniform(0.0, 2.0 * math.pi)
        alpha = mag * complex(math.cos(phase), math.sin(phase))
        choice = rng.integers(4)
        if choice == 0:
            bath = ThermalBath()
        elif choice == 1:
            bath = SqueezedThermalBath(r=r)
        elif choice == 2:
            bath = DisplacedThermalBath(alpha=alpha)
        else:
            bath = SqueezedDisplacedBath(r=r, alpha=alpha)
    return CycleConfig(omega1=omega1, omega2=omega2, t1=t1, t2=t2, bath=bath), kind


class _AuditTally:
    def __init__(self) -> None:
        self.ledgers = 0
        self.engines = 0
        self.max_residual = 0.0
        self.first_law_violations = 0
        self.clausius_checked = 0
        self.clausius_violations = 0
        self.bound_checked = 0
        self.bound_violations = 0

    def add(
        self, ledger: StrokeLedger, law: LawReport, value: float | None, bound: float | None
    ) -> None:
        """Count one ledger; `value` (eta or COP) is checked against `bound` when given."""
        self.ledgers += 1
        self.max_residual = max(self.max_residual, law.first_law_residual)
        if law.first_law_residual > _FIRST_LAW_TOL:
            self.first_law_violations += 1
        if law.clausius_sum is not None:
            self.clausius_checked += 1
            if law.clausius_sum > _INEQUALITY_TOL:
                self.clausius_violations += 1
        if ledger.eta is not None:
            self.engines += 1
        if bound is not None:
            self.bound_checked += 1
            if value > bound + _INEQUALITY_TOL:
                self.bound_violations += 1


def audit_campaign(samples: int, seed: int, family: str = "mixed") -> AuditSummary:
    """Audit the thermodynamic laws over `samples` random configurations.

    Configurations are drawn uniformly over omega2 in [1, 100], omega1 in
    (0, omega2], T2 in [0, 50], T1 in [0, T2], squeezing in [0, 1.5] and
    |alpha| in [0, 3] from a generator seeded by `seed`; the sample list is
    generated sequentially so the summary is reproducible regardless of how
    the evaluations are scheduled. First-kind samples audit the standard
    cycle and, when the bath is non-passive, the modified cycle as well
    (including the COP bound in the dual regime); second-kind samples audit
    the Carnot bound at the real temperature.
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if family not in _AUDIT_FAMILIES:
        raise ValueError(f"family must be one of {_AUDIT_FAMILIES}, got {family!r}")

    rng = np.random.default_rng(seed)
    drawn = [_draw_config(rng, family) for _ in range(samples)]

    tally = _AuditTally()
    for config, kind in drawn:
        if kind == "second-kind":
            _audit_second_kind(config, tally)
        else:
            _audit_first_kind(config, tally)

    return AuditSummary(
        samples=samples,
        seed=int(seed),
        family=family,
        ledgers=tally.ledgers,
        engines=tally.engines,
        max_first_law_residual=tally.max_residual,
        first_law_violations=tally.first_law_violations,
        clausius_checked=tally.clausius_checked,
        clausius_violations=tally.clausius_violations,
        bound_checked=tally.bound_checked,
        bound_violations=tally.bound_violations,
    )


def _audit_first_kind(config: CycleConfig, tally: _AuditTally) -> None:
    ledger = standard_cycle(config)
    law = audit_laws(ledger, config)
    n2 = occupation(config.omega2, config.t2)
    dn = state_delta_n(bath_wf_state(config.bath, n2))
    bound = None
    if ledger.eta is not None and n2 + dn > 0.0:
        theta = fictitious_temperature(config.omega2, n2, dn)
        if theta > 0.0:
            bound = 1.0 - config.t1 / theta
    tally.add(ledger, law, ledger.eta, bound)

    if dn > 0.0:
        mod = modified_cycle(config)
        mod_law = audit_laws(mod, config)
        cop_bound = None
        if mod.cop is not None and config.t2 > config.t1:
            cop_bound = config.t1 / (config.t2 - config.t1)
        tally.add(mod, mod_law, mod.cop, cop_bound)


def _audit_second_kind(config: CycleConfig, tally: _AuditTally) -> None:
    ledger = second_kind_cycle(config)
    law = audit_laws(ledger, config)
    bound = None
    if ledger.eta is not None and law.hot_temperature and law.hot_temperature > 0.0:
        bound = 1.0 - config.t1 / law.hot_temperature
    tally.add(ledger, law, ledger.eta, bound)
