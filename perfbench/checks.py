"""Independent output checks for the benchmark's commands.

Every expected value here comes from the paper's closed forms, written out
again in this file. Nothing is imported from otto_forge, so a fault in the
package's thermo, gaussian or cycles layer cannot hide itself by also
being in the checker. Sweep tables are checked in chunks of rows with
numpy, so checking stays cheap next to the command it checks.

Natural units hbar = k_B = 1, as in the package.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

COLUMNS = (
    "axis", "W1", "W2", "W3", "W3_prime", "W4", "Q2", "Q4", "E2", "E4",
    "eta", "cop", "regime", "law_residual",
)
ENERGY_COLUMNS = ("W1", "W2", "W3", "W4", "Q2", "Q4", "E2", "E4")
CHUNK_ROWS = 8192

# Ledger entries are compared relative to the row's energy scale. The
# package's own first-law audit flags residuals above 1e-9.
LEDGER_RTOL = 1e-9
# Regimes are only compared where every deciding margin is clear of the
# package's 1e-12 tie tolerance by a wide gap.
REGIME_MARGIN = 1e-9


class CheckError(AssertionError):
    """A command's output disagrees with the closed forms."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(got, want: float, atol: float, what: str) -> None:
    _require(got is not None and abs(got - want) <= atol,
             f"{what}: got {got!r}, expected {want!r} (tol {atol:.1e})")


def bose(omega, temperature):
    """Bose-Einstein occupation 1/(exp(omega/T) - 1), exactly 0 at T = 0."""
    omega, temperature = np.asarray(omega, float), np.asarray(temperature, float)
    with np.errstate(divide="ignore", over="ignore"):
        x = omega / temperature
        return np.where(temperature == 0.0, 0.0,
                        np.where(x > 709.0, np.exp(-x), 1.0 / np.expm1(x)))


def excess(n_th, r=0.0, alpha: complex = 0j):
    """Delta n = (2 n + 1) sinh^2 r + |alpha|^2 of a squeezed displaced thermal state."""
    return (2.0 * n_th + 1.0) * np.sinh(r) ** 2 + abs(alpha) ** 2


def entropy(n: float) -> float:
    """(n + 1) ln(n + 1) - n ln n, the entropy of a thermal oscillator."""
    return 0.0 if n == 0.0 else (n + 1.0) * math.log1p(n) - n * math.log(n)


def expected_ledger(cycle: str, o1, o2, t1, t2, dn) -> dict:
    """The paper's stroke ledger, efficiency, COP and regime of a cycle, elementwise.

    Undefined values (eta outside the engine regime, cop without
    refrigeration, W3_prime outside the modified cycle) are NaN. `margins`
    holds the quantities whose signs decide the regime; a regime is only
    asserted where every margin is clear of zero.
    """
    o1, o2, t1, t2, dn = np.broadcast_arrays(*(np.asarray(v, float) for v in (o1, o2, t1, t2, dn)))
    n1, n2 = bose(o1, t1), bose(o2, t2)
    nan = np.full(o1.shape, np.nan)
    w1 = (o2 - o1) * (n1 + 0.5)
    if cycle == "second-kind":
        heat = n2 + dn - n1
        net = -(o2 - o1) * heat
        engine = net <= 0.0
        return dict(W1=w1, W2=0.0 * w1, W3=(o1 - o2) * (n2 + dn + 0.5), W4=0.0 * w1,
                    Q2=o2 * heat, Q4=-o1 * heat, E2=o2 * heat, E4=-o1 * heat, W3_prime=nan,
                    cop=nan, eta=np.where(engine, 1.0 - o1 / o2, np.nan),
                    regime=np.where(engine, "GenuineHeatEngine", "NotEngine"), margins=(net,))
    q2, q4, w2 = o2 * (n2 - n1), o1 * (n1 - n2), o2 * dn
    # standard cycle; also the modified cycle's ledger at dn = 0
    w4 = -o1 * dn
    e2, e4 = w2 + q2, w4 + q4
    net = -(o2 - o1) * (n2 - n1 + dn)
    std = dict(
        W1=w1, W2=w2, W3=(o1 - o2) * (n2 + dn + 0.5), W3_prime=nan, W4=w4,
        Q2=q2, Q4=q4, E2=e2, E4=e4, cop=nan,
        eta=np.where((net <= 0.0) & (e2 > 0.0), 1.0 - o1 / o2, np.nan),
        regime=np.select(
            [net > 0.0, q2 >= 0.0, e4 > 0.0],
            ["NotEngine", "SubCarnotHybridEngine", "SuperCarnotEngineRefrigerator"],
            "SuperCarnotEngineHeatPump"),
        margins=(net, q2, e4, e2))
    if cycle == "standard":
        return std
    w3 = (o1 - o2) * (n2 + 0.5) - o2 * dn
    hot = n2 >= n1
    dual_net = (o2 - o1) * (n1 - n2) - o2 * dn
    dual = dual_net <= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mod = dict(
            W1=w1, W2=w2, W3=w3, W3_prime=w3, W4=0.0 * w1, Q2=q2, Q4=q4, E2=w2 + q2, E4=q4,
            cop=np.where(hot, np.nan, o1 / (o2 - o1)),
            eta=np.where(hot, 1.0 - o1 * (n2 - n1) / (o2 * (n2 - n1 + dn)),
                         np.where(dual, 1.0, np.nan)),
            regime=np.where(hot, "SubCarnotHybridEngine",
                            np.where(dual, "DualEngineRefrigerator", "NotEngine")),
            margins=(q2, np.where(hot, np.inf, dual_net)))
    fallback = dn == 0.0
    return {key: tuple(np.where(fallback, s, m) for s, m in zip(std[key], mod[key] + (np.inf,) * 2))
            if key == "margins" else np.where(fallback, std[key], mod[key]) for key in std}


@dataclass(frozen=True)
class Bath:
    """The bath flag of a command: squeezing r, displacement alpha, or a second-kind excess."""

    r: float = 0.0
    alpha: complex = 0j
    second_kind: float | None = None

    def flag(self) -> str:
        if self.second_kind is not None:
            return f"second-kind:{self.second_kind!r}"
        parts = []
        if self.r:
            parts.append(f"squeezed:{self.r!r}")
        if self.alpha:
            parts.append(f"displaced:{self.alpha.real!r},{self.alpha.imag!r}")
        return "+".join(parts) or "thermal"


@dataclass(frozen=True)
class SweepCase:
    """One `otto-forge sweep` command and what its table must satisfy.

    role "fig2" adds the regime-boundary check of the standard-cycle map,
    role "fig5" the efficiency-versus-excess curve check.
    """

    name: str
    cycle: str
    axis: str
    omega1: float
    omega2: float
    t1: float
    t2: float
    bath: Bath
    start: float
    stop: float
    steps: int
    format: str = "csv"
    role: str | None = None

    def argv(self, out: str | None) -> list[str]:
        argv = ["sweep", "--cycle", self.cycle, "--axis", self.axis,
                "--omega1", repr(self.omega1), "--omega2", repr(self.omega2),
                "--t1", repr(self.t1), "--t2", repr(self.t2), "--bath", self.bath.flag(),
                "--start", repr(self.start), "--stop", repr(self.stop),
                "--steps", str(self.steps), "--format", self.format]
        return argv + ["--out", out] if out else argv

    def expected(self, x: np.ndarray) -> tuple[dict, np.ndarray, np.ndarray]:
        """Expected ledger at axis values x, with omega1 and omega2 there."""
        o1, o2, t1, t2, bath = self.omega1, self.omega2, self.t1, self.t2, self.bath
        if self.axis == "frequency-ratio":
            o1 = x * o2
        elif self.axis == "cold-temperature":
            t1 = x
        if self.axis == "delta-n":
            dn = x
        elif bath.second_kind is not None:
            dn = bath.second_kind
        elif self.axis == "squeeze-r":
            dn = excess(bose(o2, t2), r=x)
        elif self.axis == "displacement":
            dn = excess(bose(o2, t2)) + x**2
        else:
            dn = excess(bose(o2, t2), bath.r, bath.alpha)
        o1, o2 = np.broadcast_arrays(np.asarray(o1, float), np.full(x.shape, o2))
        return expected_ledger(self.cycle, o1, o2, t1, t2, dn), o1, o2


def _columns(chunk: list, keyed: bool) -> dict:
    """Row chunk (lists of CSV cells, or JSON objects) to float columns; regime stays text."""
    cols = {}
    for i, name in enumerate(COLUMNS):
        raw = [row[name] for row in chunk] if keyed else [row[i] for row in chunk]
        if name == "regime":
            cols[name] = np.array(raw, dtype=str)
        elif keyed:
            cols[name] = np.array([np.nan if v is None else v for v in raw], dtype=float)
        else:
            cols[name] = np.array([v or "nan" for v in raw]).astype(float)
    return cols


def csv_chunks(lines):
    """Chunks of the package's CSV table, as column arrays (empty cells become NaN)."""
    reader = csv.reader(lines)
    header = tuple(next(reader))
    _require(header == COLUMNS, f"CSV header {header}")
    while chunk := list(islice(reader, CHUNK_ROWS)):
        _require(all(len(row) == len(COLUMNS) for row in chunk), "CSV row width")
        yield _columns(chunk, keyed=False)


def json_chunks(records: list):
    """Chunks of the package's JSON table (a list of objects), as column arrays."""
    _require(all(tuple(r) == COLUMNS for r in records), "JSON row keys")
    for i in range(0, len(records), CHUNK_ROWS):
        yield _columns(records[i:i + CHUNK_ROWS], keyed=True)


def _all(ok: np.ndarray, offset: int, what: str, *shown: np.ndarray) -> None:
    if not np.all(ok):
        i = int(np.argmin(ok))
        values = ", ".join(repr(a[i]) for a in shown)
        raise CheckError(f"row {offset + i}: {what} ({values})")


def _same(got: np.ndarray, want: np.ndarray, atol) -> np.ndarray:
    """Elementwise: both undefined, or both defined and within atol."""
    both_nan = np.isnan(got) & np.isnan(want)
    return both_nan | (np.abs(got - want) <= atol)


def check_sweep_table(case: SweepCase, chunks) -> int:
    """Check every row of a sweep table, given as column chunks; return the row count."""
    step = (case.stop - case.start) / (case.steps - 1)
    offset = 0
    prev_eta = -np.inf
    onset = hybrid = None
    for cols in chunks:
        n = len(cols["axis"])
        x, regime = cols["axis"], cols["regime"]
        grid = case.start + (offset + np.arange(n)) * step
        _all(np.abs(x - grid) <= 1e-12 * max(abs(case.start), abs(case.stop)), offset,
             "axis value off the grid", x, grid)
        _all(~np.char.startswith(regime, "error:"), offset, "error row", regime)
        want, o1, o2 = case.expected(x)
        scale = np.max([np.maximum(np.abs(cols[c]), np.abs(want[c])) for c in ENERGY_COLUMNS],
                       axis=0)
        atol = LEDGER_RTOL * scale
        for c in ENERGY_COLUMNS:
            _all(np.abs(cols[c] - want[c]) <= atol, offset, f"{c} off the closed form",
                 cols[c], want[c])
        closure = sum(cols[c] for c in ("W1", "W2", "W3", "W4", "Q2", "Q4"))
        _all(np.abs(closure) <= atol, offset, "first law does not close", closure)
        _all(cols["law_residual"] <= LEDGER_RTOL, offset, "law_residual", cols["law_residual"])
        _all(_same(cols["W3_prime"], np.where(np.isnan(want["W3_prime"]), np.nan, cols["W3"]), 0.0),
             offset, "W3_prime is not W3 of the modified cycle", cols["W3_prime"])
        clear = np.all([np.abs(m) > REGIME_MARGIN * scale for m in want["margins"]], axis=0)
        _all(~clear | (regime == want["regime"]), offset, "regime", regime, want["regime"])
        for c in ("eta", "cop"):
            _all(~clear | _same(cols[c], want[c], LEDGER_RTOL), offset, c, cols[c], want[c])
        if case.cycle == "standard":
            otto = 1.0 - o1 / o2
            _all(np.isnan(cols["eta"]) | (np.abs(cols["eta"] - otto) <= LEDGER_RTOL), offset,
                 "engine efficiency is not 1 - omega1/omega2", cols["eta"], otto)
        if case.role == "fig5":
            eta = cols["eta"]
            if offset == 0:
                _close(eta[0], 0.65, 1e-12, "fig5 eta at delta-n = 0")
            _all(np.diff(np.concatenate(([prev_eta], eta))) >= -1e-12, offset,
                 "fig5 eta decreases", eta)
            prev_eta = eta[-1]
        if case.role == "fig2":
            if onset is None and np.any(regime != "NotEngine"):
                onset = x[np.argmax(regime != "NotEngine")]
            if hybrid is None and np.any(regime == "SubCarnotHybridEngine"):
                hybrid = x[np.argmax(regime == "SubCarnotHybridEngine")]
        offset += n
    _require(offset == case.steps, f"{case.name}: {offset} rows, expected {case.steps}")
    if case.role == "fig2":
        n2 = float(bose(case.omega2, case.t2))
        theta = case.omega2 / math.log1p(1.0 / (n2 + excess(n2, case.bath.r, case.bath.alpha)))
        _require(onset is not None and abs(onset - case.t1 / theta) <= step,
                 f"{case.name}: engine onset at {onset}, expected T1/Theta = {case.t1 / theta}")
        _require(hybrid is not None and abs(hybrid - case.t1 / case.t2) <= step,
                 f"{case.name}: hybrid onset at {hybrid}, expected T1/T2 = {case.t1 / case.t2}")
    return offset


@dataclass(frozen=True)
class AuditCase:
    """One `otto-forge audit` command."""

    family: str
    samples: int
    seed: int

    def argv(self) -> list[str]:
        return ["audit", "--family", self.family, "--samples", str(self.samples),
                "--seed", str(self.seed)]


def check_audit(case: AuditCase, summary: dict) -> None:
    """The audit must pass with zero violations and self-consistent counts."""
    where = f"audit {case.family} seed {case.seed}"
    _require(summary.get("ok") is True, f"{where}: not ok: {summary}")
    for key in ("first_law_violations", "clausius_violations", "bound_violations"):
        _require(summary[key] == 0, f"{where}: {key} = {summary[key]}")
    _require((summary["samples"], summary["seed"], summary["family"])
             == (case.samples, case.seed, case.family), f"{where}: echo {summary}")
    ledgers = summary["ledgers"]
    if case.family == "second-kind":
        _require(ledgers == case.samples, f"{where}: {ledgers} ledgers")
    else:
        _require(case.samples <= ledgers <= 2 * case.samples, f"{where}: {ledgers} ledgers")
    for key in ("engines", "clausius_checked", "bound_checked"):
        _require(0 <= summary[key] <= ledgers, f"{where}: {key} = {summary[key]}")
    _require(0.0 <= summary["max_first_law_residual"] <= LEDGER_RTOL,
             f"{where}: residual {summary['max_first_law_residual']}")


@dataclass(frozen=True)
class OracleCase:
    """One `otto-forge ergotropy --oracle` command on a squeezed displaced thermal state."""

    n_th: float
    r: float
    alpha: complex
    omega: float = 20.0
    tail_tol: float = 1e-12  # the CLI's default

    def argv(self) -> list[str]:
        return ["ergotropy", "--nth", repr(self.n_th), "--r", repr(self.r),
                "--alpha-re", repr(self.alpha.real), "--alpha-im", repr(self.alpha.imag),
                "--omega", repr(self.omega), "--oracle"]


def check_oracle(case: OracleCase, payload: dict) -> None:
    """Analytic fields from the closed forms; oracle fields within the tail tolerance.

    Mass up to tail_tol left unresolved at levels up to the cutoff N moves
    the energy by at most omega N tail_tol, and the entropy by at most
    tail_tol (1 + ln(N / tail_tol)).
    """
    where = f"oracle {case}"
    dn = float(excess(case.n_th, case.r, case.alpha))
    w = case.omega * dn
    _close(payload["delta_n"], dn, 1e-12 * (dn + 1.0), f"{where} delta_n")
    _close(payload["ergotropy"], w, 1e-12 * (w + 1.0), f"{where} ergotropy")
    _close(payload["energy"], case.omega * (case.n_th + dn + 0.5), 1e-12 * (w + case.omega),
           f"{where} energy")
    _require(payload["nonclassical"] == (case.r > 0.0 and case.n_th < math.expm1(2 * case.r) / 2),
             f"{where}: nonclassical {payload['nonclassical']}")
    cutoff = payload["oracle_cutoff"]
    _require(isinstance(cutoff, int) and 1 <= cutoff <= 4096, f"{where}: cutoff {cutoff}")
    tol = case.tail_tol
    _require(abs(payload["trace_deficit"]) <= tol, f"{where}: trace deficit {payload['trace_deficit']}")
    _close(payload["ergotropy_fock"], w, case.omega * cutoff * tol, f"{where} ergotropy_fock")
    _close(payload["entropy_fock"], entropy(case.n_th), tol * (1.0 + math.log(cutoff / tol)),
           f"{where} entropy_fock")
