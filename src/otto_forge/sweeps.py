"""Parameter sweeps, tabular emission, and randomized law-audit campaigns.

Sweeps walk a uniform, endpoint-inclusive grid along one axis of a base
cycle configuration and evaluate the chosen cycle at every point. Per-point
physics and arithmetic errors (e.g. an invalid second-kind excess, a
squeezing too large for a double, or a ledger entry beyond the double range)
become row-level flags; a sweep never aborts. Rows come back in axis order.

The delta-n axis deserves a note: for a second-kind bath it sets the excess
directly, while for squeezed or displaced baths the bath parameter (r or
|alpha|) is re-solved at every grid point so that the stroke-2 excess equals
the axis value. That makes efficiency-versus-excess sweeps bath-agnostic.

Sweeps and audits run on columns. `sweep_blocks` cuts a sweep's grid into
blocks of 4096 rows, evaluates the odd ones of a table of 6144 rows or more in
a forked child where a second CPU is free, and yields each block's CSV or JSON
bytes before it evaluates the next but one, so its memory does not grow with
the steps: for each block
it builds the omega1, T1 and delta_n columns of its axis, makes one call of
the ledger kernel, `cycles.ledger_columns`, and formats the rows through a row
template built from what the block holds. A column of one value in the block
is formatted once, into the template, and a nullable one once per distinct
value: the text of each cell is unchanged. `emit_table` formats a table
already evaluated in the same blocks. One map from table column to ledger
attribute gives `TABLE_COLUMNS`, the cells of a block and `ledger_record`, the
same columns read from one StrokeLedger. An audit draws one matrix of uniforms
per chunk of samples, a row per sample, decodes it with array arithmetic,
evaluates each family with one kernel call and tallies its checks as array
reductions. Every transcendental, power and complex modulus comes from a
column form in `cycles`, one `cycles.rowwise` call, which rounds as the scalar
path does (see the `cycles` docstring). So a table, or an audit of its drawn
samples, is byte-identical to one built row by row with the scalar evaluators.
"""

from __future__ import annotations

import functools
import gc
import io
import json
import math
import os
import signal
import threading
import warnings
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from .errors import NotApplicable
from .fock import _cpus_beside
from .cycles import (
    INEQUALITY_TOL,
    CycleConfig,
    CycleKind,
    DisplacedThermalBath,
    LawReport,
    LedgerColumns,
    SecondKindBath,
    SqueezedThermalBath,
    StrokeLedger,
    check_applicable,
    excess_excitation_column,
    ledger_columns,
    libm_column,
    occupation_column,
    rowwise,
    _REGIMES,
)

# Each float column of the table, with the StrokeLedger and LedgerColumns
# attribute it shows; the table puts them between axis and regime.
_LEDGER_FLOATS = {
    "W1": "w1", "W2": "w2", "W3": "w3", "W3_prime": "w3_prime", "W4": "w4",
    "Q2": "q2", "Q4": "q4", "E2": "e2", "E4": "e4", "eta": "eta", "cop": "cop",
}
TABLE_COLUMNS = ("axis", *_LEDGER_FLOATS, "regime", "law_residual")


def ledger_record(ledger: StrokeLedger, law: LawReport) -> dict:
    """The table columns after `axis` for one ledger and its law audit."""
    record = {column: getattr(ledger, name) for column, name in _LEDGER_FLOATS.items()}
    return record | {"regime": ledger.regime.value, "law_residual": law.first_law_residual}


class SweepAxis(Enum):
    FREQUENCY_RATIO = "frequency-ratio"
    DELTA_N = "delta-n"
    SQUEEZE_R = "squeeze-r"
    DISPLACEMENT_MAG = "displacement"
    COLD_TEMPERATURE = "cold-temperature"


# The largest grid a sweep accepts. It bounds run time, not memory: a sweep
# holds its grid and one block of rows at a time.
MAX_STEPS = 10**7


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
        if self.steps > MAX_STEPS:
            raise ValueError(f"steps must be at most {MAX_STEPS}, got {self.steps}")
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

    def columns(self, grid: np.ndarray) -> LedgerColumns:
        """The ledger columns at the axis values `grid`, from one kernel call."""
        base = self.base
        errors = np.full(len(grid), None, dtype=object)
        omega1, t1 = base.omega1, base.t1
        if self.axis is SweepAxis.FREQUENCY_RATIO:
            omega1 = grid * base.omega2
        elif self.axis is SweepAxis.COLD_TEMPERATURE:
            t1 = grid
        dn = self._excess(grid, errors)
        return ledger_columns(self.cycle_kind, omega1, base.omega2, t1, base.t2, dn, errors)

    def _excess(self, grid: np.ndarray, errors: np.ndarray) -> np.ndarray:
        """The bath's delta_n at each grid point; a row whose bath fails gets its error."""
        base, axis, bath = self.base, self.axis, self.base.bath
        if isinstance(bath, SecondKindBath) and axis is SweepAxis.DELTA_N:
            return grid
        if axis in (SweepAxis.FREQUENCY_RATIO, SweepAxis.COLD_TEMPERATURE):
            return rowwise(bath.excess_for, errors, base.omega2, base.t2)
        # the axis moves the bath: the Gibbs state at n2 is dressed anew at each point
        n2 = occupation_column(base.omega2, base.t2, errors)
        r, alpha = 0.0, 0j
        if axis is SweepAxis.SQUEEZE_R:
            r = grid
        elif axis is SweepAxis.DISPLACEMENT_MAG:
            # Each part of value * phase is a product plus an exact zero in numpy as in
            # Python, so |alpha| is the scalar one; the parts of phase are at most 1
            # in size, so alpha is finite.
            alpha = grid * (bath.alpha / abs(bath.alpha) if bath.alpha else 1.0)
        elif isinstance(bath, SqueezedThermalBath):
            # delta-n: re-solve the bath knob so the stroke-2 excess equals the axis value
            r = libm_column(math.asinh, libm_column(math.sqrt, grid / (2.0 * n2 + 1.0)))
        else:
            alpha = libm_column(math.sqrt, grid)
        return excess_excitation_column(n2, r, alpha, errors)


class SweepRow:
    """One grid point: the axis value plus either a ledger+audit or an error flag.

    A view of one row of a SweepTable; the ledger and its audit are made
    from the table's columns when read.
    """

    __slots__ = ("axis_value", "_columns", "_index")

    def __init__(self, axis_value: float, columns: LedgerColumns, index: int) -> None:
        self.axis_value = axis_value
        self._columns = columns
        self._index = index

    @property
    def error(self) -> str | None:
        exc = self._columns.errors[self._index]
        return None if exc is None else f"{type(exc).__name__}: {exc}"

    @property
    def ledger(self) -> StrokeLedger | None:
        return None if self.error is not None else self._columns.ledger(self._index)

    @property
    def law(self) -> LawReport | None:
        return None if self.error is not None else self._columns.law(self._index)


class SweepTable(Sequence):
    """A sweep's rows held as columns: the axis grid and the ledger columns.

    An integer index gives a SweepRow, and a slice a SweepTable of those rows.
    """

    def __init__(self, axis: np.ndarray, columns: LedgerColumns) -> None:
        self.axis = axis
        self.columns = columns

    def __len__(self) -> int:
        return len(self.axis)

    def __getitem__(self, index: int | slice) -> SweepRow | SweepTable:
        if isinstance(index, slice):
            return SweepTable(self.axis[index], self.columns.row_slice(index))
        i = range(len(self.axis))[index]
        return SweepRow(self.axis[i].item(), self.columns, i)


def run_sweep(spec: SweepSpec) -> SweepTable:
    """Evaluate the sweep, one row per grid point, in axis order."""
    grid = spec.grid()
    return SweepTable(grid, spec.columns(grid))


# Columns that may be undefined (empty in CSV, null in JSON); the row of each
# format, with a "%s" for each column's field; and the templates of a failed
# row, which has only its axis value and its regime cell, "error:<error>".
_NULLABLE = ("W3_prime", "eta", "cop")
_CSV_FRAME = ",".join(["%s"] * len(TABLE_COLUMNS)) + "\r\n"
_JSON_FRAME = "{" + ", ".join(f'"{c}": %s' for c in TABLE_COLUMNS) + "}"
_CSV_ERROR = _CSV_FRAME % tuple({"axis": "%.17g", "regime": "%s"}.get(c, "") for c in TABLE_COLUMNS)
_JSON_ERROR = _JSON_FRAME % tuple({"axis": "%r", "regime": "%s"}.get(c, "null") for c in TABLE_COLUMNS)

# Rows evaluated, formatted and written at a time: bounds a sweep's memory.
_BLOCK_ROWS = 4096
# The fewest rows whose odd blocks a forked child encodes: below them the parent's
# copy-on-write faults after the fork cost more than the child's rows save.
_FORK_ROWS = 3 * _BLOCK_ROWS // 2


def _block_rows(table: SweepTable, number_format: str, null: str, text_cell, frame: str,
                error_format: str) -> list[str]:
    """The rows of a table piece, from one row template, `frame` % fields, built for its block.

    A column of one value in the block (one regime, or the same bits: -0.0 is not 0.0,
    a NaN is itself) is formatted once, into the template; a nullable or regime column
    that varies, once per distinct value; other floats go through `number_format`.
    """
    c = table.columns
    columns = (table.axis, *(getattr(c, name) for name in _LEDGER_FLOATS.values()),
               c.regime, c.law_residual)
    fields, cells = [], []
    for column, values in zip(TABLE_COLUMNS, columns):
        if column == "regime":  # a regime column holds indices into _REGIMES
            texts, index = [text_cell(tag.value) for tag in _REGIMES], values
        else:
            bits = values.view(np.int64)
            varies = (bits != bits[0]).any()
            if varies and column not in _NULLABLE:
                fields.append(number_format)
                cells.append(values.tolist())
                continue
            distinct, index = np.unique(bits if varies else bits[:1], return_inverse=True)
            texts = [null if column in _NULLABLE and math.isnan(x) else number_format % x
                     for x in distinct.view(np.float64).tolist()]
        if index.min() == index.max():
            fields.append(texts[index[0]].replace("%", "%%"))
        else:
            fields.append("%s")
            cells.append(np.array(texts, dtype=object)[index].tolist())
    template = frame % tuple(fields)
    lines = [template % cell for cell in zip(*cells)] if cells else [template % ()] * len(table)
    for i in np.flatnonzero(c.failed).tolist():
        lines[i] = error_format % (table.axis[i].item(), text_cell("error:" + table[i].error))
    return lines


def _csv_text(cell: str) -> str:
    """A text cell quoted as the csv module's QUOTE_MINIMAL quotes it."""
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _csv_piece(table: SweepTable) -> str:
    return "".join(_block_rows(table, "%.17g", "", _csv_text, _CSV_FRAME, _CSV_ERROR))


def _json_piece(table: SweepTable) -> str:
    strict_json = functools.partial(json.dumps, allow_nan=False)
    return ", ".join(_block_rows(table, "%r", "null", strict_json, _JSON_FRAME, _JSON_ERROR))


def _table_chunks(size: int, block, format: str) -> Iterator[bytes]:
    """The encoded text of each block(rows) of a `size`-row table: head first, tail last.

    In a table of `_FORK_ROWS` or more, a child from `_fork_encoder` encodes the odd blocks
    where one can start. Once it stops, for any reason, they are encoded here: the bytes
    and raises are the serial ones.
    """
    if format == "csv":
        piece, head, separator, tail = _csv_piece, ",".join(TABLE_COLUMNS) + "\r\n", "", ""
    elif format == "json":
        piece, head, separator, tail = _json_piece, "[", ", ", "]"
    else:
        raise ValueError(f"unknown table format {format!r} (expected 'csv' or 'json')")

    def encode(start: int) -> bytes:
        text = (separator if start else head) + piece(block(slice(start, start + _BLOCK_ROWS)))
        return (text + tail if start + _BLOCK_ROWS >= size else text).encode("utf-8")

    starts = range(0, size, _BLOCK_ROWS)
    pid, pipe = _fork_encoder(starts[1::2], encode) if size >= _FORK_ROWS else (0, None)
    try:
        for i, start in enumerate(starts):
            yield (_received(pipe) if i % 2 and pid else b"") or encode(start)
    finally:  # the end of the table, a raise or close(): no child outlives it
        if pid:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _fork_encoder(starts: range, encode) -> tuple[int, io.BufferedReader | None]:
    """(pid, pipe): a forked child on the CPUs beside this one sends each encode(start) of
    `starts` after its 8-byte length, one chunk ahead at most (the pipe fills). (0, None)
    without `os.fork` or a second CPU, or beside another Python thread.
    """
    cpus = _cpus_beside() if hasattr(os, "fork") and threading.active_count() == 1 else None
    if not cpus:
        return 0, None
    read, write = os.pipe()
    with warnings.catch_warnings():  # Python 3.12 warns of BLAS threads, which the child never uses
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # any failure, a broken pipe too, ends the child quietly
        try:
            gc.freeze()  # the parent's garbage is the parent's to finalise
            os.close(read)
            os.sched_setaffinity(0, cpus)
            with open(write, "wb") as out:
                for chunk in map(encode, starts):
                    out.write(len(chunk).to_bytes(8, "little") + chunk)
                    out.flush()
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def _received(pipe: io.BufferedReader) -> bytes:
    """The child's next chunk from `pipe`, or b"" once the child has stopped."""
    head = pipe.read(8)
    size = int.from_bytes(head, "little") if len(head) == 8 else 0
    chunk = pipe.read(size)
    return chunk if len(chunk) == size else b""


def emit_table(rows: SweepTable, format: str = "csv") -> bytes:
    """Serialise sweep rows as RFC-4180 CSV or JSON (one object per row).

    CSV floats carry 17 significant digits, enough to round-trip doubles
    exactly; the JSON form round-trips bit-exactly through json.loads. Only
    error-row regime cells can need CSV quoting. It formats the blocks of
    `sweep_blocks`, each from a row template (see `_block_rows`).
    """
    if not len(rows):
        raise ValueError("emit_table needs at least one row")
    out = io.BytesIO()  # one growing buffer: a join would hold every chunk beside its result
    out.writelines(_table_chunks(len(rows), rows.__getitem__, format))
    return out.getvalue()


def sweep_blocks(spec: SweepSpec, format: str) -> Iterator[bytes]:
    """The bytes of `emit_table(run_sweep(spec), format)`, one encoded block at a time.

    Each even block is evaluated only once the one before it has been taken; an
    odd one may be evaluated ahead, in a forked child (see `_table_chunks`), by
    at most one block. A sweep whose first block raises yields nothing.
    """
    grid = spec.grid()
    yield from _table_chunks(
        len(grid), lambda rows: SweepTable(grid[rows], spec.columns(grid[rows])), format)


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

# Energy closure is checked relative to the energy scale; the inequalities
# of `LedgerColumns.laws` get the absolute slack cycles.INEQUALITY_TOL.
_FIRST_LAW_TOL = 1e-9

# Samples drawn and evaluated at a time: bounds the memory of a campaign.
_AUDIT_CHUNK = 2048

# The largest campaign an audit accepts: about 2 minutes, 120 s (mixed) and
# 130 s (first-kind) in-process, 1 BLAS thread, on a 2-core Xeon host.
MAX_SAMPLES = 10**8


# One drawn configuration: r and alpha dress a first-kind bath (thermal,
# squeezed, displaced, or both); excess is a second-kind bath's delta_n.
# n2 = occupation(omega2, T2) is the Gibbs occupation either bath starts from.
_DRAW = np.dtype([
    ("omega1", float), ("omega2", float), ("t1", float), ("t2", float),
    ("second_kind", bool), ("r", float), ("alpha", complex), ("excess", float),
    ("n2", float),
])


# The unit draws of one sample, a row of the audit's uniform stream: omega2,
# frequency ratio, T2, T1 factor, kind (`mixed` only), second-kind excess
# factor or r, |alpha|, phase, first-kind bath choice.
_DRAW_COLUMNS = 9


def _uniform(lo: float, hi: float, u: np.ndarray) -> np.ndarray:
    """The unit draws `u` scaled to [lo, hi)."""
    return lo + (hi - lo) * u


def _decode(family: str, u: np.ndarray) -> np.ndarray:
    """_DRAW records from `u`, one row of _DRAW_COLUMNS unit draws per sample."""
    drawn = np.zeros(len(u), dtype=_DRAW)
    omega2 = drawn["omega2"] = _uniform(1.0, 100.0, u[:, 0])
    ratio = u[:, 1]
    drawn["omega1"] = omega2 * np.where(ratio > 0.0, ratio, 1e-6)
    t2 = drawn["t2"] = _uniform(0.0, 50.0, u[:, 2])
    drawn["t1"] = u[:, 3] * t2
    errors = np.full(len(u), None, dtype=object)
    n2 = drawn["n2"] = occupation_column(omega2, t2, errors)
    _raise_first_error(errors)

    second = u[:, 4] >= 0.5 if family == "mixed" else np.full(len(u), family == "second-kind")
    drawn["second_kind"] = second
    n2_second = n2[second]
    drawn["excess"][second] = u[second, 5] * (n2_second + 2.0) - n2_second  # n2 + excess >= 0

    # a first-kind sample's bath: thermal, squeezed, displaced, squeezed and displaced
    choice = (4.0 * u[:, 8]).astype(int)
    squeezed = ~second & (choice % 2 == 1)
    drawn["r"][squeezed] = _uniform(0.0, 1.5, u[squeezed, 5])
    displaced = ~second & (choice >= 2)
    phase = _uniform(0.0, 2.0 * math.pi, u[displaced, 7])
    drawn["alpha"][displaced] = _uniform(0.0, 3.0, u[displaced, 6]) * np.exp(1j * phase)
    return drawn


def _draw_chunks(rng: np.random.Generator, family: str, sizes: Iterable[int]):
    """The audit samples of `rng`, as one array of _DRAW records per size in `sizes`.

    Sample i decodes row i of `rng`'s uniform stream, whatever the sizes, so
    the chunks join into the samples of one draw of their total size.
    """
    for count in sizes:
        yield _decode(family, rng.random((count, _DRAW_COLUMNS)))


def _raise_first_error(errors: np.ndarray) -> None:
    """Raise the exception of the first failed row, if any."""
    failed = np.flatnonzero(np.not_equal(errors, None))
    if failed.size:
        raise errors[failed[0]]


def _tally(counts: dict, columns: LedgerColumns) -> None:
    """Add the ledgers and their law checks to AuditSummary's counters.

    Raises the first failed row's error, also one that the law checks found.
    """
    laws = columns.laws
    _raise_first_error(columns.errors)
    if not len(columns):
        return
    residual = columns.law_residual
    counts["ledgers"] += len(columns)
    counts["engines"] += int(np.count_nonzero(~np.isnan(columns.eta)))
    counts["max_first_law_residual"] = max(counts["max_first_law_residual"], residual.max().item())
    counts["first_law_violations"] += int(np.count_nonzero(residual > _FIRST_LAW_TOL))
    counts["clausius_checked"] += int(np.count_nonzero(~np.isnan(laws.clausius)))
    counts["clausius_violations"] += int(np.count_nonzero(laws.clausius > INEQUALITY_TOL))
    counts["bound_checked"] += int(np.count_nonzero(~np.isnan(laws.bound)))
    counts["bound_violations"] += int(np.count_nonzero(laws.value > laws.bound + INEQUALITY_TOL))


def audit_campaign(samples: int, seed: int, family: str = "mixed") -> AuditSummary:
    """Audit the thermodynamic laws over `samples` random configurations.

    Configurations are drawn uniformly from a generator seeded by `seed`:
    omega2 in [1, 100), omega1 = ratio * omega2 with ratio in [0, 1) (a ratio
    of 0 is replaced by 1e-6), T2 in [0, 50), T1 = factor * T2 with factor in
    [0, 1), squeezing in [0, 1.5) and |alpha| in [0, 3). Sample i decodes
    row i of the generator's stream of uniforms, nine to a row, which is the
    same whatever the chunks it is drawn in, so the summary depends only on
    `samples`, `seed` and `family`. First-kind samples audit the standard
    cycle and, when the bath is non-passive, the modified one; second-kind
    samples the second-kind one. Their law checks are `LedgerColumns.laws`
    (Clausius sums, eta against 1 - T1/Theta, a dual COP against T1/(T2 - T1)).
    """
    samples = int(samples)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise ValueError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    if family not in _AUDIT_FAMILIES:
        raise ValueError(f"family must be one of {_AUDIT_FAMILIES}, got {family!r}")

    rng = np.random.default_rng(seed)
    # AuditSummary's counters, the fields after samples, seed and family
    counts = dict.fromkeys((f.name for f in fields(AuditSummary)[3:]), 0)
    counts["max_first_law_residual"] = 0.0
    sizes = (min(_AUDIT_CHUNK, samples - start) for start in range(0, samples, _AUDIT_CHUNK))
    for drawn in _draw_chunks(rng, family, sizes):
        second = drawn["second_kind"]
        for rows, audit in ((~second, _audit_first_kind), (second, _audit_second_kind)):
            if rows.any():  # a family with no rows in the chunk has nothing to audit
                audit(drawn[rows], counts)

    return AuditSummary(samples=samples, seed=int(seed), family=family, **counts)


def _audit_first_kind(drawn: np.ndarray, counts: dict) -> None:
    omega1, omega2, t1, t2, n2 = (drawn[name] for name in ("omega1", "omega2", "t1", "t2", "n2"))
    errors = np.full(len(drawn), None, dtype=object)
    # dressed_excess, a column at a time
    dn = excess_excitation_column(n2, drawn["r"], drawn["alpha"], errors)
    ledgers = ledger_columns(CycleKind.STANDARD, omega1, omega2, t1, t2, dn, errors, n2=n2)
    # raises unless every row succeeded, so the modified call gets valid n1 and n2
    _tally(counts, ledgers)
    nonpassive = dn > 0.0
    modified = ledger_columns(
        CycleKind.MODIFIED, omega1[nonpassive], omega2[nonpassive], t1[nonpassive],
        t2[nonpassive], dn[nonpassive], n1=ledgers.n1[nonpassive], n2=n2[nonpassive],
    )
    _tally(counts, modified)


def _audit_second_kind(drawn: np.ndarray, counts: dict) -> None:
    ledgers = ledger_columns(
        CycleKind.SECOND_KIND, drawn["omega1"], drawn["omega2"], drawn["t1"], drawn["t2"],
        drawn["excess"], n2=drawn["n2"],
    )
    _tally(counts, ledgers)
