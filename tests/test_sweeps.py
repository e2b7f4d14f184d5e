"""Sweeps: grids, regime boundaries, table emission, audit campaigns."""

import csv
import dataclasses
import io
import json
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otto_forge import (
    CycleConfig,
    CycleKind,
    DisplacedThermalBath,
    NotApplicable,
    RegimeTag,
    SecondKindBath,
    SqueezedDisplacedBath,
    SqueezedThermalBath,
    SweepAxis,
    SweepSpec,
    ThermalBath,
    audit_campaign,
    audit_laws,
    emit_table,
    fictitious_temperature,
    modified_cycle,
    occupation,
    run_sweep,
    second_kind_cycle,
    standard_cycle,
)
from otto_forge import cycles, sweeps
from otto_forge.cli import main
from otto_forge.cycles import cycle_columns, ledger_columns
from otto_forge.sweeps import (
    _AUDIT_CHUNK,
    _BLOCK_ROWS,
    _DRAW,
    MAX_SAMPLES,
    TABLE_COLUMNS,
    SweepTable,
    _decode,
    _draw_chunks,
    ledger_record,
    sweep_blocks,
)

FIG5_BASE = CycleConfig(7, 20, 2, 10, SqueezedThermalBath(0.5))


def row_record(row):
    """A sweep row flattened to the table schema, built from its ledger objects."""
    if row.error is not None:
        return dict.fromkeys(TABLE_COLUMNS) | {
            "axis": row.axis_value, "regime": f"error:{row.error}"
        }
    return {"axis": row.axis_value} | ledger_record(row.ledger, row.law)


def reference_table(rows, format):
    """The table of `rows` written by the csv module or json.dumps from row_record."""
    records = [row_record(row) for row in rows]
    if format == "json":
        return "[" + ", ".join(json.dumps(r, allow_nan=False) for r in records) + "]"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(TABLE_COLUMNS)
    for record in records:
        writer.writerow("" if v is None else f"{v:.17g}" if isinstance(v, float) else v
                        for v in record.values())
    return buffer.getvalue()


def fig5_delta_n_spec(steps=101):
    return SweepSpec(
        base=FIG5_BASE,
        axis=SweepAxis.DELTA_N,
        start=0.0,
        stop=1.0,
        steps=steps,
        cycle_kind=CycleKind.MODIFIED,
    )


class TestSweepSpecValidation:
    def test_steps_must_be_at_least_two(self):
        with pytest.raises(ValueError):
            SweepSpec(FIG5_BASE, SweepAxis.SQUEEZE_R, 0.0, 1.0, steps=1)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(ValueError):
            SweepSpec(FIG5_BASE, SweepAxis.SQUEEZE_R, 1.0, 0.5, steps=5)

    def test_frequency_ratio_domain(self):
        with pytest.raises(ValueError):
            SweepSpec(FIG5_BASE, SweepAxis.FREQUENCY_RATIO, 0.0, 1.0, steps=5)
        with pytest.raises(ValueError):
            SweepSpec(FIG5_BASE, SweepAxis.FREQUENCY_RATIO, 0.5, 1.5, steps=5)

    def test_axis_bath_compatibility(self):
        thermal = CycleConfig(7, 20, 2, 10, ThermalBath())
        with pytest.raises(ValueError):
            SweepSpec(thermal, SweepAxis.DELTA_N, 0.0, 1.0, steps=5)
        with pytest.raises(ValueError):
            SweepSpec(thermal, SweepAxis.SQUEEZE_R, 0.0, 1.0, steps=5)
        displaced = CycleConfig(7, 20, 2, 10, DisplacedThermalBath(1.0))
        with pytest.raises(ValueError):
            SweepSpec(displaced, SweepAxis.SQUEEZE_R, 0.0, 1.0, steps=5)
        with pytest.raises(ValueError):
            SweepSpec(FIG5_BASE, SweepAxis.DISPLACEMENT_MAG, 0.0, 1.0, steps=5)

    @pytest.mark.parametrize(
        "bath, kind",
        [
            (SqueezedThermalBath(0.5), CycleKind.SECOND_KIND),
            (DisplacedThermalBath(1.0), CycleKind.SECOND_KIND),
            (ThermalBath(), CycleKind.SECOND_KIND),
            (SecondKindBath(excess=0.2), CycleKind.STANDARD),
            (SecondKindBath(excess=0.2), CycleKind.MODIFIED),
            (ThermalBath(), CycleKind.MODIFIED),
            (SqueezedDisplacedBath(0.5, 1.0), CycleKind.SECOND_KIND),
        ],
    )
    def test_cycle_bath_pair_that_never_applies(self, bath, kind):
        base = CycleConfig(7, 20, 2, 10, bath)
        with pytest.raises(ValueError, match="does not apply"):
            SweepSpec(base, SweepAxis.FREQUENCY_RATIO, 0.1, 1.0, 5, kind)
        with pytest.raises(NotApplicable, match="does not apply"):
            cycle_columns(kind, base).ledger(0)

    @pytest.mark.parametrize(
        "bath, kind",
        [
            (ThermalBath(), CycleKind.STANDARD),
            (SqueezedThermalBath(0.5), CycleKind.MODIFIED),
            (DisplacedThermalBath(1.0), CycleKind.MODIFIED),
            (SecondKindBath(excess=0.2), CycleKind.SECOND_KIND),
            (SqueezedThermalBath(0.5), CycleKind.STANDARD),
            (DisplacedThermalBath(1.0), CycleKind.STANDARD),
            (SqueezedDisplacedBath(0.5, 1.0), CycleKind.STANDARD),
            (SqueezedDisplacedBath(0.5, 1.0), CycleKind.MODIFIED),
        ],
    )
    def test_cycle_bath_pair_that_applies(self, bath, kind):
        base = CycleConfig(7, 20, 2, 10, bath)
        rows = run_sweep(SweepSpec(base, SweepAxis.FREQUENCY_RATIO, 0.1, 1.0, 5, kind))
        assert all(row.error is None for row in rows)
        cycle_columns(kind, base).ledger(0)  # raises no NotApplicable

    def test_cold_temperature_stays_below_t2(self):
        with pytest.raises(ValueError):
            SweepSpec(FIG5_BASE, SweepAxis.COLD_TEMPERATURE, 0.0, 11.0, steps=5)


class TestRunSweep:
    def test_fig5_sweep_shape_and_monotonicity(self):
        rows = run_sweep(fig5_delta_n_spec())
        assert len(rows) == 101
        assert all(row.error is None for row in rows)
        etas = [row.ledger.eta for row in rows]
        assert etas[0] == pytest.approx(0.65, abs=1e-12)
        assert etas[10] == pytest.approx(0.80529329383087463, abs=1e-4)
        assert all(b >= a for a, b in zip(etas, etas[1:]))
        assert all(row.law.first_law_residual < 1e-9 for row in rows)

    def test_delta_n_axis_hits_requested_excess(self):
        rows = run_sweep(fig5_delta_n_spec(steps=5))
        # W2 = omega2 * delta_n must track the axis
        for row in rows:
            assert row.ledger.w2 == pytest.approx(20 * row.axis_value, rel=1e-9, abs=1e-12)

    def test_delta_n_axis_for_displaced_bath_matches(self):
        base = CycleConfig(7, 20, 2, 10, DisplacedThermalBath(0.1))
        spec = SweepSpec(base, SweepAxis.DELTA_N, 0.0, 1.0, 11, CycleKind.MODIFIED)
        rows = run_sweep(spec)
        squeezed = run_sweep(fig5_delta_n_spec(steps=11))
        for a, b in zip(rows, squeezed):
            assert a.ledger.eta == pytest.approx(b.ledger.eta, abs=1e-12)

    def test_fig2_regime_boundaries(self):
        # squeezed bath fixes Theta; T1/Theta and T1/T2 must be bracketed
        # within one grid step by the regime transitions
        steps = 2001
        spec = SweepSpec(
            base=FIG5_BASE,
            axis=SweepAxis.FREQUENCY_RATIO,
            start=0.01,
            stop=1.0,
            steps=steps,
            cycle_kind=CycleKind.STANDARD,
        )
        rows = run_sweep(spec)
        step = (1.0 - 0.01) / (steps - 1)
        n2 = occupation(20, 10)
        dn = (2 * n2 + 1) * math.sinh(0.5) ** 2
        theta = 20 / math.log1p(1 / (n2 + dn))
        engine_boundary = 2 / theta
        carnot_boundary = 2 / 10

        first_engine = next(
            row.axis_value for row in rows if row.ledger.regime is not RegimeTag.NOT_ENGINE
        )
        assert abs(first_engine - engine_boundary) <= step

        first_positive_q2 = next(row.axis_value for row in rows if row.ledger.q2 >= 0.0)
        assert abs(first_positive_q2 - carnot_boundary) <= step

        for row in rows:
            if row.axis_value < engine_boundary - step:
                assert row.ledger.regime is RegimeTag.NOT_ENGINE
            elif engine_boundary + step < row.axis_value < carnot_boundary - step:
                assert row.ledger.regime is RegimeTag.SUPER_CARNOT_ENGINE_HEAT_PUMP
                assert row.ledger.q2 < 0.0
            elif row.axis_value > carnot_boundary + step:
                assert row.ledger.regime is RegimeTag.SUB_CARNOT_HYBRID_ENGINE
                assert row.ledger.q2 >= 0.0

    def test_w3_prime_column_is_w3_on_the_modified_split(self):
        columns = run_sweep(fig5_delta_n_spec()).columns
        assert not columns.split[0] and columns.split[1:].all()  # row 0 has delta_n = 0
        assert np.array_equal(np.isnan(columns.w3_prime), ~columns.split)
        assert np.array_equal(columns.w3_prime[columns.split], columns.w3[columns.split])
        for kind, dn in ((CycleKind.STANDARD, [0.0, 0.5]), (CycleKind.SECOND_KIND, [-0.1, 0.5])):
            assert np.isnan(ledger_columns(kind, 7.0, 20.0, 2.0, 10.0, dn).w3_prime).all()

    def test_per_point_errors_become_row_flags(self):
        base = CycleConfig(7, 20, 2, 10, SecondKindBath(excess=0.0))
        spec = SweepSpec(base, SweepAxis.DELTA_N, -1.0, 1.0, 9, CycleKind.SECOND_KIND)
        rows = run_sweep(spec)
        assert len(rows) == 9
        flagged = [row for row in rows if row.error is not None]
        clean = [row for row in rows if row.error is None]
        assert flagged and clean
        assert all("InvalidExcess" in row.error for row in flagged)

    def test_constant_axis_grid_yields_identical_ledgers(self):
        spec = SweepSpec(
            CycleConfig(7, 20, 2, 10, SecondKindBath(excess=0.0)),
            SweepAxis.COLD_TEMPERATURE,
            2.0,
            2.0 + 1e-15,
            2,
            CycleKind.SECOND_KIND,
        )
        rows = run_sweep(spec)
        assert rows[0].ledger.e2 == pytest.approx(rows[1].ledger.e2, rel=1e-12)


    # clean and failed rows, in a modified table (whose law columns check a
    # COP) and a second-kind one (whose law columns invert occupations)
    SLICED_SPECS = [
        SweepSpec(FIG5_BASE, SweepAxis.SQUEEZE_R, 300.0, 720.0, 43, CycleKind.MODIFIED),
        SweepSpec(CycleConfig(7, 20, 2, 10, SecondKindBath(excess=0.0)), SweepAxis.DELTA_N,
                  -1.0, 1.0, 9, CycleKind.SECOND_KIND),
    ]

    @pytest.mark.parametrize("spec", SLICED_SPECS, ids=["modified", "second-kind"])
    @pytest.mark.parametrize("rows", [
        slice(1, 3), slice(None, None, 3), slice(-4, -1), slice(-1, None, -2), slice(None),
        slice(5, 2), slice(50, 60), slice(-100, 2),
    ])
    def test_slices_agree_with_integer_indexing(self, spec, rows):
        table = run_sweep(spec)
        table.columns.laws  # the slice computes its own
        part = table[rows]
        indices = range(len(table))[rows]
        assert isinstance(part, SweepTable) and len(part) == len(indices)
        assert "laws" not in vars(part.columns)
        for j, i in enumerate(indices):
            assert part[j].axis_value == table[i].axis_value
            assert part[j].error == table[i].error
            if table[i].error is None:
                assert repr(part[j].ledger) == repr(table[i].ledger)
                assert repr(part[j].law) == repr(table[i].law)
        for computed, sliced in zip(part.columns.laws, table.columns.laws):
            np.testing.assert_array_equal(computed, sliced[rows])
        if indices:
            for format in ("csv", "json"):
                expected = reference_table([table[i] for i in indices], format)
                assert emit_table(part, format=format).decode() == expected


class TestFailedRows:
    """A failed row costs about what a clean row costs and keeps its first error."""

    SECOND_KIND_GRID = SweepSpec(
        CycleConfig(7, 20, 2, 10, SecondKindBath(excess=0.0)),
        SweepAxis.DELTA_N, -1.0, 1.0, 30_000, CycleKind.SECOND_KIND,
    )
    SQUEEZE_GRID = SweepSpec(FIG5_BASE, SweepAxis.SQUEEZE_R, 0.0, 1000.0, 30_000)

    @staticmethod
    def best_time(spec):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            run_sweep(spec)
            times.append(time.perf_counter() - start)
        return min(times)

    @pytest.mark.parametrize("spec", [SECOND_KIND_GRID, SQUEEZE_GRID], ids=["delta-n", "squeeze-r"])
    def test_many_failed_rows_stay_fast(self, spec):
        # about 40 % (delta-n) and 65 % (squeeze-r) of these rows fail; a
        # failure cost that grows with the table size takes seconds at 3e4 rows
        assert self.best_time(spec) < 1.0

    def test_invalid_excess_is_the_row_error(self):
        rows = run_sweep(self.SECOND_KIND_GRID)
        n2 = occupation(20, 10)
        for row in rows:
            if row.axis_value < -n2:
                assert row.error.startswith("InvalidExcess: excess ")
            else:
                assert row.error is None

    def test_bath_overflow_is_the_row_error(self):
        # sinh(r)**2 overflows above r = 355.6 and sinh(r) itself above
        # r = 710.5; those rows keep the bath's error, not the kernel's
        # "a ledger entry exceeds the double range"
        errors = {}
        for row in run_sweep(self.SQUEEZE_GRID):
            if row.axis_value > 711.0:
                errors.setdefault("sinh", set()).add(row.error)
            elif 356.0 < row.axis_value < 710.0:
                errors.setdefault("square", set()).add(row.error)
        assert errors == {
            "sinh": {"OverflowError: math range error"},
            "square": {"OverflowError: (34, 'Numerical result out of range')"},
        }

    # sinh(1e-160)^2 = 1e-320 is the hybrid engine's excess, and omega2 * excess
    # underflows to 0: its efficiency has no divisor
    VANISHING_DIVISOR = [
        "--omega1", "1e-300", "--omega2", "1e-300", "--t1", "0", "--t2", "0",
        "--bath", "squeezed:1e-160", "--cycle", "modified",
    ]

    def test_vanishing_hybrid_divisor_is_a_physics_error(self, capsys):
        code = main(["cycle", *self.VANISHING_DIVISOR])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == "physics error: ZeroDivisionError: float division by zero\n"

    def test_vanishing_hybrid_divisor_is_the_row_error(self, capsys):
        code = main([
            "sweep", *self.VANISHING_DIVISOR,
            "--axis", "squeeze-r", "--start", "0", "--stop", "1e-160", "--steps", "3",
        ])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out, newline="")))
        assert code == 0
        # r = 0 leaves nothing to undo: the standard ledger, without W3'
        assert (rows[0]["regime"], rows[0]["W3_prime"]) == ("SubCarnotHybridEngine", "")
        assert [row["regime"] for row in rows[1:]] == [
            "error:ZeroDivisionError: float division by zero"
        ] * 2


    # occupation(1e-300, 1e308) divides by expm1(1e-608) = 0
    @pytest.mark.parametrize("cycle", ["standard", "modified"])
    @pytest.mark.parametrize(
        "axis, bath",
        [
            ("frequency-ratio", "squeezed:0.5"),
            ("cold-temperature", "displaced:1,0.5"),
            ("squeeze-r", "squeezed:0.5"),
            ("displacement", "displaced:1,0.5"),
            ("delta-n", "squeezed:0.5"),
            ("delta-n", "displaced:1,0.5"),
        ],
    )
    def test_failing_base_occupation_is_every_row_error(self, capsys, axis, bath, cycle):
        code = main([
            "sweep", "--omega1", "1e-300", "--omega2", "1e-300", "--t1", "0", "--t2", "1e308",
            "--bath", bath, "--cycle", cycle, "--axis", axis,
            "--start", "0.5", "--stop", "1", "--steps", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out, newline="")))
        assert len(rows) == 5
        for row in rows:
            assert row["regime"] == "error:ZeroDivisionError: float division by zero"


class TestEmitTable:
    def test_single_row_csv_has_two_lines(self):
        spec = fig5_delta_n_spec(steps=2)
        grid = spec.grid()[:1]
        rows = SweepTable(grid, spec.columns(grid))
        payload = emit_table(rows, format="csv")
        lines = payload.decode().split("\r\n")
        assert lines[-1] == ""  # trailing CRLF
        assert len(lines) == 3
        assert lines[0] == ",".join(TABLE_COLUMNS)

    def test_csv_is_deterministic(self):
        spec = fig5_delta_n_spec(steps=21)
        assert emit_table(run_sweep(spec)) == emit_table(run_sweep(spec))

    def test_csv_floats_round_trip(self):
        rows = run_sweep(fig5_delta_n_spec(steps=11))
        payload = emit_table(rows, format="csv").decode()
        parsed = list(csv.reader(io.StringIO(payload)))
        assert parsed[0] == list(TABLE_COLUMNS)
        for row, raw in zip(rows, parsed[1:]):
            record = dict(zip(TABLE_COLUMNS, raw))
            assert float(record["W1"]) == row.ledger.w1
            assert float(record["eta"]) == row.ledger.eta
            assert record["regime"] == row.ledger.regime.value

    def test_json_round_trip_is_bit_exact(self):
        rows = run_sweep(fig5_delta_n_spec(steps=11))
        parsed = json.loads(emit_table(rows, format="json"))
        assert parsed == [row_record(row) for row in rows]

    def test_error_rows_flagged_in_both_formats(self):
        base = CycleConfig(7, 20, 2, 10, SecondKindBath(excess=0.0))
        spec = SweepSpec(base, SweepAxis.DELTA_N, -1.0, 0.0, 3, CycleKind.SECOND_KIND)
        rows = run_sweep(spec)
        record = json.loads(emit_table(rows, format="json"))[0]
        assert record["regime"].startswith("error:InvalidExcess")
        assert record["W1"] is None
        csv_first = emit_table(rows, format="csv").decode().split("\r\n")[1]
        assert "error:InvalidExcess" in csv_first

    def test_tables_match_the_csv_module_and_json_dumps(self):
        # clean rows and both bath overflows, one of whose messages holds a
        # comma and so must be quoted in CSV
        spec = SweepSpec(FIG5_BASE, SweepAxis.SQUEEZE_R, 300.0, 720.0, 43, CycleKind.MODIFIED)
        rows = run_sweep(spec)
        records = [row_record(row) for row in rows]
        failed = {r["regime"] for r in records if r["regime"].startswith("error:")}
        assert {"," in regime for regime in failed} == {True, False}
        assert any(r["W1"] is not None for r in records)
        for format in ("csv", "json"):
            assert emit_table(rows, format=format).decode() == reference_table(rows, format)

    # The first block's axis rounds to 1.0 on every row, so each field of its
    # rows is written into the row template once; in the second the axis steps
    # to the next double halfway (a column of one value in one block that varies
    # in the next), and the third and fourth hold that double alone.
    CONSTANT_BLOCK = SweepSpec(FIG5_BASE, SweepAxis.COLD_TEMPERATURE, 1.0,
                               math.nextafter(1.0, 2.0), 3 * _BLOCK_ROWS + 1)
    # every row fails, with one of two OverflowError messages (one holds a comma)
    ALL_FAILED = SweepSpec(FIG5_BASE, SweepAxis.SQUEEZE_R, 600.0, 720.0, _BLOCK_ROWS + 5,
                           CycleKind.MODIFIED)

    @pytest.mark.parametrize("spec", [CONSTANT_BLOCK, ALL_FAILED],
                             ids=["constant-block", "all-failed"])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_block_templates_match_the_csv_module_and_json_dumps(self, spec, format):
        table = run_sweep(spec)
        expected = reference_table(table, format)
        assert emit_table(table, format=format).decode() == expected
        assert b"".join(sweep_blocks(spec, format)).decode() == expected

    def test_a_column_of_one_value_in_one_block_varies_in_the_next(self):
        lines = b"".join(sweep_blocks(self.CONSTANT_BLOCK, "csv")).decode().split("\r\n")
        assert len(set(lines[1:_BLOCK_ROWS + 1])) == 1
        second = {line.split(",")[0] for line in lines[_BLOCK_ROWS + 1:2 * _BLOCK_ROWS + 1]}
        assert second == {"1", "1.0000000000000002"}
        # the first block as a table of its own: every field is in its row template
        axis = self.CONSTANT_BLOCK.grid()[:_BLOCK_ROWS]
        block = SweepTable(axis, self.CONSTANT_BLOCK.columns(axis))
        for format in ("csv", "json"):
            assert emit_table(block, format=format).decode() == reference_table(block, format)

    def test_every_row_of_a_block_can_fail(self):
        records = json.loads(b"".join(sweep_blocks(self.ALL_FAILED, "json")))
        assert len(records) == _BLOCK_ROWS + 5
        assert all(r["regime"].startswith("error:") and r["W1"] is None for r in records)

    # W2 and eta as the kernel might write them: signed zeros, and NaN for an
    # undefined eta, mixed in the block or one value throughout
    @pytest.mark.parametrize("w2, eta, w2_cells, eta_cells", [
        ([0.0, -0.0, 0.0], [math.nan, -0.0, 0.0], ["0", "-0", "0"], ["", "-0", "0"]),
        ([-0.0] * 3, [-0.0] * 3, ["-0"] * 3, ["-0"] * 3),
        ([0.0] * 3, [math.nan] * 3, ["0"] * 3, [""] * 3),
    ], ids=["mixed", "negative-zero", "zero-and-nan"])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_signed_zeros_and_nan_keep_their_cells(self, w2, eta, w2_cells, eta_cells, format):
        table = run_sweep(fig5_delta_n_spec(steps=6))
        columns = dataclasses.replace(table.columns, w2=np.array(w2 * 2), eta=np.array(eta * 2))
        rows = SweepTable(table.axis, columns)
        text = emit_table(rows, format=format).decode()
        assert text == reference_table(rows, format)
        if format == "csv":
            cells = [dict(zip(TABLE_COLUMNS, row)) for row in csv.reader(io.StringIO(text))][1:]
            assert [cell["W2"] for cell in cells] == w2_cells * 2
            assert [cell["eta"] for cell in cells] == eta_cells * 2

    # a little over two blocks: the modified squeeze-r sweep fails from row
    # 1053 to the end, across both block boundaries, first where W2 overflows
    # and then where the bath does (two messages, one holding a comma); the
    # second-kind delta-n sweep has InvalidExcess rows that end mid-block
    @pytest.mark.parametrize("spec", [
        SweepSpec(FIG5_BASE, SweepAxis.SQUEEZE_R, 300.0, 720.0, 2 * _BLOCK_ROWS + 3,
                  CycleKind.MODIFIED),
        SweepSpec(CycleConfig(7, 20, 2, 10, SecondKindBath(excess=0.0)), SweepAxis.DELTA_N,
                  -1.0, 1.0, 2 * _BLOCK_ROWS + 3, CycleKind.SECOND_KIND),
    ], ids=["squeeze-r", "delta-n"])
    @pytest.mark.parametrize("format", ["csv", "json"])
    def test_blocks_write_the_whole_table(self, spec, format):
        table = run_sweep(spec)
        failed = [row.error is not None for row in table]
        assert any(failed) and not all(failed)
        chunks = list(sweep_blocks(spec, format))
        assert len(chunks) == 3  # one encoded piece per block
        assert b"".join(chunks) == emit_table(table, format=format)

    def test_cli_sweep_passes_at_most_one_block_per_kernel_call(self, capsys, monkeypatch):
        calls = []

        def recording(kind, omega1, omega2, t1, t2, dn, errors=None):
            calls.append(len(dn))
            return ledger_columns(kind, omega1, omega2, t1, t2, dn, errors)

        monkeypatch.setattr("otto_forge.sweeps.ledger_columns", recording)
        steps = 2 * _BLOCK_ROWS + 5
        code = main([
            "sweep", "--omega1", "7", "--omega2", "20", "--t1", "2", "--t2", "10",
            "--bath", "squeezed:0.5", "--axis", "frequency-ratio",
            "--start", "0.1", "--stop", "1", "--steps", str(steps),
        ])
        assert code == 0
        assert capsys.readouterr().out.count("\r\n") == steps + 1
        assert calls == [_BLOCK_ROWS, _BLOCK_ROWS, 5]

    def test_sweeps_compute_no_law_check(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a sweep computed the law checks")

        monkeypatch.setattr(cycles, "law_columns", refuse)
        spec = SweepSpec(FIG5_BASE, SweepAxis.FREQUENCY_RATIO, 1e-4, 1.0, 10_000)
        table = b"".join(sweep_blocks(spec, "csv"))
        assert table.count(b"\r\n") == 10_001
        assert len(json.loads(b"".join(sweep_blocks(spec, "json")))) == 10_000
        rows = run_sweep(spec)
        assert rows[0].ledger is not None
        with pytest.raises(AssertionError, match="computed the law checks"):
            rows[0].law

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_table([])

    def test_unknown_format_rejected(self):
        rows = run_sweep(fig5_delta_n_spec(steps=2))
        with pytest.raises(ValueError):
            emit_table(rows, format="parquet")


class TestAuditCampaign:
    def test_deterministic_for_fixed_seed(self):
        assert audit_campaign(50, seed=7) == audit_campaign(50, seed=7)

    def test_single_sample(self):
        summary = audit_campaign(1, seed=3)
        assert summary.samples == 1
        assert summary.ledgers >= 1

    def test_first_kind_family_is_clean(self):
        summary = audit_campaign(500, seed=11, family="first-kind")
        assert summary.ok
        assert summary.max_first_law_residual < 1e-9
        assert summary.clausius_violations == 0

    def test_second_kind_family_respects_carnot(self):
        summary = audit_campaign(500, seed=13, family="second-kind")
        assert summary.ok
        assert summary.bound_violations == 0
        assert summary.bound_checked > 50

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            audit_campaign(0, seed=1)
        with pytest.raises(ValueError):
            audit_campaign(10, seed=1, family="third-kind")
        with pytest.raises(ValueError):
            audit_campaign(10, seed=-1)
        with pytest.raises(ValueError, match="at most"):
            audit_campaign(MAX_SAMPLES + 1, seed=1)

    # 5000 samples make 3 chunks; a family with no rows in a chunk is not audited
    @pytest.mark.parametrize("family, first_calls, second_calls", [
        ("first-kind", 3, 0), ("second-kind", 0, 3), ("mixed", 3, 3),
    ])
    def test_audits_only_the_families_a_chunk_holds(
        self, monkeypatch, family, first_calls, second_calls
    ):
        expected = audit_campaign(5000, seed=7, family=family)
        calls = dict.fromkeys(("_audit_first_kind", "_audit_second_kind"), 0)
        for name in calls:
            def counted(drawn, counts, audit=getattr(sweeps, name), name=name):
                calls[name] += 1
                assert len(drawn)
                audit(drawn, counts)
            monkeypatch.setattr(sweeps, name, counted)
        assert audit_campaign(5000, seed=7, family=family) == expected
        assert calls == {"_audit_first_kind": first_calls, "_audit_second_kind": second_calls}

    # with chunks of 7 samples a chunk's family can hold a single row, which
    # the column forms evaluate by their one scalar call
    @pytest.mark.parametrize("family", ["first-kind", "second-kind", "mixed"])
    def test_summary_does_not_depend_on_the_chunk_size(self, monkeypatch, family):
        summaries = []
        for chunk in (7, 2048):
            monkeypatch.setattr(sweeps, "_AUDIT_CHUNK", chunk)
            summaries.append(audit_campaign(5000, seed=7, family=family))
        assert summaries[0] == summaries[1]


def first_kind_bath(r, alpha):
    """The bath an audit's first-kind sample dresses its Gibbs state with."""
    if r and alpha:
        return SqueezedDisplacedBath(r, alpha)
    if r:
        return SqueezedThermalBath(r)
    return DisplacedThermalBath(alpha) if alpha else ThermalBath()


def recount(family, seed, samples):
    """An audit's summary, recounted sample by sample with the scalar evaluators.

    Slacks as the audit's: 1e-9 relative on energy closure, 1e-12 absolute on
    the inequalities.
    """
    (drawn,) = _draw_chunks(np.random.default_rng(seed), family, [samples])
    counts = dict.fromkeys(
        ("ledgers", "engines", "first_law_violations", "clausius_checked",
         "clausius_violations", "bound_checked", "bound_violations"), 0)
    counts["max_first_law_residual"] = 0.0

    def tally(ledger, config, theta=None):
        law = audit_laws(ledger, config)
        counts["ledgers"] += 1
        counts["engines"] += ledger.eta is not None
        counts["max_first_law_residual"] = max(
            counts["max_first_law_residual"], law.first_law_residual)
        counts["first_law_violations"] += law.first_law_residual > 1e-9
        if law.clausius_sum is not None:
            counts["clausius_checked"] += 1
            counts["clausius_violations"] += law.clausius_sum > 1e-12
        if theta is None:  # the COP bound of a modified ledger
            value, checked = ledger.cop, ledger.cop is not None and config.t2 > config.t1
            bound = config.t1 / (config.t2 - config.t1) if checked else None
        else:  # 1 - T1/Theta on an engine
            value, checked = ledger.eta, ledger.eta is not None and theta > 0.0
            bound = 1.0 - config.t1 / theta if checked else None
        if checked:
            counts["bound_checked"] += 1
            counts["bound_violations"] += value > bound + 1e-12

    for omega1, omega2, t1, t2, second, r, alpha, excess, n2 in drawn.tolist():
        if second:
            config = CycleConfig(omega1, omega2, t1, t2, SecondKindBath(excess=excess))
            tally(second_kind_cycle(config), config, fictitious_temperature(omega2, n2, excess))
            continue
        config = CycleConfig(omega1, omega2, t1, t2, first_kind_bath(r, alpha))
        dn = config.bath.excess_for(omega2, t2)
        tally(standard_cycle(config), config, fictitious_temperature(omega2, n2, dn))
        if dn > 0.0:
            tally(modified_cycle(config), config)
    return counts


class TestAuditRecount:
    """Each audit counter is what `cycle`'s evaluators and law audit give sample by sample."""

    @pytest.mark.parametrize("family", ["first-kind", "second-kind", "mixed"])
    @pytest.mark.parametrize("seed", [5, 2**64])
    def test_counters_match_scalar_recount(self, family, seed):
        summary = audit_campaign(300, seed=seed, family=family)
        expected = recount(family, seed, 300)
        assert {name: getattr(summary, name) for name in expected} == expected
        assert summary.bound_checked > 0 and summary.clausius_checked > 0


def reference_sample(family, row):
    """One audit sample decoded from its row of unit draws with Python floats."""
    u = row.tolist()
    omega2 = 1.0 + 99.0 * u[0]
    omega1 = omega2 * (u[1] if u[1] > 0.0 else 1e-6)
    t2 = 50.0 * u[2]
    t1 = u[3] * t2
    n2 = occupation(omega2, t2)
    if family == "second-kind" or (family == "mixed" and u[4] >= 0.5):
        return omega1, omega2, t1, t2, True, 0.0, 0j, u[5] * (n2 + 2.0) - n2, n2
    choice = int(4.0 * u[8])  # thermal, squeezed, displaced, squeezed and displaced
    r = 1.5 * u[5] if choice in (1, 3) else 0.0
    mag, phase = 3.0 * u[6], 2.0 * math.pi * u[7]
    alpha = mag * complex(math.cos(phase), math.sin(phase)) if choice >= 2 else 0j
    return omega1, omega2, t1, t2, False, r, alpha, 0.0, n2


# Rows at the edges of the draws: zero ratio, T2 and |alpha|, the kind and
# bath-choice thresholds, and the largest unit draw.
_BELOW_HALF = math.nextafter(0.5, 0.0)
EDGE_ROWS = np.array([
    [0.0] * 9,
    [1.0 - 2.0**-53] * 9,
    [0.5, 0.0, 0.5, 0.5, 0.5, 0.5, 0.0, 0.5, 0.25],
    [0.5, 0.5, 0.0, 0.5, _BELOW_HALF, 0.5, 0.0, 0.75, 0.5],
    [0.5, 0.5, 0.5, 0.0, _BELOW_HALF, 0.0, 0.5, 0.0, 0.75],
    [0.5, 0.5, 0.5, 0.5, _BELOW_HALF, 0.5, 0.5, 0.5, math.nextafter(0.25, 0.0)],
])


class TestAuditDraws:
    """Sample i is row i of the generator's uniforms, decoded with array arithmetic."""

    @staticmethod
    def check_split(family, seed, sizes):
        chunks = list(_draw_chunks(np.random.default_rng(seed), family, sizes))
        (whole,) = _draw_chunks(np.random.default_rng(seed), family, [sum(sizes)])
        assert [len(chunk) for chunk in chunks] == sizes
        assert np.concatenate(chunks).tobytes() == whole.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["first-kind", "second-kind", "mixed"]),
        seed=st.sampled_from([0, 1, 2**64, 10**29 + 7]) | st.integers(0, 2**80),
        sizes=st.lists(st.integers(1, 301), min_size=1, max_size=6),
    )
    def test_chunks_join_into_one_draw(self, family, seed, sizes):
        self.check_split(family, seed, sizes)

    # chunks of the size an audit draws, and one sample fewer or more
    @pytest.mark.parametrize("family", ["first-kind", "second-kind", "mixed"])
    @pytest.mark.parametrize("seed, sizes", [
        (3, [_AUDIT_CHUNK, _AUDIT_CHUNK]),
        (2**64, [_AUDIT_CHUNK - 1, _AUDIT_CHUNK + 1, _AUDIT_CHUNK]),
        (10**29 + 7, [_AUDIT_CHUNK + 1, _AUDIT_CHUNK - 1, 1]),
    ])
    def test_audit_chunks_join_into_one_draw(self, family, seed, sizes):
        self.check_split(family, seed, sizes)

    @pytest.mark.parametrize("family", ["first-kind", "second-kind", "mixed"])
    @pytest.mark.parametrize("seed", [0, 2**64])
    def test_rows_decode_as_python_samples(self, family, seed):
        u = np.vstack([np.random.default_rng(seed).random((3000, 9)), EDGE_ROWS])
        drawn = _decode(family, u)
        expected = np.array([reference_sample(family, row) for row in u], dtype=_DRAW)
        for name in _DRAW.names:
            if name != "alpha":
                assert drawn[name].tobytes() == expected[name].tobytes(), name
        # numpy's complex exp against math.cos and math.sin: a few ulps of |alpha| < 3
        for part in ("real", "imag"):
            deviation = np.abs(getattr(drawn["alpha"], part) - getattr(expected["alpha"], part))
            assert deviation.max() <= 4e-15, part
