"""Tests of the benchmark's output checks.

The closed forms are pinned to values the paper and the package README
quote, and each check is shown to reject a tampered output, so a wrong
checker fails here by itself. Run with `python3 -m pytest perfbench`.
"""

import io
import json
import math
import os
import sys

import numpy as np
import pytest

from checks import (
    COLUMNS,
    AuditCase,
    Bath,
    CheckError,
    OracleCase,
    SweepCase,
    bose,
    check_audit,
    check_oracle,
    check_sweep_table,
    csv_chunks,
    entropy,
    excess,
    expected_ledger,
    json_chunks,
)

FIG5 = SweepCase("fig5", "modified", "delta-n", 7.0, 20.0, 2.0, 10.0, Bath(r=0.5),
                 0.0, 1.0, 101, "csv", role="fig5")
FIG2 = SweepCase("fig2", "standard", "frequency-ratio", 7.0, 20.0, 2.0, 10.0, Bath(r=0.5),
                 1e-4, 1.0, 2000, "csv", role="fig2")


def test_fig5_efficiency_values():
    assert expected_ledger("modified", 7, 20, 2, 10, 0.0)["eta"] == pytest.approx(0.65, abs=1e-12)
    assert expected_ledger("modified", 7, 20, 2, 10, 0.1)["eta"] == pytest.approx(0.80529, abs=5e-6)


def test_dual_point():
    dn = excess(bose(20.0, 10.0), r=0.5)
    want = expected_ledger("modified", 3, 20, 2, 10, dn)
    assert want["eta"] == 1.0
    assert want["cop"] == pytest.approx(3 / 17, rel=1e-15)
    assert want["regime"] == "DualEngineRefrigerator"


def test_standard_engine_is_otto_efficiency():
    dn = excess(bose(20.0, 10.0), r=0.5)
    want = expected_ledger("standard", 7, 20, 2, 10, dn)
    assert want["eta"] == pytest.approx(0.65, abs=1e-15)
    assert want["regime"] == "SubCarnotHybridEngine"


def test_entropy_and_occupation():
    n = bose(20.0, 10.0)
    assert n == pytest.approx(1 / (math.e**2 - 1), rel=1e-15)
    assert entropy(n) == pytest.approx((n + 1) * math.log(n + 1) - n * math.log(n), rel=1e-15)
    assert entropy(0.0) == 0.0


def closed_form_table(case: SweepCase) -> list[dict]:
    """A table as the package emits it, built from the closed forms."""
    x = np.linspace(case.start, case.stop, case.steps)
    want, _, _ = case.expected(x)
    return [{"axis": float(x[i]),
             **{c: None if np.isnan(want[c][i]) else float(want[c][i]) for c in COLUMNS[1:12]},
             "regime": str(want["regime"][i]), "law_residual": 0.0}
            for i in range(case.steps)]


def as_csv(records: list[dict]) -> io.StringIO:
    lines = [",".join(records[0])]
    lines += [",".join("" if v is None else (v if isinstance(v, str) else f"{v:.17g}")
                       for v in r.values()) for r in records]
    return io.StringIO("\r\n".join(lines) + "\r\n", newline="")


@pytest.mark.parametrize("case", [FIG5, FIG2])
def test_closed_form_tables_pass(case):
    records = closed_form_table(case)
    assert check_sweep_table(case, json_chunks(records)) == case.steps
    assert check_sweep_table(case, csv_chunks(as_csv(records))) == case.steps


@pytest.mark.parametrize("tamper", [
    lambda rs: rs[7].update(W3=rs[7]["W3"] * (1 + 1e-6)),
    lambda rs: rs[7].update(eta=rs[7]["eta"] + 1e-6),
    lambda rs: rs[7].update(regime="NotEngine"),
    lambda rs: rs[7].update(regime="error:NotApplicable: no"),
    lambda rs: rs[7].update(law_residual=1e-6),
    lambda rs: rs.pop(),
    lambda rs: rs[50].update(eta=rs[49]["eta"] - 1e-3),
])
def test_tampered_fig5_fails(tamper):
    records = closed_form_table(FIG5)
    tamper(records)
    with pytest.raises(CheckError):
        check_sweep_table(FIG5, json_chunks(records))


def test_fig2_boundary_shift_fails():
    case = SweepCase(**{**FIG2.__dict__, "t1": 2.2})  # boundaries move with T1
    with pytest.raises(CheckError):
        check_sweep_table(FIG2, json_chunks(closed_form_table(case)))


AUDIT = AuditCase("first-kind", 100, 7)
GOOD_AUDIT = {"samples": 100, "seed": 7, "family": "first-kind", "ledgers": 150, "engines": 90,
              "max_first_law_residual": 1e-16, "first_law_violations": 0,
              "clausius_checked": 140, "clausius_violations": 0, "bound_checked": 80,
              "bound_violations": 0, "ok": True}


def test_audit_check():
    check_audit(AUDIT, GOOD_AUDIT)
    for bad in ({"ok": False}, {"bound_violations": 1}, {"ledgers": 99}, {"ledgers": 201},
                {"seed": 8}, {"engines": 151}):
        with pytest.raises(CheckError):
            check_audit(AUDIT, GOOD_AUDIT | bad)
    with pytest.raises(CheckError):
        check_audit(AuditCase("second-kind", 100, 7),
                    GOOD_AUDIT | {"family": "second-kind", "ledgers": 101})


def oracle_payload(case: OracleCase, cutoff: int, **changes) -> dict:
    dn = float(excess(case.n_th, case.r, case.alpha))
    payload = {"delta_n": dn, "ergotropy": case.omega * dn,
               "energy": case.omega * (case.n_th + dn + 0.5),
               "nonclassical": case.r > 0 and case.n_th < math.expm1(2 * case.r) / 2,
               "oracle_cutoff": cutoff, "trace_deficit": 1e-15,
               "ergotropy_fock": case.omega * dn * (1 + 1e-12),
               "entropy_fock": entropy(case.n_th) + 1e-13}
    return payload | changes


def test_oracle_check():
    case = OracleCase(2.0, 1.2, 2 + 0j)
    check_oracle(case, oracle_payload(case, 747))
    w = case.omega * float(excess(2.0, 1.2, 2))
    for bad in ({"ergotropy_fock": w + 20 * 747 * 1e-12 * 2}, {"trace_deficit": 2e-12},
                {"entropy_fock": entropy(2.0) + 1e-9}, {"nonclassical": False},
                {"delta_n": 0.0}):
        with pytest.raises(CheckError):
            check_oracle(case, oracle_payload(case, 747, **bad))


def test_real_program_output_passes():
    """The package's own fig5 table and smallest commands pass the checks."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    try:
        import otto_forge.cli as cli
        import workloads
    finally:
        sys.path.pop(0)
    fig5 = workloads.Command("fig5", FIG5)
    assert workloads.execute(fig5, cli.main) > 0.0
    for workload in workloads.WORKLOADS:
        workloads.execute(workloads.smallest(workload, 1), cli.main)
    json_fig5 = workloads.Command("fig5", SweepCase(**{**FIG5.__dict__, "format": "json"}))
    workloads.execute(json_fig5, cli.main)
