"""CLI contract: flags, exit codes, machine-parseable stdout, config files."""

import ast
import contextlib
import csv
import importlib
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import warnings

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import otto_forge
from otto_forge.cli import main
from otto_forge.sweeps import TABLE_COLUMNS

FIG5 = ["--omega1", "7", "--omega2", "20", "--t1", "2", "--t2", "10"]
INFINITE_N2 = ["--omega1", "1e-10", "--omega2", "1e-10", "--t1", "0", "--t2", "1e308"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCycleCommand:
    def test_thermal_standard(self, capsys):
        code, out, _ = run_cli(capsys, "cycle", *FIG5, "--bath", "thermal")
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == pytest.approx(0.65, abs=1e-12)
        assert payload["regime"] == "SubCarnotHybridEngine"
        assert payload["law_residual"] < 1e-9

    def test_modified_dual_action(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "cycle",
            "--omega1", "3", "--omega2", "20", "--t1", "2", "--t2", "10",
            "--bath", "squeezed:0.5", "--cycle", "modified",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == 1.0
        assert payload["cop"] == pytest.approx(3 / 17, rel=1e-9)
        assert payload["regime"] == "DualEngineRefrigerator"

    def test_second_kind(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", *FIG5, "--bath", "second-kind:0.35654", "--cycle", "second-kind"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["eta"] == pytest.approx(0.65, abs=1e-12)
        assert payload["regime"] == "GenuineHeatEngine"

    def test_composite_bath(self, capsys):
        code, out, _ = run_cli(
            capsys, "cycle", *FIG5, "--bath", "squeezed:0.3+displaced:1.0,0.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["W2"] > 0.0

    def test_missing_flag_is_usage_error(self, capsys):
        code, out, err = run_cli(
            capsys, "cycle", "--omega1", "7", "--t1", "2", "--t2", "10", "--bath", "thermal"
        )
        assert code == 2
        assert out == ""
        assert "--omega2" in err

    def test_malformed_bath_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "cycle", *FIG5, "--bath", "squeezed:fast")
        assert code == 2
        assert "bath" in err

    def test_invalid_physics_config_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "cycle", "--omega1", "30", "--omega2", "20",
            "--t1", "2", "--t2", "10", "--bath", "thermal",
        )
        assert code == 2

    def test_physics_error_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "cycle", *FIG5, "--bath", "thermal", "--cycle", "modified"
        )
        assert code == 3
        assert "physics error" in err


class TestSweepCommand:
    def test_fig5_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", *FIG5, "--bath", "squeezed:0.5", "--cycle", "modified",
            "--axis", "delta-n", "--start", "0", "--stop", "1", "--steps", "21",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        etas = [float(row["eta"]) for row in rows]
        assert etas[0] == pytest.approx(0.65, abs=1e-12)
        assert all(b >= a for a, b in zip(etas, etas[1:]))

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", *FIG5, "--bath", "thermal",
            "--axis", "frequency-ratio", "--start", "0.1", "--stop", "1",
            "--steps", "5", "--format", "json",
        )
        assert code == 0
        parsed = json.loads(out)
        assert len(parsed) == 5
        assert set(parsed[0]) == {
            "axis", "W1", "W2", "W3", "W3_prime", "W4", "Q2", "Q4",
            "E2", "E4", "eta", "cop", "regime", "law_residual",
        }

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run_cli(
            capsys,
            "sweep", *FIG5, "--bath", "thermal",
            "--axis", "frequency-ratio", "--start", "0.1", "--stop", "1",
            "--steps", "3", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_bytes().startswith(b"axis,W1,")

    def test_single_step_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sweep", *FIG5, "--bath", "thermal",
            "--axis", "frequency-ratio", "--start", "0.1", "--stop", "1", "--steps", "1",
        )
        assert code == 2

    def test_overflowing_rows_are_flagged_not_fatal(self, capsys):
        code, out, err = run_cli(
            capsys,
            "sweep", *FIG5, "--bath", "squeezed:0.5",
            "--axis", "squeeze-r", "--start", "0", "--stop", "1e3", "--steps", "11",
        )
        assert code == 0
        assert "Traceback" not in err
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 11
        flagged = [row for row in rows if row["regime"].startswith("error:")]
        assert flagged and len(flagged) < len(rows)
        assert all(row["regime"].startswith("error:OverflowError") for row in flagged)

    def test_cycle_bath_mismatch_is_usage_error(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", *FIG5, "--bath", "squeezed:0.5", "--cycle", "second-kind",
            "--axis", "frequency-ratio", "--start", "0.1", "--stop", "1", "--steps", "3",
        )
        assert code == 2
        assert out == ""

    def test_axis_bath_mismatch_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "sweep", *FIG5, "--bath", "thermal",
            "--axis", "delta-n", "--start", "0", "--stop", "1", "--steps", "5",
        )
        assert code == 2


class TestErgotropyCommand:
    def test_analytic_report(self, capsys):
        code, out, _ = run_cli(
            capsys, "ergotropy", "--nth", "1", "--r", "0", "--omega", "5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ergotropy"] == 0.0
        assert payload["nonclassical"] is False

    def test_nonclassical_point(self, capsys):
        code, out, _ = run_cli(
            capsys, "ergotropy", "--nth", "0.5", "--r", "0.4", "--omega", "1"
        )
        assert code == 0
        assert json.loads(out)["nonclassical"] is True

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ergotropy", "--nth", "0.15652", "--r", "0.5", "--omega", "20", "--oracle",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ergotropy"] == pytest.approx(7.131, abs=1e-3)
        assert payload["ergotropy_rel_dev"] < 1e-5
        assert payload["entropy_dev"] < 1e-6
        assert payload["oracle_cutoff"] >= 1

    def test_displaced_state(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ergotropy", "--nth", "0.3", "--alpha-re", "1.5", "--omega", "7", "--oracle",
            "--tail-tol", "1e-10",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["ergotropy"] == pytest.approx(15.75, rel=1e-12)
        assert payload["ergotropy_rel_dev"] < 1e-5

    def test_passive_state_deviation_is_relative_to_its_energy(self, capsys):
        code, out, _ = run_cli(capsys, "ergotropy", "--nth", "10", "--omega", "1", "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["ergotropy"] == 0.0
        dev = abs(payload["ergotropy_fock"] - payload["ergotropy"]) / payload["energy"]
        assert payload["ergotropy_rel_dev"] == dev
        assert payload["ergotropy_rel_dev"] < 1e-12

    # an ergotropy below 1e-16 of the energy, under the oracle's round-off
    @pytest.mark.parametrize("dressing", [("--r", "1e-10"), ("--alpha-re", "1e-8")])
    def test_nearly_passive_state_deviation_is_relative_to_its_energy(self, capsys, dressing):
        code, out, _ = run_cli(
            capsys, "ergotropy", "--nth", "10", *dressing, "--omega", "1", "--oracle"
        )
        assert code == 0
        payload = json.loads(out)
        dev = abs(payload["ergotropy_fock"] - payload["ergotropy"]) / payload["energy"]
        assert payload["ergotropy_rel_dev"] == dev
        assert dev < 1e-12

    def test_deviation_is_absolute_where_the_energy_underflows(self, capsys):
        # omega * (n_th + 1/2) rounds to 0: no scale to divide the deviation by
        code, out, _ = run_cli(capsys, "ergotropy", "--nth", "0", "--omega", "5e-324", "--oracle")
        assert code == 0
        payload = json.loads(out)
        assert payload["energy"] == 0.0
        assert math.isfinite(payload["ergotropy_rel_dev"])
        assert payload["ergotropy_rel_dev"] == abs(payload["ergotropy_fock"] - payload["ergotropy"])

    def test_deviation_does_not_depend_on_the_unit_of_energy(self, capsys):
        devs = []
        for omega in ("3", "3e-12"):
            code, out, _ = run_cli(
                capsys, "ergotropy", "--nth", "0.2", "--r", "0.5", "--alpha-re", "1",
                "--omega", omega, "--oracle",
            )
            assert code == 0
            devs.append(json.loads(out)["ergotropy_rel_dev"])
        assert abs(devs[0] - devs[1]) < 1e-14


class TestAuditCommand:
    def test_small_campaign_passes(self, capsys):
        code, out, _ = run_cli(capsys, "audit", "--samples", "300", "--seed", "42")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["max_first_law_residual"] < 1e-9

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "audit", "--samples", "50", "--seed", "7")
        _, second, _ = run_cli(capsys, "audit", "--samples", "50", "--seed", "7")
        assert first == second

    def test_zero_samples_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "audit", "--samples", "0", "--seed", "1")
        assert code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--samples", "5", "--seed", "-1"),
        ("ergotropy", "--nth", "0.2", "--omega", "20", "--oracle", "--tail-tol", "2"),
        ("ergotropy", "--nth", "0.2", "--omega", "20", "--oracle", "--tail-tol", "0"),
        ("audit", {"samples": "abc", "seed": 1}),
        ("ergotropy", "--oracle", {"nth": 0.2, "omega": "abc"}),
        ("audit", "--samples", "5", "--seed", "1", {"family": "third-kind"}),
        ("cycle", *FIG5, "--bath", "squeezed:0.5+squeezed:0.7"),
        ("sweep", *FIG5, "--bath", "thermal", "--axis", "frequency-ratio",
         "--start", "0.1", "--stop", "1", "--steps", "1000000000000"),
        ("ergotropy", "--nth", "0.2", "--r", "0.5", "--omega", "3", {"oracle": "false"}),
        ("ergotropy", "--nth", "0.2", "--r", "0.5", "--omega", "3", {"oracle": 7}),
        # a path that is not a string must not reach open(): true is fd 1, stdout
        ("sweep", *FIG5, "--bath", "thermal", "--axis", "frequency-ratio",
         "--start", "0.1", "--stop", "1", "--steps", "3", {"out": True}),
        ("sweep", *FIG5, "--bath", "thermal", "--axis", "frequency-ratio",
         "--start", "0.1", "--stop", "1", "--steps", "3", {"out": [1]}),
        ("cycle", *FIG5, {"bath": {"squeezed": 0.5}}),
        ("audit", "--samples", "1000000000000", "--seed", "1"),
        ("cycle", *FIG5, "--bath", "thermal:1"),
        ("cycle", *FIG5, "--bath", "warm:1"),
        ("cycle", *FIG5, "--bath", "second-kind:0.1+squeezed:0.5"),
        ("cycle", *FIG5, "--bath", "squeezed:-1"),
        ("cycle", "--omega1", "7", "--omega2", "20", "--t1", "-1", "--t2", "10",
         "--bath", "thermal"),
        ("cycle", "--omega1", "7", "--omega2", "20", "--t1", "0", "--t2", "-1",
         "--bath", "thermal"),
        # argparse reads "-inf" as a flag
        ("sweep", *FIG5, "--bath", "thermal", "--axis", "frequency-ratio",
         "--start", "0.1", "--stop", "inf", "--steps", "3"),
        ("sweep", *FIG5, "--bath", "squeezed:0.5", "--axis", "delta-n",
         "--start", "-1", "--stop", "1", "--steps", "3"),
        ("sweep", *FIG5, "--bath", "squeezed:0.5", "--axis", "squeeze-r",
         "--start", "-1", "--stop", "1", "--steps", "3"),
        ("sweep", *FIG5, "--bath", "displaced:1,0", "--axis", "displacement",
         "--start", "-1", "--stop", "1", "--steps", "3"),
    ],
)
def test_out_of_range_values_are_usage_errors(capsys, monkeypatch, tmp_path, argv):
    def no_oracle(*args, **kwargs):
        raise AssertionError("the oracle ran on invalid input")

    monkeypatch.setattr("otto_forge.cli.search_density", no_oracle)
    if isinstance(argv[-1], dict):  # a trailing dict goes in through --config
        path = tmp_path / "config.json"
        path.write_text(json.dumps(argv[-1]))
        argv = (*argv[:-1], "--config", str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error:")


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="int(str) has no digit limit before Python 3.10.7",
)
def test_config_int_too_long_to_read_is_usage_error(capsys, tmp_path):
    # json.load raises a plain ValueError past int(str)'s 4300-digit limit
    path = tmp_path / "config.json"
    path.write_text('{"samples": 3, "seed": 1' + "0" * 5000 + "}")
    code, out, err = run_cli(capsys, "audit", "--config", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize("target", ["missing-directory", "/dev/full"])
def test_unwritable_out_file_is_usage_error(capsys, tmp_path, target):
    # /dev/full opens but refuses every write that reaches it; the table is
    # over two blocks, so the failing write comes after the file is open
    if target == "/dev/full" and not os.path.exists(target):
        pytest.skip("no /dev/full on this platform")
    out_path = target if target == "/dev/full" else tmp_path / "missing" / "table.csv"
    code, out, err = run_cli(
        capsys, "sweep", *FIG5, "--bath", "thermal", "--axis", "frequency-ratio",
        "--start", "0.1", "--stop", "1", "--steps", "10000", "--out", str(out_path),
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write")
    assert "Traceback" not in err


# one argv per command; the sweep cases fit in one block and span two
WRITING_COMMANDS = {
    **{steps: ["sweep", *FIG5, "--bath", "thermal", "--axis", "frequency-ratio",
               "--start", "0.1", "--stop", "1", "--steps", steps] for steps in ("3", "10000")},
    "cycle": ["cycle", *FIG5, "--bath", "squeezed:0.5"],
    "audit": ["audit", "--samples", "100", "--seed", "1"],
    "ergotropy": ["ergotropy", "--nth", "0.2", "--r", "0.5", "--omega", "3", "--oracle"],
}


def run_console(argv, stdout):
    """Run the console entry point in a subprocess on `stdout`; return (exit code, stderr).

    Its stdout stays buffered, as it is by default, so unsent bytes would
    still be flushed at exit.
    """
    src = pathlib.Path(otto_forge.__file__).parents[1]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with subprocess.Popen(
        [sys.executable, "-c", "from otto_forge.cli import run; run()", *argv],
        env=env | {"PYTHONPATH": str(src)}, stdout=stdout,
        stderr=subprocess.PIPE, text=True,
    ) as proc:
        if stdout is subprocess.PIPE:
            # the pipe's read end is closed before the first write, as when a
            # reader such as `head` has stopped
            proc.stdout.close()
        err = proc.stderr.read()
        return proc.wait(timeout=120), err


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_closed_stdout_is_usage_error(command):
    code, err = run_console(WRITING_COMMANDS[command], subprocess.PIPE)
    assert code == 2
    assert err.startswith("error: cannot write 'stdout'")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", WRITING_COMMANDS)
def test_full_stdout_is_usage_error(command):
    # /dev/full accepts the open and fails every write with ENOSPC
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full on this platform")
    with open("/dev/full", "wb") as full:
        code, err = run_console(WRITING_COMMANDS[command], full)
    assert code == 2
    assert err.startswith("error: cannot write 'stdout'")
    assert len(err.splitlines()) == 1


def run_module(*argv):
    """`python -m otto_forge.cli` with `argv`, the package imported from this source tree."""
    src = pathlib.Path(otto_forge.__file__).parents[1]
    return subprocess.run(
        [sys.executable, "-m", "otto_forge.cli", *argv], env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, timeout=120,
    )


def test_module_run_prints_version():
    result = run_module("--version")
    assert (result.returncode, result.stdout) == (0, f"otto-forge {otto_forge.__version__}\n")


def test_module_run_checks_required_flags():
    result = run_module("cycle")
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr.startswith("error: missing required argument(s): --omega1")


# |alpha| of this bath is beyond the double range: the sweep fails before its first row
OVERFLOWING_SWEEP = [
    "sweep", *FIG5, "--bath", "displaced:1.5e308,1.5e308", "--axis", "displacement",
    "--start", "0", "--stop", "1", "--steps", "3",
]


def test_failed_sweep_leaves_out_file_untouched(capsys, tmp_path):
    kept = tmp_path / "kept.csv"
    kept.write_text("kept\n")
    for path, exists in ((tmp_path / "new.csv", False), (kept, True)):
        code, out, err = run_cli(capsys, *OVERFLOWING_SWEEP, "--out", str(path))
        assert (code, out) == (3, "")
        assert err.startswith("physics error: OverflowError")
        assert path.exists() == exists
    assert kept.read_text() == "kept\n"


@pytest.mark.parametrize("bath", ["squeezed:1e308", "displaced:1e200,0"])
def test_overflowing_bath_is_physics_error(capsys, bath):
    code, out, err = run_cli(capsys, "cycle", *FIG5, "--bath", bath)
    assert code == 3
    assert out == ""
    assert err.startswith("physics error: OverflowError")


def strict_json(text):
    """json.loads that refuses the non-JSON tokens NaN, Infinity and -Infinity."""
    def reject(token):
        raise ValueError(f"non-finite JSON token {token}")

    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize(
    "argv",
    [
        ("cycle", *FIG5, "--bath", "second-kind:1e308", "--cycle", "second-kind"),
        ("ergotropy", "--nth", "1e308", "--omega", "1"),
        # occupation(1e-10, 1e308) = 1/expm1(1e-318), a subnormal, overflows to inf
        ("cycle", *INFINITE_N2, "--bath", "thermal"),
        *(
            ("cycle", *INFINITE_N2, "--bath", bath, "--cycle", cycle)
            for bath in ("squeezed:0.5", "displaced:1,0.5", "squeezed:0.5+displaced:1,0.5")
            for cycle in ("standard", "modified")
        ),
        OVERFLOWING_SWEEP,
        (*OVERFLOWING_SWEEP, "--format", "json"),
        # a finite analytic payload whose Fock level energies overflow
        ("ergotropy", "--nth", "0.1", "--omega", "1e308", "--oracle"),
    ],
)
def test_non_finite_result_is_physics_error(capsys, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert out == ""
    assert err.startswith("physics error: OverflowError")
    assert err.count("\n") == 1
    assert [str(w.message) for w in caught] == []


def test_overflowed_analytic_result_skips_the_oracle(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "ergotropy", "--nth", "0.5", "--r", "1", "--alpha-re", "2",
            "--omega", "1e308", "--oracle",
        )
    assert (code, out) == (3, "")
    assert err == "physics error: OverflowError: non-finite result: energy, ergotropy\n"
    assert [str(w.message) for w in caught] == []


def _dbdsdc_not_converged(*args):
    args[-1].value = 1  # info > 0: a singular value did not converge


def _uncertified_gram(w):
    gram = w.T @ w.conj()  # conj(W^dag W), as fock._zherk returns it
    gram[0, 1] += 1e-6  # an off-diagonal entry above the spectrum's 1e-10 floor
    return gram


@pytest.mark.parametrize(
    "target, fake",
    [
        ("otto_forge.fock._dbdsdc", lambda: _dbdsdc_not_converged),
        ("otto_forge.fock._zherk", _uncertified_gram),
    ],
)
def test_lapack_failure_in_the_oracle_is_physics_error(capsys, monkeypatch, target, fake):
    # a failed LAPACK call and an uncertified spectrum are physics errors, not usage errors
    monkeypatch.setattr(target, fake)
    code, out, err = run_cli(
        capsys, "ergotropy", "--nth", "0.2", "--r", "0.5", "--alpha-re", "1", "--omega", "3",
        "--oracle",
    )
    assert (code, out) == (3, "")
    assert err.startswith("physics error:")
    assert err.count("\n") == 1


def test_non_finite_sweep_rows_are_flagged(capsys):
    code, out, err = run_cli(
        capsys,
        "sweep", *FIG5, "--bath", "squeezed:0.5",
        "--axis", "delta-n", "--start", "0", "--stop", "1e308", "--steps", "3",
        "--format", "json",
    )
    assert code == 0
    assert "Traceback" not in err
    rows = strict_json(out)
    assert rows[0]["regime"] == "SubCarnotHybridEngine"
    for row in rows[1:]:
        assert row["regime"].startswith("error:OverflowError")
        assert row["W2"] is None


@pytest.mark.parametrize(
    "bath, cycle",
    [("thermal", "standard"), ("squeezed:0.5", "modified"), ("second-kind:0.3", "second-kind")],
)
def test_cycle_json_matches_sweep_row(capsys, bath, cycle):
    base = (*FIG5, "--bath", bath, "--cycle", cycle)
    code, out, _ = run_cli(capsys, "cycle", *base)
    assert code == 0
    single = json.loads(out)
    # the cold-temperature grid starts at the base config's T1 = 2 exactly
    code, out, _ = run_cli(
        capsys, "sweep", *base, "--axis", "cold-temperature",
        "--start", "2", "--stop", "10", "--steps", "2", "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    shared = set(single) & set(row)
    assert shared == set(row) - {"axis"}
    assert {key: single[key] for key in shared} == {key: row[key] for key in shared}


SWEEP_POINT = ["--axis", "frequency-ratio", "--start", "0.1", "--stop", "1", "--steps", "5"]


@pytest.mark.parametrize(
    "argv, defaults",
    [
        (("cycle", *FIG5, "--bath", "squeezed:0.5"), {"--cycle": "standard"}),
        (("sweep", *FIG5, "--bath", "squeezed:0.5", *SWEEP_POINT),
         {"--cycle": "standard", "--format": "csv"}),
        (("ergotropy", "--nth", "0.2", "--omega", "3", "--oracle"),
         {"--r": "0", "--alpha-re": "0", "--alpha-im": "0", "--tail-tol": "1e-12"}),
        (("audit", "--samples", "20", "--seed", "1"), {"--family": "mixed"}),
    ],
    ids=["cycle", "sweep", "ergotropy", "audit"],
)
def test_omitted_flag_is_its_declared_default(capsys, argv, defaults):
    explicit = [item for flag_value in defaults.items() for item in flag_value]
    code, expected, err = run_cli(capsys, *argv, *explicit)
    assert (code, err) == (0, "")
    assert run_cli(capsys, *argv) == (0, expected, "")
    for flag in defaults:  # each flag left out on its own
        rest = [item for other, value in defaults.items() if other != flag
                for item in (other, value)]
        assert run_cli(capsys, *argv, *rest) == (0, expected, ""), flag


class TestConfigFile:
    def test_config_supplies_flags(self, capsys, tmp_path):
        config = tmp_path / "cycle.json"
        config.write_text(
            json.dumps(
                {"omega1": 7, "omega2": 20, "t1": 2, "t2": 10, "bath": "thermal"}
            )
        )
        code, out, err = run_cli(capsys, "cycle", "--config", str(config))
        assert code == 0
        assert json.loads(out)["eta"] == pytest.approx(0.65, abs=1e-12)
        assert err == ""

    def test_flags_win_with_warning(self, capsys, tmp_path):
        config = tmp_path / "cycle.json"
        config.write_text(
            json.dumps(
                {"omega1": 5, "omega2": 20, "t1": 2, "t2": 10, "bath": "thermal"}
            )
        )
        code, out, err = run_cli(
            capsys, "cycle", "--omega1", "7", "--config", str(config)
        )
        assert code == 0
        assert "overrides" in err
        payload = json.loads(out)
        assert payload["eta"] == pytest.approx(0.65, abs=1e-12)

    def test_unknown_key_is_usage_error(self, capsys, tmp_path):
        config = tmp_path / "cycle.json"
        config.write_text(json.dumps({"omega9": 7}))
        code, _, err = run_cli(capsys, "cycle", "--config", str(config))
        assert code == 2
        assert "omega9" in err

    @pytest.mark.parametrize("oracle", [True, False])
    def test_boolean_flag_from_config(self, capsys, tmp_path, oracle):
        config = tmp_path / "ergotropy.json"
        config.write_text(json.dumps({"nth": 0.2, "r": 0.5, "omega": 3, "oracle": oracle}))
        code, out, _ = run_cli(capsys, "ergotropy", "--config", str(config))
        assert code == 0
        assert ("oracle_cutoff" in json.loads(out)) is oracle


class TestUsage:
    def test_no_command_is_usage_error(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0

    def test_import_leaves_scipy_to_the_oracle(self):
        # only the Fock oracle needs scipy; `cycle`, `sweep` and `audit` never load it
        code = (
            "import sys, otto_forge.cli\n"
            "assert 'scipy' not in sys.modules, 'import otto_forge.cli loaded scipy'\n"
            "from otto_forge import GaussianModeState, ergotropy_analytic, ergotropy_fock\n"
            "state = GaussianModeState(n_th=0.2, r=0.5, alpha=1.0)\n"
            "assert abs(ergotropy_fock(state, 20.0, cutoff=128)"
            " - ergotropy_analytic(state, 20.0)) < 1e-8\n"
            # the oracle loads scipy's two Cython tables from their files, not
            # through the scipy.linalg package, which still imports as usual later
            "argv = ['ergotropy', '--nth', '0.2', '--r', '0.5', '--alpha-re', '1',"
            " '--omega', '3', '--oracle']\n"
            "assert otto_forge.cli.main(argv) == 0\n"
            "assert 'scipy.linalg' not in sys.modules, 'the oracle imported scipy.linalg'\n"
            "import scipy.linalg\n"
            "assert abs(scipy.linalg.expm([[0.0, 1.0], [-1.0, 0.0]])[0, 1] - 0.8414709848) < 1e-9\n"
            "assert 'zherk' in scipy.linalg.cython_blas.__pyx_capi__\n"
            "assert otto_forge.cli.main(argv) == 0\n"
        )
        src = pathlib.Path(otto_forge.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        first, second = result.stdout.splitlines()  # one oracle record before and after
        assert first == second and '"oracle_cutoff"' in first

    def test_only_the_oracle_loads_blas_libraries(self):
        # the import and `cycle`, `sweep` and `audit` load no OpenBLAS through
        # ctypes; the oracle's first build looks up both bundled ones itself
        code = (
            "import contextlib, ctypes, io, os\n"
            "loaded = []\n"
            "class Recording(ctypes.CDLL):\n"
            "    def __init__(self, name, *args, **kwargs):\n"
            "        loaded.append(os.path.basename(name))\n"
            "        super().__init__(name, *args, **kwargs)\n"
            "ctypes.CDLL = Recording\n"
            "from otto_forge import cli, fock\n"
            "point = ['--omega1', '7', '--omega2', '20', '--t1', '2', '--t2', '10',"
            " '--bath', 'squeezed:0.5']\n"
            "out = io.TextIOWrapper(io.BytesIO())\n"
            "with contextlib.redirect_stdout(out):\n"
            "    assert cli.main(['cycle', *point]) == 0\n"
            "    assert cli.main(['sweep', *point, '--axis', 'frequency-ratio', '--start', '0.1',"
            " '--stop', '1', '--steps', '5']) == 0\n"
            "    assert cli.main(['audit', '--samples', '100', '--seed', '1']) == 0\n"
            "    assert loaded == [], loaded\n"
            "    assert cli.main(['ergotropy', '--nth', '0.2', '--r', '0.5', '--alpha-re', '1',"
            " '--omega', '3', '--oracle']) == 0\n"
            "assert len(loaded) == len(fock._blas_thread_counts()), loaded\n"
        )
        src = pathlib.Path(otto_forge.__file__).parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr


# CLI fuzz: argv drawn over every command but the oracle (fuzzed below), with
# values that include zero, negatives, the double range's edge, nan and inf.
NUMBER = st.sampled_from([
    "0", "-1", "1e308", "-1e308", "nan", "inf", "-inf", "1e-300", "1e-10", "0.5", "2", "7",
    "10", "20",
])
INTEGER = st.integers(-2, 50).map(str) | st.sampled_from(["1e3", "abc", "nan"])
BATH = st.one_of(
    st.just("thermal"),
    st.builds("squeezed:{}".format, NUMBER),
    st.builds("displaced:{},{}".format, NUMBER, NUMBER),
    st.builds("second-kind:{}".format, NUMBER),
    st.builds("squeezed:{}+displaced:{},0".format, NUMBER, NUMBER),
    st.sampled_from(["", "thermal:1", "squeezed", "second-kind:1+squeezed:1", "warm"]),
)


def flags(**values):
    """Draw each flag's value, or leave the flag out."""
    return st.fixed_dictionaries({}, optional=values).map(
        lambda drawn: [item for flag, value in drawn.items() for item in (f"--{flag}", value)]
    )


CYCLE_FLAGS = dict(
    omega1=NUMBER, omega2=NUMBER, t1=NUMBER, t2=NUMBER, bath=BATH,
    cycle=st.sampled_from(["standard", "modified", "second-kind"]),
)
ARGV = st.one_of(
    flags(**CYCLE_FLAGS).map(lambda f: ["cycle", *f]),
    flags(
        **CYCLE_FLAGS,
        axis=st.sampled_from(
            ["frequency-ratio", "delta-n", "squeeze-r", "displacement", "cold-temperature"]
        ),
        start=NUMBER, stop=NUMBER, steps=INTEGER, format=st.sampled_from(["csv", "json"]),
    ).map(lambda f: ["sweep", *f]),
    flags(
        samples=INTEGER, seed=INTEGER,
        family=st.sampled_from(["first-kind", "second-kind", "mixed"]),
    ).map(lambda f: ["audit", *f]),
    flags(nth=NUMBER, r=NUMBER, omega=NUMBER).map(lambda f: ["ergotropy", *f]),
    flags(**{"alpha-re": NUMBER, "alpha-im": NUMBER, "nth": NUMBER, "omega": NUMBER}).map(
        lambda f: ["ergotropy", *f]
    ),
)


def run_isolated(argv):
    """Run the CLI in-process with fresh stdout/stderr buffers."""
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, raw.getvalue().decode("utf-8"), err.getvalue()


def check_table(text):
    rows = list(csv.reader(io.StringIO(text, newline="")))
    assert rows[0] == list(TABLE_COLUMNS)
    for row in rows[1:]:
        assert len(row) == len(TABLE_COLUMNS)
        for name, cell in zip(TABLE_COLUMNS, row):
            if name != "regime" and cell:
                assert math.isfinite(float(cell))


def check_contract(command, json_format, code, out, err):
    """Exit 0, 2 or 3, no traceback, and stdout that is empty or parses.

    A sweep that exits 0 prints a JSON list if `json_format`, else a CSV table.
    """
    assert code in (0, 2, 3)
    assert "Traceback" not in err
    if code == 2:
        assert out == ""
    elif command == "sweep" and code == 0:
        if json_format:
            assert isinstance(strict_json(out), list)
        else:
            check_table(out)
    elif out:
        assert isinstance(strict_json(out), dict)


@settings(max_examples=300, deadline=None)
@given(ARGV)
def test_cli_contract_holds_for_any_argv(argv):
    check_contract(argv[0], "json" in argv, *run_isolated(argv))


# Oracle fuzz: state and tolerance values that include zero, negatives, the
# double range's edge and nan. A state the oracle accepts must start its cutoff
# search, at the tail law's (V/2) ln(1/tol), at most 256 levels up, so every
# example runs fast.
ORACLE_STATE = st.sampled_from(["0", "1e-300", "0.1", "0.5", "1", "2", "1e308", "nan", "-1"])
ORACLE_OMEGA = st.sampled_from(["0", "1e-300", "0.5", "2", "20", "1e308", "nan", "-1"])
ORACLE_TOL = st.sampled_from(["0", "1e-300", "1e-12", "1e-6", "1e-3", "0.5", "1", "2", "nan"])


@st.composite
def oracle_argv(draw):
    texts = {flag: draw(ORACLE_STATE) for flag in ("nth", "r", "alpha-re", "alpha-im")}
    texts |= {"omega": draw(ORACLE_OMEGA), "tail-tol": draw(ORACLE_TOL)}
    nth, r, re, im, omega, tol = map(float, texts.values())
    state = all(map(math.isfinite, (nth, r, re, im))) and nth >= 0.0 and r >= 0.0
    if state and math.isfinite(omega) and omega > 0.0 and 0.0 < tol < 1.0:
        try:
            variance = (2.0 * nth + 1.0) * math.exp(2.0 * r) + 2.0 * abs(complex(re, im)) ** 2
        except OverflowError:
            variance = math.inf
        assume(variance / 2.0 * math.log(1.0 / tol) <= 256)
    flags = (item for flag, text in texts.items() for item in (f"--{flag}", text))
    return ["ergotropy", "--oracle", *flags]


@settings(max_examples=200, deadline=None)
@given(oracle_argv())
def test_cli_contract_holds_for_any_oracle_argv(argv):
    check_contract(argv[0], False, *run_isolated(argv))


# Config fuzz: JSON objects whose values have the wrong type, are out of
# range or do not fit a double, under known and unknown keys. Values are JSON
# text, so 1e400 and integers too long for int(str) reach the parser as
# written. No drawn config can run long: a valid samples or steps is at most
# 50, and `out` is never a string, so nothing is written.
WRONG = st.sampled_from([
    "null", "true", "false", "[]", "[1, 2]", '{"a": 1}', '{"a": {"b": [null]}}',
    "1e400", "-1e400", "1" + "0" * 30, "-1" + "0" * 30, "1" + "0" * 5000, '""', '"abc"',
])
SMALL = st.integers(-2, 50).map(str)
NUMBER_TEXT = NUMBER.map(json.dumps) | st.sampled_from(["0", "7", "20", "0.5", "-3"])
VALUE = NUMBER_TEXT | WRONG
CONFIG_KEYS = {
    "cycle": dict(
        omega1=VALUE, omega2=VALUE, t1=VALUE, t2=VALUE, bath=BATH.map(json.dumps) | WRONG,
        cycle=st.sampled_from(['"standard"', '"modified"', '"second-kind"']) | WRONG,
    ),
    "audit": dict(
        samples=SMALL | WRONG.filter(lambda text: not text.isdigit()),
        seed=SMALL | WRONG,
        family=st.sampled_from(['"first-kind"', '"second-kind"', '"mixed"']) | WRONG,
    ),
}
CONFIG_KEYS["sweep"] = dict(
    CONFIG_KEYS["cycle"],
    axis=st.sampled_from(['"frequency-ratio"', '"delta-n"', '"cold-temperature"']) | WRONG,
    start=VALUE, stop=VALUE, steps=SMALL | WRONG, format=st.just('"json"') | WRONG,
    out=WRONG.filter(lambda text: not text.startswith('"')),
)
UNKNOWN = st.sampled_from(["omega9", "", "config", "help", "func", "Samples", "out-file"])
VALID = {
    "cycle": {"omega1": "7", "omega2": "20", "t1": "2", "t2": "10", "bath": '"squeezed:0.5"'},
    "audit": {"samples": "20", "seed": "1"},
}
VALID["sweep"] = dict(
    VALID["cycle"], axis='"frequency-ratio"', start="0.1", stop="1", steps="20"
)


@st.composite
def config_files(draw):
    """A command, its --config text, and whether that text asks for JSON output.

    The text is a valid config with up to three keys changed: a chosen key gets
    a drawn value or is dropped, and an unknown key may be added.
    """
    command = draw(st.sampled_from(sorted(CONFIG_KEYS)))
    if draw(st.integers(0, 9)) == 0:  # not an object at all
        return command, draw(WRONG), False
    values = dict(VALID[command])
    for key in draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS[command])), max_size=3)):
        if draw(st.booleans()):
            values[key] = draw(CONFIG_KEYS[command][key])
        else:
            values.pop(key, None)
    values |= draw(st.dictionaries(UNKNOWN, VALUE, max_size=1))
    items = draw(st.permutations(list(values.items())))
    text = "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in items) + "}"
    return command, text, values.get("format") == '"json"'


@settings(max_examples=200, deadline=None)
@given(config_files())
def test_cli_contract_holds_for_any_config(config):
    command, text, json_format = config
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "config.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        check_contract(command, json_format, *run_isolated([command, "--config", path]))


def test_every_traced_name_exists():
    # perfbench's tracer wraps these by name, and `--trace 1` raises on one
    # that is missing; LAYERS is read from its source, not imported
    source = (pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py").read_text()
    layers = next(
        ast.literal_eval(node.value) for node in ast.parse(source).body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["LAYERS"]
    )
    for layer, names in layers.items():
        module = importlib.import_module(f"otto_forge.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"otto_forge.{layer}.{name}"
