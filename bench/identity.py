"""Byte-identity check of the CLI between two source trees.

    python bench/identity.py REV_A [REV_B]

Runs one fixed corpus of CLI commands against the `src` of git revision
REV_A and against that of REV_B, or of the working tree when REV_B is not
given. Each tree's commands run in-process through `otto_forge.cli.main`,
in one subprocess per tree (the two at once, each with one BLAS thread).
For every command it compares the exit code, the SHA-256 of stdout and
stderr, and prints the commands that differ; for a JSON object on stdout
it also names the fields that differ. For each `ergotropy --oracle` that
exits 0 it also compares the SHA-256 of the search density's factor and
spectrum bytes, which show round-off that the printed digits hide; a tree
without `search_density` or `FockDensity.factor` records neither. Exit
status 0 when nothing differs, 1 otherwise.

The corpus:
- 5 bases x 7 baths x 2 cycles, each as one `cycle` and as sweeps over
  the 5 axes in CSV and JSON at 257 steps;
- failure-heavy sweeps of 5000 rows (more than one 4096-row block), two
  of them failing on every row, and a 12289-row sweep whose first block
  holds one value in every column;
- each audit family at 1, 2049 and 5000 samples and two seeds, plus
  audits that are usage errors;
- `ergotropy` on perfbench's nine oracle states and on edge states, each
  with and without `--oracle`.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tarfile
import tempfile
import time
import warnings

ROOT = pathlib.Path(__file__).resolve().parents[1]

# (omega1, omega2, t1, t2): the README's point, the dual engine/refrigerator
# point, a degenerate one, an omega1/T1 that underflows, and a base whose
# hot occupation overflows
BASES = (
    ("7", "20", "2", "10"),
    ("3", "20", "2", "10"),
    ("1", "1", "1", "1"),
    ("5e-324", "20", "0", "10"),
    ("1e-300", "1e-300", "0", "1e308"),
)
BATHS = (
    "thermal", "squeezed:0.5", "displaced:1,0.2", "squeezed:0.5+displaced:1,0.2",
    "squeezed:3", "second-kind:0.3", "second-kind:-0.05",
)
AXES = (
    ("frequency-ratio", "1e-4", "1"),
    ("delta-n", "-1", "2"),
    ("squeeze-r", "0", "2"),
    ("displacement", "0", "3"),
    ("cold-temperature", "0", "10"),
)
# (base, bath, cycle, axis, start, stop, steps): rows that fail by the thousand,
# then tables whose blocks take the row templates' extreme paths
BLOCK_SWEEPS = (
    (BASES[0], "second-kind:0", "second-kind", "delta-n", "-1", "1", "5000"),  # InvalidExcess
    (BASES[0], "squeezed:0.5", "standard", "squeeze-r", "0", "1e3", "5000"),  # OverflowError
    (BASES[3], "squeezed:0.5", "standard", "cold-temperature", "0", "10", "5000"),  # ZeroDivisionError
    (BASES[4], "thermal", "standard", "frequency-ratio", "0.1", "1", "5000"),  # every row
    (BASES[1], "squeezed:0.5", "modified", "delta-n", "-1", "1", "5000"),
    # every row of every block fails, with one of two OverflowError messages
    (BASES[0], "squeezed:0.5", "modified", "squeeze-r", "600", "720", "5000"),
    # the first block's axis rounds to 1.0 on every row, so every column holds
    # one value there; in the second block the axis steps to the next double
    (BASES[0], "squeezed:0.5", "standard", "cold-temperature", "1", "1.0000000000000002",
     "12289"),
)
# perfbench's oracle states (n_th, r, alpha), cutoffs 52 to 747, then edge states;
# the last is displaced and keeps every level (627 levels, K = N)
ERGOTROPY_STATES = (
    ("0.2", "0.5", "1", "0"), ("0.1", "0.7", "1.2", "0"), ("0.4", "0.6", "1", "0"),
    ("0.6", "0.7", "1", "0"), ("0.3", "1", "1.5", "0"),
    ("0.5", "1.1", "0.7071067811865476", "0.7071067811865476"), ("0.5", "1.3", "1", "0"),
    ("1.2", "1", "-1.0606601717798212", "1.0606601717798212"), ("2", "1.2", "2", "0"),
    ("0", "0", "0", "0"), ("10", "1e-10", "0", "0"), ("0.5", "0", "0", "1"),
    ("-1", "0", "0", "0"), ("20", "0", "1", "0"),
)
EDGE_ERGOTROPY = (
    ["--nth", "0.1", "--omega", "1e308"],
    ["--nth", "0", "--omega", "5e-324"],
    ["--nth", "0.5", "--r", "1", "--alpha-re", "2", "--omega", "1e308"],
    ["--nth", "0.2", "--omega", "1", "--tail-tol", "2"],
    ["--nth", "2", "--omega", "1e-3"],
    ["--nth", "0.3", "--r", "0.5", "--alpha-re", "0.5", "--omega", "1e-10"],
)


def corpus() -> list[list[str]]:
    """The argv of every command, in a fixed order."""
    commands = []
    for o1, o2, t1, t2 in BASES:
        base = ["--omega1", o1, "--omega2", o2, "--t1", t1, "--t2", t2]
        for bath in BATHS:
            other = "second-kind" if bath.startswith("second-kind") else "modified"
            for cycle in ("standard", other):
                flags = [*base, "--bath", bath, "--cycle", cycle]
                commands.append(["cycle", *flags])
                for axis, start, stop in AXES:
                    for fmt in ("csv", "json"):
                        commands.append(["sweep", *flags, "--axis", axis, f"--start={start}",
                                         "--stop", stop, "--steps", "257", "--format", fmt])
    for (o1, o2, t1, t2), bath, cycle, axis, start, stop, steps in BLOCK_SWEEPS:
        for fmt in ("csv", "json"):
            commands.append(["sweep", "--omega1", o1, "--omega2", o2, "--t1", t1, "--t2", t2,
                             "--bath", bath, "--cycle", cycle, "--axis", axis,
                             f"--start={start}", "--stop", stop, "--steps", steps,
                             "--format", fmt])
    for family in ("first-kind", "second-kind", "mixed"):
        for samples in ("1", "2049", "5000"):
            for seed in ("1", "7"):
                commands.append(["audit", "--samples", samples, "--seed", seed,
                                 "--family", family])
    for samples, seed in (("0", "1"), ("100000001", "1"), ("5", "-1")):
        commands.append(["audit", "--samples", samples, "--seed", seed])
    states = [["--nth", n, "--r", r, "--alpha-re", re, "--alpha-im", im, "--omega", "20"]
              for n, r, re, im in ERGOTROPY_STATES]
    for flags in (*states, *EDGE_ERGOTROPY):
        commands += [["ergotropy", *flags], ["ergotropy", *flags, "--oracle"]]
    return commands


def run_corpus(src: str) -> None:
    """Run the corpus on the package under `src`; one JSON line per command on stdout."""
    sys.path.insert(0, src)
    from otto_forge import cli  # imported here: the tree is chosen at run time

    assert pathlib.Path(cli.__file__).resolve().is_relative_to(pathlib.Path(src).resolve())
    searched = []  # the latest command's search density
    if hasattr(cli, "search_density"):
        search = cli.search_density

        def recording_search(*args, **kwargs):
            searched[:] = [search(*args, **kwargs)]
            return searched[0]

        cli.search_density = recording_search
    results = sys.stdout
    for argv in corpus():
        searched.clear()
        raw, err = io.BytesIO(), io.StringIO()
        out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
        # a fresh warnings registry per command, as in a process of its own
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except Exception as exc:  # an escaped exception is a result too
                code = f"raised {type(exc).__name__}: {exc}"
        stdout = raw.getvalue()
        record = {"code": code, "sha": hashlib.sha256(stdout).hexdigest(),
                  "stderr": err.getvalue()}
        if stdout.startswith(b"{") and len(stdout) < 65536:
            record["json"] = json.loads(stdout)
        if code == 0 and searched and hasattr(searched[0], "factor"):
            for key, array in (("factor", searched[0].factor),
                               ("spectrum", searched[0].eigenvalues)):
                record[key] = hashlib.sha256(array.tobytes()).hexdigest()
        results.write(json.dumps(record) + "\n")


def _tree(rev: str | None, scratch: str) -> str:
    """The `src` directory of `rev`, extracted under `scratch`; the working tree's for None."""
    if rev is None:
        return str(ROOT / "src")
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             check=True, capture_output=True).stdout
    dest = os.path.join(scratch, rev.replace("/", "_"))
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))
    return os.path.join(dest, "src")


def _start(src: str) -> subprocess.Popen:
    code = (f"import sys; sys.path.insert(0, {str(ROOT / 'bench')!r}); "
            f"import identity; identity.run_corpus({src!r})")
    env = os.environ | {"OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, env=env,
                            text=True)


def _differences(a: dict, b: dict) -> list[str]:
    lines = []
    if a["code"] != b["code"]:
        lines.append(f"exit {a['code']} -> {b['code']}")
    if a["sha"] != b["sha"]:
        keys = sorted({*a.get("json", {}), *b.get("json", {})})
        fields = [k for k in keys if a.get("json", {}).get(k) != b.get("json", {}).get(k)]
        detail = f" (fields {', '.join(fields)})" if "json" in a and "json" in b else ""
        lines.append(f"stdout {a['sha'][:12]} -> {b['sha'][:12]}{detail}")
    if a["stderr"] != b["stderr"]:
        lines.append(f"stderr {a['stderr']!r} -> {b['stderr']!r}")
    for key in ("factor", "spectrum"):
        if key in a and key in b and a[key] != b[key]:
            lines.append(f"{key} bytes {a[key][:12]} -> {b[key][:12]}")
    return lines


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2 or argv[0].startswith("-"):
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    revs = [argv[0], argv[1] if len(argv) == 2 else None]
    names = [rev or "working tree" for rev in revs]
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        procs = [_start(_tree(rev, scratch)) for rev in revs]
        outputs = [proc.communicate()[0] for proc in procs]
    elapsed = time.perf_counter() - start
    for name, proc in zip(names, procs):
        if proc.returncode != 0:
            print(f"{name}: the corpus run failed (exit {proc.returncode})", file=sys.stderr)
            return 2
    commands = corpus()
    a_results, b_results = ([json.loads(line) for line in out.splitlines()] for out in outputs)
    differ = densities = density_differ = 0
    for argv_, a, b in zip(commands, a_results, b_results):
        lines = _differences(a, b)
        densities += "factor" in a and "factor" in b
        density_differ += any(line.startswith(("factor", "spectrum")) for line in lines)
        if lines:
            differ += 1
            print("otto-forge " + " ".join(argv_))
            for line in lines:
                print("    " + line)
    print(f"{names[0]} against {names[1]}: {len(commands)} commands, {differ} differ, "
          f"{elapsed:.1f} s; factor and spectrum digests of {densities} oracle densities, "
          f"{density_differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
