"""The benchmark's workloads: seeded command lists and how one command is run.

A workload is a fixed list of `otto-forge` commands made from the seed. A
run repeats whole passes over that list, so the mix of commands is the same
in every run and for every seed. Each command is one in-process call of
`otto_forge.cli.main(argv)`; its output is then checked against checks.py.
"""

from __future__ import annotations

import cmath
import contextlib
import gc
import io
import json
import math
import os
import random
import time
from dataclasses import dataclass

from checks import (
    AuditCase,
    Bath,
    OracleCase,
    SweepCase,
    bose,
    check_audit,
    check_oracle,
    check_sweep_table,
    csv_chunks,
    json_chunks,
)

WORKLOADS = ("sweep", "audit", "oracle")
WORK_DIR = os.path.join("perfbench", "_work")

AUDIT_SAMPLES = 10_000

# Oracle states as (n_th, r, |alpha|, complex displacement), with the cutoff
# the search finds at the CLI's default tail tolerance 1e-12. The seed flips
# the sign of alpha, or picks the quadrant of a complex alpha at 45 degrees
# to the squeeze axis: reflections that leave the number distribution, so
# the cutoff and the work, unchanged. The median command is the 161-level
# real state. The complex ones sit above it, since they run through
# threaded BLAS calls whose time jumps by several times on a busy 2-core
# host, and would make op_p50_s jump with them.
ORACLE_STATES = (
    (0.2, 0.5, 1.0, False),   # 52
    (0.1, 0.7, 1.2, False),   # 66
    (0.4, 0.6, 1.0, False),   # 79
    (0.6, 0.7, 1.0, False),   # 120
    (0.3, 1.0, 1.5, False),   # 161
    (0.5, 1.1, 1.0, True),    # 261
    (0.5, 1.3, 1.0, False),   # 363
    (1.2, 1.0, 1.5, True),    # 373
    (2.0, 1.2, 2.0, False),   # 747
)


@dataclass(frozen=True)
class Command:
    """One CLI call: its argv, where its table goes, and the check of its output."""

    name: str
    case: SweepCase | AuditCase | OracleCase
    out: str | None = None  # sweep tables written with --out land here

    def argv(self) -> list[str]:
        return self.case.argv(self.out) if isinstance(self.case, SweepCase) else self.case.argv()

    def check(self, stdout: bytes) -> None:
        case = self.case
        if isinstance(case, SweepCase):
            with (open(self.out, newline="", encoding="utf-8") if self.out
                  else io.StringIO(stdout.decode("utf-8"), newline="")) as table:
                chunks = csv_chunks(table) if case.format == "csv" else json_chunks(json.load(table))
                check_sweep_table(case, chunks)
        elif isinstance(case, AuditCase):
            check_audit(case, json.loads(stdout))
        else:
            check_oracle(case, json.loads(stdout))


def _sweep(seed: int) -> list[Command]:
    rng = random.Random(seed)
    squeezed = Bath(r=0.5)
    o1, t1, t2 = rng.uniform(4.0, 12.0), rng.uniform(1.0, 3.0), rng.uniform(8.0, 12.0)
    n2 = float(bose(20.0, t2))
    alpha = cmath.rect(rng.uniform(0.5, 1.5), rng.uniform(0.0, 2 * math.pi))
    cases = [
        # the README's fig2 regime map and fig5 curve, verbatim
        SweepCase("fig2", "standard", "frequency-ratio", 7.0, 20.0, 2.0, 10.0, squeezed,
                  1e-4, 1.0, 10_000, "csv", role="fig2"),
        SweepCase("fig5", "modified", "delta-n", 7.0, 20.0, 2.0, 10.0, squeezed,
                  0.0, 1.0, 101, "csv", role="fig5"),
        # second kind: excess from -(0.5..0.9) n2, still a valid occupation, to positive
        SweepCase("second-kind", "second-kind", "delta-n", o1, 20.0, t1, t2,
                  Bath(second_kind=0.0), -rng.uniform(0.5, 0.9) * n2, rng.uniform(0.5, 1.5),
                  20_000, "json"),
        # the large one: 10^5 rows, so per-row memory shows in the peak RSS
        SweepCase("displaced-t1", "standard", "cold-temperature", o1, 20.0, t1, t2,
                  Bath(alpha=alpha), 0.0, t2, 100_000, "csv"),
        # modified cycle across the dual engine/refrigerator region
        SweepCase("dual-map", "modified", "frequency-ratio", 3.0, 20.0, 2.0, 10.0,
                  Bath(r=rng.uniform(0.4, 0.6)), 0.01, 1.0, 5_000, "json"),
        # four more 10^4-row CSV tables over the other axes and bath kinds at
        # the README's point, so that op_p50_s is the median of several like
        # commands whose cost does not change with the seed
        SweepCase("squeeze-r", "standard", "squeeze-r", 7.0, 20.0, 2.0, 10.0, squeezed,
                  0.0, 1.5, 10_000, "csv"),
        SweepCase("displacement", "modified", "displacement", 7.0, 20.0, 2.0, 10.0,
                  Bath(alpha=1 + 0.5j), 0.0, 2.0, 10_000, "csv"),
        SweepCase("second-kind-t1", "second-kind", "cold-temperature", 7.0, 20.0, 2.0, 10.0,
                  Bath(second_kind=0.2), 0.0, 10.0, 10_000, "csv"),
        SweepCase("composite", "standard", "frequency-ratio", 7.0, 20.0, 2.0, 10.0,
                  Bath(r=0.5, alpha=1 + 0.5j), 0.01, 1.0, 10_000, "csv"),
    ]
    to_file = {"fig2", "displaced-t1"}
    return [Command(c.name, c, os.path.join(WORK_DIR, f"{c.name}.{c.format}")
                    if c.name in to_file else None) for c in cases]


def _audit(seed: int) -> list[Command]:
    rng = random.Random(seed)
    return [Command(f"audit-{family}", AuditCase(family, AUDIT_SAMPLES, rng.randrange(2**31)))
            for family in ("first-kind", "second-kind", "mixed")]


def _oracle(seed: int) -> list[Command]:
    rng = random.Random(seed)
    commands = []
    for i, (n_th, r, magnitude, is_complex) in enumerate(ORACLE_STATES):
        alpha = (cmath.rect(magnitude, rng.choice((1, 3, 5, 7)) * math.pi / 4) if is_complex
                 else complex(rng.choice((1, -1)) * magnitude))
        commands.append(Command(f"oracle-{i}", OracleCase(n_th, r, alpha)))
    return commands


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's command list for this seed (one pass)."""
    return {"sweep": _sweep, "audit": _audit, "oracle": _oracle}[workload](seed)


def smallest(workload: str, seed: int) -> Command:
    """The cheapest command of the workload's kind, run once during set-up."""
    if workload == "sweep":
        return Command("smallest", SweepCase(
            "smallest", "standard", "frequency-ratio", 7.0, 20.0, 2.0, 10.0, Bath(r=0.5),
            0.5, 1.0, 2, "csv"))
    first = commands(workload, seed)[0].case
    if workload == "audit":
        return Command("smallest", AuditCase("mixed", 1, first.seed))
    return Command("smallest", first)


def execute(command: Command, main) -> float:
    """Run one command through `main(argv)`, check its output, return its wall time.

    Raises on a non-zero exit, an exception, or output that fails its check.
    Only the `main` call is timed; the check runs after the clock stops.
    """
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    argv = command.argv()
    gc.collect()  # the previous check's garbage is not this command's work
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"{command.name}: exit {code}")
    command.check(raw.getvalue())
    return elapsed
