"""otto-forge benchmark: one closed-loop client driving `otto_forge.cli.main` in-process.

    python3 perfbench/run.py --workload {sweep,audit,oracle} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from ./src.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics. With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones. See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

# One BLAS thread unless the caller says otherwise: with OpenBLAS's default
# of one thread per core, the oracle's times jump by 2-5x whenever another
# process holds a core, which no run length here can average away. Set
# before numpy loads; the probes inherit it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_PROBES = 7
IMPORT_PROBES = 5


class Client:
    """Runs whole passes over a workload's commands and tallies the outcome."""

    def __init__(self, cli, commands) -> None:
        self.cli = cli
        self.commands = commands
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run_pass(self) -> float:
        """One pass over the command list; returns the time spent inside `cli.main`.

        `cli.main` is looked up per command, so a traced pass calls the wrapper.
        """
        spent = 0.0
        for command in self.commands:
            self.attempted += 1
            try:
                elapsed = workloads.execute(command, self.cli.main)
            except checks.CheckError as exc:
                self.failed += 1
                self.wrong += 1
                print(f"wrong output: {command.name}: {exc}", file=sys.stderr)
            except Exception as exc:  # a failing command is counted, not fatal
                self.failed += 1
                print(f"failed: {command.name}: {exc!r}", file=sys.stderr)
            else:
                self.times.append(elapsed)
                spent += elapsed
        return spent


def probe(*args: str) -> tuple[float, str]:
    """Launch a fresh interpreter on probe.py; return (launch-to-first-line seconds, line)."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), *args],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or not line:
        raise RuntimeError(f"probe {args} exited {proc.returncode}")
    return elapsed, line.strip()


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(cli, workload: str, seed: int, seconds: float) -> tuple[Client, dict]:
    setups = []
    for _ in range(SETUP_PROBES):
        elapsed, line = probe("setup", workload, str(seed))
        if line != "ready":
            raise RuntimeError(f"setup probe printed {line!r}")
        setups.append(elapsed)
    workloads.execute(workloads.smallest(workload, seed), cli.main)

    client = Client(cli, workloads.commands(workload, seed))
    deadline = time.perf_counter() + seconds
    spent = client.run_pass()
    # Later passes repeat the same commands in one process and only add
    # allocator fragmentation (a bimodal +7% on sweep) that a CLI user, who
    # runs one command per process, never sees.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while time.perf_counter() < deadline:
        spent += client.run_pass()
    passed = client.attempted - client.failed
    return client, {
        "ops_per_s": metric(passed / spent if spent else 0.0, "1/s"),
        "op_p50_s": metric(statistics.median(client.times) if client.times else 0.0, "s"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }


def traced_run(cli, workload: str, seed: int, seconds: float) -> tuple[Client, dict]:
    """Pairs of one untraced and one traced pass, until `seconds` have passed."""
    imports = [json.loads(probe("import")[1]) for _ in range(IMPORT_PROBES)]
    workloads.execute(workloads.smallest(workload, seed), cli.main)

    client = Client(cli, workloads.commands(workload, seed))
    tracer = tracing.Tracer()
    untraced = traced = 0.0
    passes = 0
    deadline = time.perf_counter() + seconds
    while passes == 0 or time.perf_counter() < deadline:
        untraced += client.run_pass()
        tracer.install()
        try:
            traced += client.run_pass()
        finally:
            tracer.uninstall()
        passes += 1
    tracer.save(os.path.join(workloads.WORK_DIR, f"trace_{workload}.npz"))

    metrics = {
        "import.cli_s": metric(statistics.median(p["seconds"] for p in imports), "s"),
        "import.modules": metric(statistics.median(p["modules"] for p in imports), "count"),
    }
    for name, (value, unit) in tracing.layer_metrics(tracer, passes, len(client.commands)).items():
        metrics[name] = metric(value, unit)
    metrics["trace.overhead_pct"] = metric(100.0 * (traced / untraced - 1.0), "%")
    return client, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "otto_forge")):
        print(f"error: no otto_forge sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    import otto_forge.cli as cli

    os.makedirs(workloads.WORK_DIR, exist_ok=True)
    try:
        if args.trace:
            client, metrics = traced_run(cli, args.workload, args.seed, args.seconds)
        else:
            client, metrics = timed_run(cli, args.workload, args.seed, args.seconds)
    finally:
        for command in workloads.commands(args.workload, args.seed):
            if command.out and os.path.exists(command.out):
                os.remove(command.out)

    print(f"{args.workload}: {client.attempted} commands attempted, {client.failed} failed",
          file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps({"correct": client.wrong == 0, "attempted": client.attempted,
                      "failed": client.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
