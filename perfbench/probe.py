"""Fresh-interpreter probes for the metrics that only a cold start can show.

    python3 perfbench/probe.py import
        prints {"seconds": ..., "modules": ...}: the time `import otto_forge.cli`
        takes and how many modules it adds to sys.modules.
    python3 perfbench/probe.py setup WORKLOAD SEED
        imports the CLI, makes the workload's inputs, runs and checks its
        smallest command, then prints "ready". run.py times launch to "ready".
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv: list[str]) -> int:
    if argv[0] == "import":
        before = len(sys.modules)
        start = time.perf_counter()
        import otto_forge.cli  # noqa: F401

        seconds = time.perf_counter() - start
        added = len(sys.modules) - before
        import json

        print(json.dumps({"seconds": seconds, "modules": added}))
        return 0
    workload, seed = argv[1], int(argv[2])
    import otto_forge.cli as cli
    import workloads

    workloads.commands(workload, seed)
    workloads.execute(workloads.smallest(workload, seed), cli.main)
    print("ready", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
