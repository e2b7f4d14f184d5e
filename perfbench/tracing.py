"""Spans around the package's public functions, and the per-layer metrics from them.

`Tracer.install()` replaces each traced function with a wrapper wherever
callers look it up: in every otto_forge module namespace and in the dicts
those modules hold (the cycle dispatch tables). `uninstall()` puts the
originals back. Each call records a span (name, start, end, parent) in
flat arrays kept in memory; `save()` writes them when the run ends.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from array import array

import numpy as np

LAYERS = {
    "cli": ("main",),
    "sweeps": ("run_sweep", "emit_table", "audit_campaign"),
    "cycles": ("standard_cycle", "modified_cycle", "second_kind_cycle", "audit_laws"),
    "thermo": ("occupation", "invert_occupation", "thermal_entropy"),
    "gaussian": ("delta_n", "ergotropy_analytic"),
    "fock": ("choose_cutoff", "build_fock_density", "ergotropy_of_density", "entropy_fock"),
}
NAMES = tuple(f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns)
LEDGER_NAMES = ("cycles.standard_cycle", "cycles.modified_cycle", "cycles.second_kind_cycle")


class Tracer:
    def __init__(self) -> None:
        self.name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.failed = array("b")
        # per-span counts, only for the few coarse calls that carry them
        self.counts: dict[int, dict[str, float]] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, object, object]] = []

    def _wrap(self, fn, name_id: int):
        name, parent, start, end, failed = self.name, self.parent, self.start, self.end, self.failed
        stack, counts, clock = self._stack, self.counts, time.perf_counter
        label = NAMES[name_id]
        measure_memory = label == "fock.build_fock_density"

        def traced(*args, **kwargs):
            idx = len(name)
            name.append(name_id)
            parent.append(stack[-1])
            failed.append(1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            if measure_memory:
                tracemalloc.start()
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed[idx] = 0
            finally:
                end[idx] = clock()
                start[idx] = t0
                stack.pop()
                if measure_memory:
                    counts[idx] = {"peak_bytes": tracemalloc.get_traced_memory()[1],
                                   "cutoff": args[1] if len(args) > 1 else kwargs["cutoff"]}
                    tracemalloc.stop()
            if label == "sweeps.run_sweep":
                counts[idx] = {"rows": len(result),
                               "error_rows": sum(row.error is not None for row in result)}
            elif label == "sweeps.emit_table":
                counts[idx] = {"rows": len(args[0])}
            elif label == "sweeps.audit_campaign":
                counts[idx] = {"samples": args[0]}
            elif label == "fock.choose_cutoff":
                counts[idx] = {"cutoff": result}
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function in every otto_forge namespace and dispatch dict."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "otto_forge" or key.startswith("otto_forge."))]
        originals = {id(getattr(sys.modules[f"otto_forge.{layer}"], fn)): NAMES.index(f"{layer}.{fn}")
                     for layer, fns in LAYERS.items() for fn in fns}
        wrappers = {}

        def wrapper_for(value):
            name_id = originals.get(id(value))
            if name_id is None:
                return None
            if name_id not in wrappers:
                wrappers[name_id] = self._wrap(value, name_id)
            return wrappers[name_id]

        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapped = wrapper_for(value)
                if wrapped is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapped)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        wrapped = wrapper_for(item)
                        if wrapped is not None:
                            self._patched.append((value, key, item))
                            value[key] = wrapped

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patched):
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)
        self._patched.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "failed": np.frombuffer(self.failed, dtype=np.int8).copy(),
        }

    def save(self, path: str) -> None:
        """Write the spans, the name table and the per-span counts to one .npz file."""
        count_keys = sorted({k for c in self.counts.values() for k in c})
        count_idx = np.array(sorted(self.counts), dtype=np.int64)
        counts = np.array([[self.counts[i].get(k, np.nan) for k in count_keys] for i in count_idx],
                          dtype=np.float64).reshape(len(count_idx), len(count_keys))
        np.savez_compressed(path, names=np.array(NAMES), count_keys=np.array(count_keys),
                            count_span=count_idx, counts=counts, **self.arrays())


def layer_metrics(tracer: Tracer, passes: int, commands: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as (value, unit), of `passes` traced passes of `commands` commands.

    Times and counts are per pass; ratios are over all passes.

    Self time is a span's duration minus that of its direct children; the
    children of one span never overlap, since the program is single-threaded.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    has_parent = a["parent"] >= 0
    child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
    self_time = dur - child
    by_name = {n: a["name"] == i for i, n in enumerate(NAMES)}

    def total(values, *names):
        return float(sum(values[by_name[n]].sum() for n in names))

    def per_pass(values, *names):
        return total(values, *names) / passes

    def calls(*names):
        return int(sum(by_name[n].sum() for n in names))

    def count(label, key):
        i = NAMES.index(label)
        return sum(c.get(key, 0) for idx, c in tracer.counts.items() if tracer.name[idx] == i)

    def layer(prefix):
        return tuple(n for n in NAMES if n.startswith(prefix + "."))

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    ledgers = calls(*LEDGER_NAMES)
    rows = count("sweeps.run_sweep", "rows") + count("sweeps.audit_campaign", "samples")
    builds = calls("fock.build_fock_density")
    peaks = [c["peak_bytes"] for c in tracer.counts.values() if "peak_bytes" in c]
    return {
        "cli.self_s": (per_pass(self_time, *layer("cli")), "s"),
        "sweeps.self_s": (per_pass(self_time, *layer("sweeps")), "s"),
        "sweeps.emit_us_per_row": (ratio(total(dur, "sweeps.emit_table"),
                                         count("sweeps.emit_table", "rows"), 1e6), "us"),
        "sweeps.error_rows": (count("sweeps.run_sweep", "error_rows") / passes, "count"),
        "cycles.self_s": (per_pass(self_time, *layer("cycles")), "s"),
        "cycles.ledger_us": (ratio(total(dur, *LEDGER_NAMES), ledgers, 1e6), "us"),
        "cycles.ledgers_per_row": (ratio(ledgers, rows), "count"),
        "cycles.audit_laws_us": (ratio(total(dur, "cycles.audit_laws"),
                                       calls("cycles.audit_laws"), 1e6), "us"),
        "thermo.self_s": (per_pass(self_time, *layer("thermo")), "s"),
        "thermo.calls_per_ledger": (ratio(calls(*layer("thermo")), ledgers), "count"),
        "gaussian.self_s": (per_pass(self_time, *layer("gaussian")), "s"),
        "fock.self_s": (per_pass(self_time, *layer("fock")), "s"),
        "fock.builds_per_search": (ratio(builds, calls("fock.choose_cutoff")), "count"),
        "fock.rejected_builds": (a["failed"][by_name["fock.build_fock_density"]].sum() / passes,
                                 "count"),
        "fock.levels_built_per_op": (ratio(count("fock.build_fock_density", "cutoff"),
                                           commands * passes), "count"),
        "fock.build_s": (per_pass(dur, "fock.build_fock_density"), "s"),
        "fock.spectrum_s": (per_pass(dur, "fock.ergotropy_of_density", "fock.entropy_fock"), "s"),
        "fock.build_peak_mb": (max(peaks, default=0) / 2**20, "MB"),
        "fock.cutoff_sum": (count("fock.choose_cutoff", "cutoff") / passes, "count"),
    }
