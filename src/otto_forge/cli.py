"""Command-line front end: single cycles, sweeps, ergotropy checks, audits.

Exit codes: 0 success, 2 usage error, 3 physics/numerics error. Everything on
stdout is machine-parseable (JSON, or RFC-4180 CSV for sweeps); warnings and
diagnostics go to stderr.

A JSON config file (--config) may supply any of the value flags, using the
flag names as keys (hyphens and underscores are interchangeable). Each value
is read as the flag would read it from the command line. Explicit flags win
over the config file, with a warning on stderr when they disagree.

A plain ValueError raised anywhere below `main` is a usage error: `main`
prints it as one `error:` line and returns 2. Every command writes its
output as bytes to `sys.stdout.buffer`, so a caller that runs `main`
in-process must redirect stdout to a text stream with a binary buffer
underneath, such as `io.TextIOWrapper(io.BytesIO())`.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import itertools
import json
import math
import os
import sys
from importlib import util

from . import __version__
from .errors import OttoForgeError
from .cycles import (
    CycleConfig,
    CycleKind,
    DisplacedThermalBath,
    SecondKindBath,
    SqueezedDisplacedBath,
    SqueezedThermalBath,
    ThermalBath,
    cycle_columns,
)
from .fock import entropy_fock, ergotropy_of_density, search_density
from .gaussian import (
    GaussianModeState,
    delta_n,
    ergotropy_analytic,
    is_nonclassical,
    state_energy,
)
from .sweeps import SweepAxis, SweepSpec, audit_campaign, ledger_record, sweep_blocks
from .thermo import thermal_entropy


def _parse_bath(text: str):
    """Parse a bath flag: thermal | squeezed:R | displaced:RE,IM | second-kind:DN.

    Squeeze and displacement combine with '+', e.g. squeezed:0.5+displaced:1,0.2.
    Each kind may appear once.
    """
    r = None
    alpha = None
    second = None
    seen = set()
    for part in text.split("+"):
        kind, _, payload = part.partition(":")
        kind = kind.strip().lower()
        try:
            if kind in seen:
                raise ValueError(f"bath kind {kind!r} given twice")
            seen.add(kind)
            if kind == "thermal":
                if payload:
                    raise ValueError("thermal takes no parameter")
            elif kind == "squeezed":
                r = float(payload)
            elif kind == "displaced":
                re_str, sep, im_str = payload.partition(",")
                alpha = complex(float(re_str), float(im_str) if sep else 0.0)
            elif kind == "second-kind":
                second = float(payload)
            else:
                raise ValueError(f"unknown bath kind {kind!r}")
        except ValueError as exc:
            raise ValueError(f"malformed bath spec {text!r}: {exc}") from None
    if second is not None:
        if r is not None or alpha is not None:
            raise ValueError("second-kind baths cannot be combined with squeezing/displacement")
        return SecondKindBath(excess=second)
    if r is not None and alpha is not None:
        return SqueezedDisplacedBath(r=r, alpha=alpha)
    if r is not None:
        return SqueezedThermalBath(r=r)
    if alpha is not None:
        return DisplacedThermalBath(alpha=alpha)
    return ThermalBath()


def _merge_config(args: argparse.Namespace) -> None:
    """Fill unset flags from the --config JSON payload; flags win loudly."""
    if args.config is None:
        return
    try:
        with open(args.config, encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        # ValueError: bad JSON, or (Python >= 3.10.7) an int over the digit limit
        raise ValueError(f"cannot read config file {args.config!r}: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError("config file must hold a flat JSON object")
    actions = {action.dest: action for action in args.parser._actions}
    for raw_key, value in payload.items():
        key = raw_key.replace("-", "_")
        action = actions.get(key)
        if action is None or key in ("config", "help"):
            raise ValueError(f"unknown config key {raw_key!r}")
        if action.nargs == 0 and not isinstance(value, bool):  # a flag without a value
            raise ValueError(f"config key {raw_key!r}: expected true or false, got {value!r}")
        if action.nargs != 0 and action.type is None and not isinstance(value, str):
            raise ValueError(f"config key {raw_key!r}: expected a string, got {value!r}")
        if action.type is not None:
            try:
                value = action.type(str(value))
            except ValueError:
                raise ValueError(
                    f"config key {raw_key!r}: invalid {action.type.__name__} value {value!r}"
                ) from None
        if action.choices is not None and value not in action.choices:
            raise ValueError(
                f"config key {raw_key!r}: {value!r} is not one of {list(action.choices)}"
            )
        current = getattr(args, key)
        if current is None or current is False:
            setattr(args, key, value)
        elif current != value:
            print(
                f"warning: flag --{raw_key.replace('_', '-')}={current} overrides "
                f"config value {value}",
                file=sys.stderr,
            )


def _require(args: argparse.Namespace, *names: str) -> None:
    missing = [n for n in names if getattr(args, n) is None]
    if missing:
        flags = ", ".join("--" + n.replace("_", "-") for n in missing)
        raise ValueError(f"missing required argument(s): {flags}")


def _check_finite(payload: dict) -> None:
    """Raise OverflowError naming the payload's non-finite numbers, if it has any."""
    bad = [key for key, value in payload.items()
           if isinstance(value, float) and not math.isfinite(value)]
    if bad:
        raise OverflowError(f"non-finite result: {', '.join(bad)}")


def _write(chunks, path: str | None = None) -> None:
    """Write byte chunks to the file at `path`, or to stdout; a failed write is a usage error."""
    try:
        out = open(path, "wb") if path else sys.stdout.buffer
        try:
            out.writelines(chunks)
        finally:  # a reader that stops early, as `| head` does, fails a write with EPIPE
            out.close() if path else out.flush()
    except OSError as exc:
        if not path:  # the unsent rest goes to /dev/null, not to a failed flush at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise ValueError(f"cannot write {path or 'stdout'!r}: {exc}") from None


def _print_json(payload: dict) -> None:
    """Print the payload as one line of strict JSON; a non-finite number is a numerics error."""
    _check_finite(payload)
    _write([json.dumps(payload, allow_nan=False).encode() + b"\n"])


def _cycle_config(args: argparse.Namespace) -> CycleConfig:
    """The base cycle of `cycle` and `sweep`, from the flags both take."""
    return CycleConfig(
        omega1=args.omega1,
        omega2=args.omega2,
        t1=args.t1,
        t2=args.t2,
        bath=_parse_bath(str(args.bath)),
    )


def _cmd_cycle(args: argparse.Namespace) -> int:
    columns = cycle_columns(CycleKind(args.cycle), _cycle_config(args))
    ledger, law = columns.ledger(0), columns.law(0)
    record = ledger_record(ledger, law) | {
        "clausius_sum": law.clausius_sum,
        "clausius_skipped": law.clausius_skipped,
        "w_inv": ledger.w_inv,
        "eta_reason": ledger.eta_reason,
        "note": ledger.note,
    }
    _print_json(record)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec(
        base=_cycle_config(args),
        axis=SweepAxis(args.axis),
        start=args.start,
        stop=args.stop,
        steps=args.steps,
        cycle_kind=CycleKind(args.cycle),
    )
    blocks = sweep_blocks(spec, args.format)
    first = next(blocks)  # evaluated before the output opens: a sweep that fails writes nothing
    _write(itertools.chain((first,), blocks), args.out)
    return 0


def _cmd_ergotropy(args: argparse.Namespace) -> int:
    omega = float(args.omega)
    state = GaussianModeState(n_th=args.nth, r=args.r, alpha=complex(args.alpha_re, args.alpha_im))
    analytic = ergotropy_analytic(state, omega)
    if args.oracle and not 0.0 < args.tail_tol < 1.0:
        raise ValueError(f"--tail-tol must lie in (0, 1), got {args.tail_tol!r}")
    payload = {
        "n_th": state.n_th,
        "r": state.r,
        "alpha_re": state.alpha.real,
        "alpha_im": state.alpha.imag,
        "omega": omega,
        "delta_n": delta_n(state),
        "energy": state_energy(state, omega),
        "ergotropy": analytic,
        "nonclassical": is_nonclassical(state),
    }
    if args.oracle:
        _check_finite(payload)  # an overflowed analytic result leaves the oracle nothing to check
        density = search_density(state, args.tail_tol)
        oracle_w = ergotropy_of_density(density, omega)
        oracle_s = entropy_fock(density)
        # an ergotropy at most 1e-9 of the energy is round-off: divide by the
        # energy, unless that underflowed to 0 too (then the deviation is absolute)
        scale = analytic if analytic > 1e-9 * payload["energy"] else payload["energy"]
        deviation = abs(oracle_w - analytic)
        payload.update(
            {
                "oracle_cutoff": density.dim,
                "trace_deficit": density.trace_deficit,
                "ergotropy_fock": oracle_w,
                "entropy_fock": oracle_s,
                "thermal_entropy": thermal_entropy(state.n_th),
                "ergotropy_rel_dev": deviation / scale if scale else deviation,
                "entropy_dev": abs(oracle_s - thermal_entropy(state.n_th)),
            }
        )
    _print_json(payload)
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError("--seed must be non-negative")
    summary = audit_campaign(args.samples, args.seed, family=args.family)
    _print_json(vars(summary) | {"ok": summary.ok})
    return 0 if summary.ok else 3


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (its subcommand defaults are only read)."""
    parser = argparse.ArgumentParser(
        prog="otto-forge",
        description="Quantum Otto machines powered by non-thermal baths.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON file providing any of the value flags")

    base_flags = ("omega1", "omega2", "t1", "t2", "bath")

    def add_base_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--omega1", type=float, help="working-fluid frequency in strokes 4/1")
        p.add_argument("--omega2", type=float, help="working-fluid frequency in strokes 2/3")
        p.add_argument("--t1", type=float, help="cold-bath temperature")
        p.add_argument("--t2", type=float, help="hot-bath temperature parameter")
        p.add_argument(
            "--bath",
            help="thermal | squeezed:R | displaced:RE,IM | second-kind:DN "
            "(combine with '+', e.g. squeezed:0.5+displaced:1,0)",
        )
        p.add_argument(
            "--cycle",
            choices=sorted(k.value for k in CycleKind),
            help="cycle variant (default: standard)",
        )
        add_config(p)

    p_cycle = sub.add_parser("cycle", help="compute one stroke ledger")
    add_base_flags(p_cycle)
    p_cycle.set_defaults(func=_cmd_cycle, parser=p_cycle, required=base_flags,
                         defaults={"cycle": "standard"})

    p_sweep = sub.add_parser("sweep", help="sweep one parameter and emit a table")
    add_base_flags(p_sweep)
    p_sweep.add_argument(
        "--axis", choices=[axis.value for axis in SweepAxis], help="sweep axis"
    )
    p_sweep.add_argument("--start", type=float, help="first grid value")
    p_sweep.add_argument("--stop", type=float, help="last grid value (inclusive)")
    p_sweep.add_argument("--steps", type=int, help="number of grid points (>= 2)")
    p_sweep.add_argument("--format", choices=("csv", "json"), help="table format (default: csv)")
    p_sweep.add_argument("--out", help="write the table to a file instead of stdout")
    p_sweep.set_defaults(func=_cmd_sweep, parser=p_sweep,
                         required=(*base_flags, "axis", "start", "stop", "steps"),
                         defaults={"cycle": "standard", "format": "csv"})

    p_ergo = sub.add_parser("ergotropy", help="analytic state report, optionally oracle-checked")
    p_ergo.add_argument("--nth", type=float, help="thermal occupation of the state")
    p_ergo.add_argument("--r", type=float, help="squeezing amplitude (default 0)")
    p_ergo.add_argument("--alpha-re", type=float, help="displacement, real part")
    p_ergo.add_argument("--alpha-im", type=float, help="displacement, imaginary part")
    p_ergo.add_argument("--omega", type=float, help="oscillator frequency")
    p_ergo.add_argument(
        "--oracle", action="store_true", help="also run the truncated-Fock oracle"
    )
    p_ergo.add_argument("--tail-tol", type=float, help="oracle tail tolerance (default 1e-12)")
    add_config(p_ergo)
    p_ergo.set_defaults(func=_cmd_ergotropy, parser=p_ergo, required=("nth", "omega"),
                        defaults={"r": 0.0, "alpha_re": 0.0, "alpha_im": 0.0, "tail_tol": 1e-12})

    p_audit = sub.add_parser("audit", help="randomized first/second-law audit campaign")
    p_audit.add_argument("--samples", type=int, help="number of random configurations")
    p_audit.add_argument("--seed", type=int, help="RNG seed (campaigns are reproducible)")
    p_audit.add_argument(
        "--family",
        choices=("first-kind", "second-kind", "mixed"),
        help="configuration family to draw from (default: mixed)",
    )
    add_config(p_audit)
    p_audit.set_defaults(func=_cmd_audit, parser=p_audit, required=("samples", "seed"),
                         defaults={"family": "mixed"})

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        # every flag's argparse default is None, so that a config value can
        # stand in for it; each command's own defaults and required flags
        # apply once the config file is merged
        _merge_config(args)
        for name, value in args.defaults.items():
            if getattr(args, name) is None:
                setattr(args, name, value)
        _require(args, *args.required)
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OttoForgeError as exc:
        print(f"physics error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:  # e.g. a bath parameter too large for a double
        print(f"physics error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


# each package's bundled OpenBLAS: its file name prefix and its thread-count setter
_BUNDLED_BLAS = (
    ("numpy", "libscipy_openblas64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-", "scipy_openblas_set_num_threads"),
)


def _one_blas_thread() -> None:
    """Run numpy's and scipy's bundled OpenBLAS on one thread, unless OPENBLAS_NUM_THREADS is set.

    The oracle's products are too small for a second thread to pay for
    itself. A package, library or setter that is missing is skipped.
    """
    if "OPENBLAS_NUM_THREADS" in os.environ:
        return
    for package, prefix, setter in _BUNDLED_BLAS:
        spec = util.find_spec(package)
        if spec is None or not spec.submodule_search_locations:
            continue
        libs = os.path.join(os.path.dirname(spec.submodule_search_locations[0]), f"{package}.libs")
        try:
            names = [name for name in os.listdir(libs) if name.startswith(prefix)]
        except OSError:
            continue
        for name in names:
            try:
                function = getattr(ctypes.CDLL(os.path.join(libs, name)), setter)
            except (OSError, AttributeError):
                continue
            function.argtypes, function.restype = [ctypes.c_int], None
            function(1)


def run() -> None:
    """The console script: main() on one BLAS thread unless OPENBLAS_NUM_THREADS says otherwise."""
    _one_blas_thread()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
