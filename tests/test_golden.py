"""Byte-exact outputs: the README's fig2 and fig5 tables, two edge sweeps, six audit summaries
and five `cycle` records.

Each SHA-256 pins every byte of one command's output. A change to any of
them changes a published number, so it must be deliberate and recorded.
"""

import contextlib
import hashlib
import io

import pytest

from otto_forge.cli import main

README_POINT = ["--omega1", "7", "--omega2", "20", "--t1", "2", "--t2", "10",
                "--bath", "squeezed:0.5"]

# A cold-temperature sweep from T1 = 0 on the README's T2 and bath: its rows
# take the exact branches and error paths of the scalar occupation.
EDGE_SWEEP = ["--omega2", "20", "--t1", "0", "--t2", "10", "--bath", "squeezed:0.5",
              "--axis", "cold-temperature", "--start", "0"]

GOLDEN = {
    "fig5": (
        ["sweep", *README_POINT, "--cycle", "modified", "--axis", "delta-n",
         "--start", "0", "--stop", "1", "--steps", "101"],
        "8b912de5b4a1cbeec8b6e9872a2c5a7f41708a1330ae063708e03a5b98dc8ec9",
    ),
    "fig2": (
        ["sweep", *README_POINT, "--cycle", "standard", "--axis", "frequency-ratio",
         "--start", "0.0001", "--stop", "1", "--steps", "10000"],
        "830d48c9109e4a74eb3fe51f933bbd053522875b04c03b669c4f488e830a368f",
    ),
    # 9 ZeroDivisionError rows (omega1/T1 underflows to 0), 1 OverflowError
    # row (1/expm1 of a subnormal is inf) and the T1 = 0 ledger
    "edge-underflow": (
        ["sweep", "--omega1", "5e-324", *EDGE_SWEEP, "--stop", "10", "--steps", "11"],
        "c8d17be0e4edb53321f625ece6afec81d765a0d69f735036c93eee3e6ccd1f6e",
    ),
    # T1 = 0, then omega1/T1 > 709: the exp(-x) branch
    "edge-cold": (
        ["sweep", "--omega1", "7", *EDGE_SWEEP, "--stop", "0.02", "--steps", "9"],
        "50a056a41f79ec5d1f47121cba516f93acd252ea161afbc8b088f7eec5997748",
    ),
    "audit-first-kind": (
        ["audit", "--samples", "2000", "--seed", "42", "--family", "first-kind"],
        "c5bebb6fd480a9f97c9b23bb95c916a6aa338b90bb7462faccdb14ea708f41ed",
    ),
    "audit-second-kind": (
        ["audit", "--samples", "2000", "--seed", "42", "--family", "second-kind"],
        "3700a9f6e6bfc1ce996dfad5f21a5b702a3096b04c591b9180344cf121cbebb4",
    ),
    "audit-mixed": (
        ["audit", "--samples", "2000", "--seed", "42", "--family", "mixed"],
        "f011d83fa40fe64b4cdef3ec295ab078d20830c08dd9870a7025fe56c3be78e1",
    ),
    # 5000 samples: two full audit chunks and a partial one
    "audit-first-kind-chunks": (
        ["audit", "--samples", "5000", "--seed", "7", "--family", "first-kind"],
        "1640b780c811cf608dd40de0a4055f4b4ecd9423deb2ec6322ba905a2cda7d82",
    ),
    "audit-second-kind-chunks": (
        ["audit", "--samples", "5000", "--seed", "7", "--family", "second-kind"],
        "d927c3ad6d252af81e0683a8832693b2c62eeef37c257f0589ab5f5cfbbc2066",
    ),
    "audit-mixed-chunks": (
        ["audit", "--samples", "5000", "--seed", "7", "--family", "mixed"],
        "ea5b4c6a9afadcbc85cdc71553f95ad5094eaccf29a01e90604f2fedc29a05d1",
    ),
    "cycle-readme": (
        ["cycle", *README_POINT],
        "e883ae458e268ad5627573500b99621b7fd5210e560e92f3a0528a477fe6316f",
    ),
    # n2 < n1: the dual engine/refrigerator, with its COP and w_inv
    "cycle-dual": (
        ["cycle", "--omega1", "3", *README_POINT[2:], "--cycle", "modified"],
        "5dcd7f8f61f8bc3e979fdaae4072eaf5d8bb0674360fc1f5bdb3bb6b97bb3fe2",
    ),
    # the Clausius sum at T_real
    "cycle-second-kind": (
        ["cycle", *README_POINT[:-1], "second-kind:0.3", "--cycle", "second-kind"],
        "c2c2834291f272b84251473e211ec083edc17608951b721e7a4b3abcb4870db1",
    ),
    # T1 = T2 = 0: the Clausius check is skipped
    "cycle-zero-temperature": (
        ["cycle", *README_POINT[:4], "--t1", "0", "--t2", "0", *README_POINT[-2:]],
        "4a9043dc5759f76423cd9349d65480a2c9def1446b3c23a30577a615fc4d5c33",
    ),
    # delta_n = 0: the modified ledger falls back to the standard one, with its note
    "cycle-nothing-to-undo": (
        ["cycle", *README_POINT[:-1], "squeezed:0", "--cycle", "modified"],
        "9d76fe92b47fd4f4504edcd8b3803ba95577e681fa894532d393a60206be1369",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_output_bytes_are_pinned(name):
    argv, digest = GOLDEN[name]
    raw = io.BytesIO()
    stdout = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    assert hashlib.sha256(raw.getvalue()).hexdigest() == digest
