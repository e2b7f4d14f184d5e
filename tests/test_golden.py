"""Byte-exact outputs: the README's fig2 and fig5 tables and six audit summaries.

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
    "audit-first-kind": (
        ["audit", "--samples", "2000", "--seed", "42", "--family", "first-kind"],
        "68fd36a24affdb3f248e6511d6979c273b63b727419bc62ccc2665b2da8d4428",
    ),
    "audit-second-kind": (
        ["audit", "--samples", "2000", "--seed", "42", "--family", "second-kind"],
        "6bc9dc61c05bcec55f993c2cb3d5e1737c3fe2c08fc2e3bc107de0ce5c08e08a",
    ),
    "audit-mixed": (
        ["audit", "--samples", "2000", "--seed", "42", "--family", "mixed"],
        "f232be050533b31f61061765450d99e21c4b7e3a801d6b1d360495ed3772ef66",
    ),
    # 5000 samples: two full audit chunks and a partial one
    "audit-first-kind-chunks": (
        ["audit", "--samples", "5000", "--seed", "7", "--family", "first-kind"],
        "8be844401881720d60355af14cf1253fed4ee56ea596f3f6d0ac6dd17eeb32ce",
    ),
    "audit-second-kind-chunks": (
        ["audit", "--samples", "5000", "--seed", "7", "--family", "second-kind"],
        "b200aebbf48abfce325d6d2330b4789e54e7059b9cd07afa26cdd9046586c92d",
    ),
    "audit-mixed-chunks": (
        ["audit", "--samples", "5000", "--seed", "7", "--family", "mixed"],
        "12e2b2c0e4354d0ef4313d86404e4e4cfad8ec195f6d43ce8cb8b4eb1d7310ad",
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
