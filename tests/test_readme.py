"""The README's library example runs and prints what its comments claim."""

import contextlib
import io
import pathlib
import re

import pytest

README = pathlib.Path(__file__).parents[1] / "README.md"


def library_example() -> str:
    """The first python block under the README's "Library example" heading."""
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_prints_its_claims():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(library_example(), str(README), "exec"), {})
    lines = printed.getvalue().splitlines()
    assert len(lines) == 4
    regime, eta, cop = lines[0].split()
    assert regime == "DualEngineRefrigerator"
    assert float(eta) == 1.0
    assert float(cop) == pytest.approx(3 / 17, rel=1e-12)
    assert abs(float(lines[1])) < 1e-12
