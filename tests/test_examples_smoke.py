"""Smoke tests: the example scripts must run end-to-end.

Only the quick ones execute here (the full set runs via ``make examples``);
the rest are import-checked so a syntax/API break fails the suite.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).parent.parent / "examples"
ALL_EXAMPLES = sorted(p.name for p in EXAMPLES.glob("*.py"))


def test_expected_examples_present():
    assert {
        "quickstart.py",
        "flash_checkpoint.py",
        "tiled_visualization.py",
        "crossover_explorer.py",
        "datatype_requests.py",
        "mpiio_collective.py",
        "bottleneck_analysis.py",
    } <= set(ALL_EXAMPLES)


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_compiles(name):
    path = EXAMPLES / name
    source = path.read_text()
    compile(source, str(path), "exec")
    assert '"""' in source  # every example carries a docstring header
    assert "__main__" in source


@pytest.mark.parametrize("name", ["quickstart.py", "flash_checkpoint.py", "bottleneck_analysis.py"])
def test_fast_examples_run(name):
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "method" in proc.stdout  # the comparison table printed
