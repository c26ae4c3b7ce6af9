"""Shared fixtures for the scaled claim tests.

Each ``test_figNN_*`` module regenerates one figure of the paper:

* the figure's data table (simulated seconds per method/sweep point) is
  printed AND written to ``benchmarks/results/figNN_<scale>.md``;
* the paper's qualitative claims are asserted via the ``checks`` that
  each ``repro.experiments`` figure function returns.

The ``test_ablation_*`` and ``test_beyond_*`` modules assert the
ablations and extensions the same way.  Everything here is plain pytest
(``python -m pytest -q benchmarks/``); host time is measured by
``perfbench/``.

Scaled DES runs keep the paper's topology (8 iods, 16 KiB stripes) at
1/64 volume; EXPERIMENTS.md holds the paper-scale model tables.
"""

from __future__ import annotations

import pathlib

import pytest

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def save_result(results_dir):
    """Write one figure's markdown to the results directory and echo it."""

    def _save(name: str, markdown: str) -> None:
        path = results_dir / f"{name}.md"
        path.write_text(markdown)
        print(f"\n{markdown}\n[saved to {path}]")

    return _save
