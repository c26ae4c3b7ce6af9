"""Benchmark-regression harness: a deterministic performance trajectory.

The paper's contribution is comparative performance, so this package
gives the repository a machine-readable baseline to gate on:

* :mod:`repro.bench.suite` — the curated scenario suite (one per figure
  family plus kernel/network/storage microbenchmarks) and its runner;
* :mod:`repro.bench.schema` — schema-versioned ``BENCH_*.json`` results
  with bit-identical simulated metrics;
* :mod:`repro.bench.compare` — the zero-tolerance comparison of those
  metrics and the regression table;
* :mod:`repro.bench.cli` — the ``pvfs-sim bench run|compare|list``
  subcommand CI gates on.

Host time is measured by ``perfbench/``, not here.  See
``docs/benchmarking.md`` for the file format and baseline-refresh
workflow.
"""

from .compare import CompareReport, CompareRow, compare_results
from .schema import (
    SCHEMA_VERSION,
    BenchResult,
    ScenarioResult,
    SimMetrics,
    load,
    save,
)
from .suite import SUITE, Scenario, build_specs, run_suite, scenario_names

__all__ = [
    "SCHEMA_VERSION",
    "BenchResult",
    "ScenarioResult",
    "SimMetrics",
    "load",
    "save",
    "Scenario",
    "SUITE",
    "build_specs",
    "run_suite",
    "scenario_names",
    "CompareReport",
    "CompareRow",
    "compare_results",
]
