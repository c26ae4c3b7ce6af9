"""Zero-tolerance regression detection for ``repro.bench.compare``."""

import dataclasses
import pathlib

import pytest

from repro.bench.compare import compare_results
from repro.bench.schema import BenchResult, ScenarioResult, SimMetrics, load
from repro.bench.suite import run_suite
from repro.errors import BenchError
from repro.experiments.presets import SMOKE
from repro.simulate import NO_FASTPATH_ENV

BASELINE = pathlib.Path(__file__).parents[1] / "benchmarks" / "baseline_smoke.json"


def _scenario(name="s1", *, elapsed=1.5) -> ScenarioResult:
    return ScenarioResult(
        name=name,
        family="artificial",
        sim=SimMetrics(
            elapsed_s=elapsed,
            moved_bytes=4096,
            useful_bytes=2048,
            logical_requests=8,
            server_messages=9,
            n_points=2,
        ),
    )


def _result(*scenarios, scale="smoke") -> BenchResult:
    return BenchResult(scale=scale, scenarios=list(scenarios))


def test_identical_results_pass():
    base = _result(_scenario())
    report = compare_results(base, _result(_scenario()))
    assert report.ok
    assert report.regressions == []
    assert "PASS" in report.to_markdown()


def test_sim_drift_is_zero_tolerance():
    base = _result(_scenario(elapsed=1.5))
    # Even a last-ulp drift in a simulated metric must trip the gate.
    cand = _result(_scenario(elapsed=1.5 + 1e-12))
    report = compare_results(base, cand)
    assert not report.ok
    assert any(r.metric == "sim.elapsed_s" for r in report.regressions)
    assert "FAIL" in report.to_markdown()


def test_sim_improvement_also_fails():
    # Faster simulated time still means simulated behaviour shifted;
    # the baseline must be refreshed deliberately, not silently.
    base = _result(_scenario(elapsed=1.5))
    report = compare_results(base, _result(_scenario(elapsed=1.0)))
    assert not report.ok


def test_missing_scenario_is_regression():
    base = _result(_scenario("s1"), _scenario("s2"))
    report = compare_results(base, _result(_scenario("s1")))
    assert not report.ok
    assert any(r.scenario == "s2" and r.metric == "(scenario)" for r in report.regressions)


def test_new_scenario_is_informational():
    base = _result(_scenario("s1"))
    report = compare_results(base, _result(_scenario("s1"), _scenario("s3")))
    assert report.ok
    assert any(r.scenario == "s3" and r.status == "info" for r in report.rows)


def test_scale_mismatch_raises():
    base = _result(_scenario(), scale="smoke")
    cand = _result(_scenario(), scale="scaled")
    with pytest.raises(BenchError):
        compare_results(base, cand)


def test_every_sim_metric_is_gated():
    base = _result(_scenario())
    for f in dataclasses.fields(SimMetrics):
        sc = _scenario()
        bumped = dataclasses.replace(
            sc, sim=dataclasses.replace(sc.sim, **{f.name: getattr(sc.sim, f.name) + 1})
        )
        report = compare_results(base, _result(bumped))
        assert any(r.metric == f"sim.{f.name}" for r in report.regressions), f.name


@pytest.mark.parametrize("fastpath", [True, False], ids=["fastpath", "no-fastpath"])
def test_smoke_suite_matches_the_committed_baseline(fastpath, monkeypatch):
    # The bench gate itself: every scenario's simulated metrics equal the
    # committed baseline, with the kernel fast paths on and with the
    # legacy event chains they must reproduce.
    if fastpath:
        monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    else:
        monkeypatch.setenv(NO_FASTPATH_ENV, "1")
    report = compare_results(load(str(BASELINE)), run_suite(SMOKE, repeats=1))
    assert report.ok, report.to_markdown()
