"""End-to-end ``pvfs-sim bench`` CLI: determinism, gating, trace pick, dispatch.

Runs use the cheap scenarios (micro substrates plus the small cluster,
collective and chaos ones) so the whole module stays fast while still
covering the PointSpec-free and cluster-backed paths.
"""

import dataclasses
import json
import os
import pathlib

import pytest

from repro.bench import SUITE, BenchResult, build_specs, load, scenario_names, suite
from repro.bench.cli import main as bench_main
from repro.bench.schema import ScenarioResult, SimMetrics
from repro.experiments.cli import main as cli_main
from repro.experiments.presets import SMOKE
from repro.obs import ObsSession
from repro.simulate import NO_FASTPATH_ENV, fastpath_enabled

_FAST = ("micro_kernel_churn", "micro_net_stream", "micro_disk_runs")
BASELINE = pathlib.Path(__file__).parents[1] / "benchmarks" / "baseline_smoke.json"


def _run(out, scenarios=_FAST, extra=()):
    argv = ["run", "--scale", "smoke", "--repeats", "1", "--out", str(out), "--quiet"]
    for name in scenarios:
        argv += ["--scenario", name]
    return bench_main(argv + list(extra))


def test_run_twice_sim_metrics_bit_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(a) == 0
    assert _run(b) == 0
    ra, rb = load(str(a)), load(str(b))
    assert [sc.sim for sc in ra.scenarios] == [sc.sim for sc in rb.scenarios]
    assert [sc.name for sc in ra.scenarios] == list(_FAST)


def test_compare_cli_identical_exits_zero(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run(a)
    _run(b)
    code = bench_main(["compare", str(a), str(b)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_cli_detects_injected_sim_drift(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run(a)
    data = json.loads(a.read_text())
    data["scenarios"][0]["sim"]["elapsed_s"] += 1e-9
    b.write_text(json.dumps(data))
    code = bench_main(["compare", str(a), str(b)])
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_compare_cli_writes_table_artifact(tmp_path):
    a = tmp_path / "a.json"
    table = tmp_path / "table.md"
    _run(a)
    code = bench_main(["compare", str(a), str(a), "--table", str(table)])
    assert code == 0
    assert "bench compare" in table.read_text()


def test_compare_cli_schema_mismatch_exits_two(tmp_path, capsys):
    a, old = tmp_path / "a.json", tmp_path / "old.json"
    _run(a)
    data = json.loads(a.read_text())
    data["schema_version"] = 99
    old.write_text(json.dumps(data))
    assert bench_main(["compare", str(a), str(old)]) == 2
    assert "schema version" in capsys.readouterr().err


def test_run_rejects_unknown_scenario(tmp_path, capsys):
    code = _run(tmp_path / "x.json", scenarios=("no_such_scenario",))
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_run_with_cluster_scenario_and_trace(tmp_path):
    out, trace = tmp_path / "bench.json", tmp_path / "trace.json"
    code = _run(
        out,
        scenarios=("fig18_collective_write", "micro_kernel_churn"),
        extra=["--trace-out", str(trace)],
    )
    assert code == 0
    events = json.loads(trace.read_text())["traceEvents"]
    assert events  # the slowest cluster scenario was re-run and exported
    result = load(str(out))
    assert result.scenario("fig18_collective_write").sim.n_points == 2


def test_trace_out_with_only_micro_scenarios_warns(tmp_path, capsys):
    out, trace = tmp_path / "bench.json", tmp_path / "trace.json"
    code = _run(out, scenarios=("micro_kernel_churn",), extra=["--trace-out", str(trace)])
    assert code == 0
    assert not trace.exists()
    assert "skipping trace export" in capsys.readouterr().err


def test_trace_out_skips_the_chaos_scenario(tmp_path, capsys):
    # Chaos runs take no observability session, so there is nothing to trace.
    out, trace = tmp_path / "bench.json", tmp_path / "trace.json"
    code = _run(out, scenarios=("chaos_failover_read",), extra=["--trace-out", str(trace)])
    assert code == 0
    assert not trace.exists()
    assert "skipping trace export" in capsys.readouterr().err


def test_trace_out_passes_over_chaos_for_a_cluster_scenario(tmp_path, capsys):
    # chaos_failover_read has more server messages (148 against 130) but
    # cannot be traced; fig15_flash_write is the busiest traceable pick.
    out, trace = tmp_path / "bench.json", tmp_path / "trace.json"
    code = _run(
        out,
        scenarios=("chaos_failover_read", "fig15_flash_write"),
        extra=["--trace-out", str(trace)],
    )
    assert code == 0
    assert json.loads(trace.read_text())["traceEvents"]
    assert "trace of 'fig15_flash_write' (most server messages)" in capsys.readouterr().out


def test_trace_out_picks_the_most_server_messages(tmp_path, capsys):
    out, trace = tmp_path / "bench.json", tmp_path / "trace.json"
    code = _run(
        out,
        scenarios=("fig18_collective_write", "twophase_blockblock_read"),
        extra=["--trace-out", str(trace)],
    )
    assert code == 0
    result = load(str(out))
    assert result.scenario("fig18_collective_write").sim.server_messages == 3
    assert result.scenario("twophase_blockblock_read").sim.server_messages == 192
    assert "trace of 'twophase_blockblock_read'" in capsys.readouterr().out


def test_trace_pick_breaks_ties_in_suite_order():
    def scenario(name):
        sim = SimMetrics(
            elapsed_s=0.0,
            moved_bytes=0,
            useful_bytes=0,
            logical_requests=0,
            server_messages=5,
            n_points=1,
        )
        return ScenarioResult(name=name, family="collective", sim=sim)

    # Listed against suite order, with equal server messages.
    result = BenchResult(
        scale="smoke",
        scenarios=[scenario("twophase_cyclic_write"), scenario("fig18_collective_write")],
    )
    obs = ObsSession()
    assert suite.capture_busiest(result, obs) == "fig18_collective_write"
    assert obs.runs


def test_run_rejects_nondeterministic_repeats(tmp_path, monkeypatch, capsys):
    real = suite.run_sweep
    calls = []

    def drifting(specs, **kwargs):
        points, stats = real(specs, **kwargs)
        calls.append(specs)
        if len(calls) > 1:
            points = [dataclasses.replace(p, elapsed=p.elapsed + 1e-9) for p in points]
        return points, stats

    monkeypatch.setattr(suite, "run_sweep", drifting)
    out = tmp_path / "x.json"
    code = bench_main(
        ["run", "--repeats", "2", "--scenario", "micro_net_stream", "--out", str(out), "--quiet"]
    )
    assert code == 2
    assert "'micro_net_stream' is not deterministic: repeat 2" in capsys.readouterr().err
    assert len(calls) == 2
    assert not out.exists()


def test_failed_run_leaves_an_existing_out_file_untouched(tmp_path, capsys):
    # `bench run --out benchmarks/baseline_smoke.json` refreshes the baseline,
    # so checking the path must not truncate it when the run then fails.
    out = tmp_path / "baseline.json"
    out.write_bytes(BASELINE.read_bytes())
    assert _run(out, scenarios=("no_such_scenario",)) == 2
    assert "unknown scenario" in capsys.readouterr().err
    assert out.read_bytes() == BASELINE.read_bytes()


def test_dispatch_through_pvfs_sim_entry_point(capsys):
    assert cli_main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    for name in scenario_names():
        assert name in out


def test_suite_covers_every_figure_family_and_substrate():
    families = {sc.family for sc in SUITE}
    assert families == {"artificial", "flash", "tiled", "collective", "micro", "robust"}
    # every scenario builds at least one spec at smoke scale
    for name in scenario_names():
        assert build_specs(name, SMOKE)


def test_run_validates_flags(tmp_path, capsys):
    out = str(tmp_path / "x.json")
    assert bench_main(["run", "--repeats", "0", "--out", out]) == 2
    assert bench_main(["run", "--jobs", "0", "--out", out]) == 2
    capsys.readouterr()


def test_no_fastpath_is_restored_after_the_run(tmp_path, monkeypatch):
    # The flag switches the fast paths off for this run only (spawned
    # workers inherit it meanwhile); later simulators in the caller's
    # process take the fast paths again.
    monkeypatch.delenv(NO_FASTPATH_ENV, raising=False)
    out = tmp_path / "x.json"
    assert _run(out, scenarios=("micro_kernel_churn",), extra=["--no-fastpath"]) == 0
    assert NO_FASTPATH_ENV not in os.environ
    assert fastpath_enabled()


def test_help_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
