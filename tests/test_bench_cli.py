"""End-to-end ``pvfs-sim bench`` CLI: determinism, gating, dispatch.

Runs use the cheap scenarios (micro substrates plus the 2-point
collective figure) so the whole module stays fast while still covering
the PointSpec-free and cluster-backed paths.
"""

import json
import os

import pytest

from repro.bench import SUITE, build_specs, load, scenario_names
from repro.bench.cli import main as bench_main
from repro.experiments.cli import main as cli_main
from repro.experiments.presets import SMOKE
from repro.simulate import NO_FASTPATH_ENV, fastpath_enabled

_FAST = ("micro_kernel_churn", "micro_net_stream", "micro_disk_runs")


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
    # Wall clock jitters between the runs; 'none' is the cross-machine policy.
    code = bench_main(["compare", str(a), str(b), "--wall-tolerance", "none"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_compare_cli_detects_injected_sim_drift(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _run(a)
    data = json.loads(a.read_text())
    data["scenarios"][0]["sim"]["elapsed_s"] += 1e-9
    b.write_text(json.dumps(data))
    code = bench_main(["compare", str(a), str(b), "--wall-tolerance", "none"])
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_compare_cli_writes_table_artifact(tmp_path):
    a = tmp_path / "a.json"
    table = tmp_path / "table.md"
    _run(a)
    code = bench_main(
        ["compare", str(a), str(a), "--wall-tolerance", "50", "--table", str(table)]
    )
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


def test_compare_cli_bad_tolerance_exits_two(tmp_path, capsys):
    a = tmp_path / "a.json"
    _run(a)
    assert bench_main(["compare", str(a), str(a), "--wall-tolerance", "lots"]) == 2
    capsys.readouterr()


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


def test_run_with_cache_dir_records_cache_flag(tmp_path):
    out = tmp_path / "cached.json"
    code = _run(
        out,
        scenarios=("micro_net_stream",),
        extra=["--cache-dir", str(tmp_path / "cache")],
    )
    assert code == 0
    assert load(str(out)).cache_enabled

    # A second run served from the cache must reproduce identical sim metrics.
    out2 = tmp_path / "cached2.json"
    _run(
        out2,
        scenarios=("micro_net_stream",),
        extra=["--cache-dir", str(tmp_path / "cache")],
    )
    assert load(str(out)).scenarios[0].sim == load(str(out2)).scenarios[0].sim


def test_help_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        bench_main(["--help"])
    assert exc.value.code == 0
    capsys.readouterr()
