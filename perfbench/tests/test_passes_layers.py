"""Failure accounting, output checks, and transparent span wrappers."""

import dataclasses
import json
from pathlib import Path

import pytest

import repro.regions
from perfbench import layers, passes, workloads
from perfbench.workloads import Point
from repro.config import ClusterConfig
from repro.sweep import PointSpec

MiB = 1 << 20


def _smoke_point(pid=0, method="list", kind="read"):
    spec = PointSpec(
        figure="test",
        pattern="one_dim_cyclic",
        pattern_args=(1 * MiB, 4, 64),
        method=method,
        kind=kind,
        mode="des",
        cfg=ClusterConfig.chiba_city(n_clients=4),
    )
    return Point(pid, method, f"smoke {method}", spec)


def _broken_point(pid):
    spec = dataclasses.replace(_smoke_point().spec, pattern="no_such_pattern")
    return Point(pid, "list", "broken", spec)


def test_a_point_made_to_fail_is_counted_not_fatal():
    points = [_smoke_point(0), _broken_point(1), _smoke_point(2, "multiple")]
    result = passes.run_pass(points)
    assert len(result.point_s) == 3 and all(t > 0 for t in result.point_s)
    assert isinstance(result.results[1], passes.Failure)
    assert "ConfigError" in result.results[1].error
    assert "Traceback" in result.results[1].traceback
    report = passes.check_pass("test", 0, points, result.results, committed={})
    assert report.failed == 1 and list(report.failures) == [1]
    assert len(report.des_ratios) == 2  # the two good DES points were checked


def test_committed_digest_mismatch_fails_the_point():
    points = [_smoke_point(0)]
    result = passes.run_pass(points)
    good = {"w": {"5": [passes.digest(result.results[0])]}}
    bad = {"w": {"5": ["0" * 16]}}
    assert passes.check_pass("w", 5, points, result.results, committed=good).failed == 0
    report = passes.check_pass("w", 5, points, result.results, committed=bad)
    assert report.failed == 1 and report.digests_checked


def test_pattern_point_runs_a_factory_outside_the_registry_as_a_point_spec():
    spec = workloads.PatternPoint(
        figure="test",
        pattern="random_fragments",
        pattern_args=(4, 64, 16, 4096, 0, 4096, 7),
        method="list",
        kind="read",
        mode="des",
        cfg=ClusterConfig.chiba_city(n_clients=4),
    )
    point = Point(0, "list", "random list", spec)
    assert point.is_des and type(spec).run is PointSpec.run
    des = spec.run()
    model = workloads.model_twin(point).run()
    assert (des.mode, model.mode) == ("des", "model")
    assert (des.logical_requests, des.server_messages) == (
        model.logical_requests,
        model.server_messages,
    )


def test_check_pass_counts_every_cluster_clock():
    from repro.experiments.chaos import ChaosRow
    from repro.pvfs.cluster import Cluster

    run_workload = Cluster.__dict__["run_workload"]
    chaos = next(p for p in workloads.build("chaos_failover", 1) if p.method == "failover-read")
    model = dataclasses.replace(_smoke_point(1).spec, mode="model")
    points = [_smoke_point(0), Point(1, "list", "model", model), dataclasses.replace(chaos, pid=2)]
    result, sim_s = passes.run_check_pass(points)
    assert Cluster.__dict__["run_workload"] is run_workload  # restored
    des, predicted, row = result.results
    assert isinstance(row, ChaosRow) and row.data_errors == 0
    # The probe and the oracle pre-writes are simulated too, so the three
    # failover clusters' clocks exceed the row's baseline and faulty reads.
    chaos_s = sim_s - des.elapsed - predicted.elapsed
    assert chaos_s > row.baseline_s + row.faulty_s


def test_digest_is_bit_exact():
    point = passes.run_pass([_smoke_point(0)]).results[0]
    same = dataclasses.replace(point)
    assert passes.digest(point) == passes.digest(same)
    nudged = dataclasses.replace(point, elapsed=point.elapsed * (1 + 1e-15))
    assert passes.digest(point) != passes.digest(nudged)


def _reference_gen(log):
    try:
        got = yield "a"
        log.append(("sent", got))
        try:
            yield "b"
        except KeyError as exc:
            log.append(("caught", exc.args[0]))
            got = yield "c"
            log.append(("sent", got))
        yield "d"
        return "done"
    finally:
        log.append("finally")


def _drive_script(gen):
    out = [next(gen), gen.send(1)]
    out.append(gen.throw(KeyError("k")))
    out.append(gen.send(2))
    try:
        gen.send(3)
    except StopIteration as stop:
        out.append(("return", stop.value))
    return out


def test_wrapped_generator_forwards_send_throw_and_return():
    rec = layers.Recorder()
    wrapped = rec.wrap(_reference_gen, rec.entry("test", "gen"))
    plain_log, wrapped_log = [], []
    assert _drive_script(wrapped(wrapped_log)) == _drive_script(_reference_gen(plain_log))
    assert wrapped_log == plain_log
    assert rec.calls[0] == 5  # one span per resumption
    assert not rec._stack


def test_wrapped_generator_forwards_close():
    rec = layers.Recorder()
    wrapped = rec.wrap(_reference_gen, rec.entry("test", "gen"))
    log = []
    gen = wrapped(log)
    next(gen)
    gen.close()
    assert log == ["finally"]
    assert rec.calls[0] == 2 and not rec._stack


def test_self_times_sum_to_the_root_span():
    rec = layers.Recorder()

    def leaf():
        return sum(range(2000))

    def mid():
        return leaf() + leaf()

    leaf_w = rec.wrap(leaf, rec.entry("a", "leaf"))
    mid_w = rec.wrap(lambda: leaf_w() + leaf_w() + mid(), rec.entry("b", "mid"))
    root = rec.open(rec.entry("bench", "root"))
    mid_w()
    rec.close(root)
    total = rec.ends[root] - rec.starts[root]
    assert sum(rec.self_s) == pytest.approx(total, rel=1e-9)
    assert rec.calls == [2, 1, 1]


def test_traced_point_equals_untraced_and_uninstall_restores():
    original = repro.regions.pair_pieces
    untraced = _smoke_point(0, "twophase", "write").spec.run()
    rec = layers.Recorder()
    rec.install()
    try:
        assert repro.regions.pair_pieces is not original
        traced = _smoke_point(0, "twophase", "write").spec.run()
    finally:
        rec.uninstall()
    assert repro.regions.pair_pieces is original
    assert dataclasses.asdict(traced) == dataclasses.asdict(untraced)
    self_s = rec.layer_self()
    for layer in ("simulate", "network", "pvfs.iod", "core", "mpiio", "pvfs.cluster"):
        assert self_s[layer] > 0, layer
    assert len(rec.clusters) == 1  # the cluster the point built was recorded


def test_missing_entry_points_leave_the_layer_unmeasured():
    rec = layers.Recorder()
    rec.install(
        (
            ("ghost", "repro.regions", "no_such_function"),
            ("ghost", "repro.regions", "RegionList.no_such_method"),
            ("phantom", "repro.no_such_module", "anything"),
        )
    )
    rec.uninstall()
    assert "ghost" not in rec.measured and "phantom" not in rec.measured
    assert len(rec.missing) == 3


def test_benchmark_json_names_the_metrics_run_py_prints():
    from perfbench import run

    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert end_to_end == {
        name: spec[0] for name, spec in run.END_TO_END.items() if name != "failed_ratio"
    }
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
