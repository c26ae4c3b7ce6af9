"""Parallel sweep correctness: bit-identical results at any job count.

The acceptance scenario from the sweep-engine issue: a figure sweep with
``--jobs N`` (N >= 2) must return bit-identical per-point results to the
serial run (every point owns its seeded RNG, so process placement cannot
matter), results must come back in spec order regardless of completion
order, and an immediate cached re-run must be 100% cache hits with
measurably lower wall-clock.

Reuses the determinism style of ``tests/test_faults.py`` (its RETRY
policy and straggler plans) so the faults layer is exercised *through*
the worker-process path, not just the serial one.
"""


from repro.config import ClusterConfig
from repro.faults import FaultConfig, FaultPlan, Straggler
from repro.obs import ObsSession
from repro.sweep import ChaosSpec, MpiioSpec, PointSpec, ResultCache, run_sweep
from repro.units import MiB

from .test_faults import RETRY


def _specs():
    """A small mixed sweep: two methods x two access counts, plus one
    fault-injected straggler point riding the RETRY policy."""
    specs = []
    cfg = ClusterConfig.chiba_city(n_clients=2)
    for acc in (4, 8):
        for method in ("list", "multiple"):
            specs.append(
                PointSpec(
                    figure="figP",
                    pattern="one_dim_cyclic",
                    pattern_args=(1 * MiB, 2, acc),
                    method=method,
                    kind="read",
                    mode="des",
                    cfg=cfg,
                    x=acc,
                )
            )
    faulty = cfg.with_(
        faults=FaultConfig(
            plan=FaultPlan((Straggler(iod=0, scale=8.0),)), retry=RETRY
        )
    )
    specs.append(
        PointSpec(
            figure="figP",
            pattern="one_dim_cyclic",
            pattern_args=(1 * MiB, 2, 8),
            method="list",
            kind="write",
            mode="des",
            cfg=faulty,
            x=8,
        )
    )
    return specs


def _collective_specs():
    """Collective points: figure 18's MPI-IO collective in 4 KiB rounds, and
    a two-phase read and write in 64 KiB rounds.  (Not in ``_specs``: an
    ``MpiioSpec`` has no ``series``, ``method`` or ``x``.)"""
    from repro.experiments.presets import SMOKE

    cfg = ClusterConfig.chiba_city(n_clients=2)
    twophase = [
        PointSpec(
            figure="figP",
            pattern="one_dim_cyclic",
            pattern_args=(1 * MiB, 2, 8),
            method="twophase",
            kind=kind,
            mode="des",
            cfg=cfg,
            x=8,
            opts=(("cb_buffer", 65536),),
        )
        for kind in ("read", "write")
    ]
    return [MpiioSpec(scale=SMOKE, n_ranks=2, collective=True, cb_buffer=4096), *twophase]


def _assert_parallel_matches_serial(specs, jobs):
    serial, s_stats = run_sweep(specs, jobs=1)
    parallel, p_stats = run_sweep(specs, jobs=jobs)
    # dataclass equality: every field of every point, exact floats
    assert parallel == serial
    assert s_stats.executed == p_stats.executed == len(specs)
    return p_stats


class TestParallelDeterminism:
    def test_jobs4_bit_identical_to_jobs1(self):
        p_stats = _assert_parallel_matches_serial(_specs(), jobs=4)
        assert len(p_stats.per_worker) > 1  # genuinely fanned out

    def test_collective_points_jobs2_bit_identical_to_jobs1(self):
        _assert_parallel_matches_serial(_collective_specs(), jobs=2)

    def test_results_come_back_in_spec_order(self):
        specs = _specs()
        results, _ = run_sweep(specs, jobs=2)
        for spec, point in zip(specs, results):
            assert point.series == (spec.series or spec.method)
            assert point.x == spec.x
            assert point.kind == spec.kind

    def test_driver_level_jobs2_matches_serial(self):
        from repro.experiments.presets import SMOKE
        from repro.experiments.tiledvis import figure17

        serial = figure17(scale=SMOKE, mode="des", jobs=1)
        parallel = figure17(scale=SMOKE, mode="des", jobs=2)
        assert parallel.points == serial.points
        assert [c.passed for c in parallel.checks] == [
            c.passed for c in serial.checks
        ]

    def test_chaos_scenarios_parallel_equal_serial(self):
        from repro.experiments.presets import SMOKE

        specs = [
            ChaosSpec(scenario=s, benchmark="artificial", scale=SMOKE)
            for s in ("disk-stall", "straggler")
        ]
        serial, _ = run_sweep(specs, jobs=1)
        parallel, _ = run_sweep(specs, jobs=2)
        assert parallel == serial


class TestCachedRerun:
    def test_second_run_is_all_hits_and_faster(self, tmp_path):
        specs = _specs()
        cache = ResultCache(str(tmp_path))
        first, stats1 = run_sweep(specs, jobs=1, cache=cache)
        assert stats1.cache_hits == 0
        assert stats1.executed == len(specs)
        second, stats2 = run_sweep(specs, jobs=1, cache=cache)
        assert second == first  # cached points are bit-identical
        assert stats2.cache_hits == len(specs)  # 100% hits
        assert stats2.executed == 0
        # measurably lower wall-clock: reading JSON beats re-simulating
        assert stats2.wall_s < stats1.wall_s / 2

    def test_parallel_run_populates_cache_for_serial_rerun(self, tmp_path):
        specs = _specs()
        cache = ResultCache(str(tmp_path))
        first, stats1 = run_sweep(specs, jobs=4, cache=cache)
        second, stats2 = run_sweep(specs, jobs=1, cache=cache)
        assert second == first
        assert stats2.cache_hits == len(specs)


class TestObservabilityAcrossWorkers:
    def test_jobs2_still_captures_the_dominating_run(self):
        specs = _specs()
        obs = ObsSession()
        results, stats = run_sweep(specs, jobs=2, obs=obs)
        assert obs.runs, "parallel sweep must still capture a run for obs"
        best_i = max(range(len(results)), key=lambda i: results[i].elapsed)
        best_spec, best_point = specs[best_i], results[best_i]
        # the recapture re-ran the dominating spec (labels come from des_point)
        label = (
            f"{best_spec.figure}/{best_spec.method} {best_spec.kind} "
            f"x={best_spec.x:g} clients={best_point.n_clients}"
        )
        assert [r.label for r in obs.runs] == [label]
        assert obs.sweeps and obs.sweeps[0] is stats

    def test_fully_cached_sweep_recaptures_for_trace_export(self, tmp_path):
        specs = _specs()[:2]
        cache = ResultCache(str(tmp_path))
        run_sweep(specs, jobs=1, cache=cache)
        obs = ObsSession()
        results, stats = run_sweep(specs, jobs=1, cache=cache, obs=obs)
        assert stats.cache_hits == len(specs)
        assert obs.runs  # --trace-out keeps working on a 100%-hit re-run
        assert obs.best_run().elapsed == max(p.elapsed for p in results)
