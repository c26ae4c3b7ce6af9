"""Tests for repro.obs.prof: passivity, SSR accounting, flamegraph export.

The headline guarantee mirrors PR 1's tracing contract: arming the
kernel profiler must not change a single simulated bit.  Everything else
is accounting sanity (events counted once per dispatch, SSR > 0 for a
real run) and file-format checks for the collapsed-stack / pstats /
profile-JSON outputs the CLIs write.
"""

import json

import pytest

from repro.config import ClusterConfig
from repro.experiments.harness import des_point
from repro.obs.prof import (
    KernelProfiler,
    capture_cprofile,
    collapsed_stacks,
    event_kind,
    profiled,
    save_profile_json,
    top_functions_markdown,
    write_collapsed,
    write_pstats,
)
from repro.patterns import one_dim_cyclic
from repro.simulate import Simulator
from repro.units import MiB


def _point(seed=7, obs=None):
    pattern = one_dim_cyclic(1 * MiB, 2, 8)
    cfg = ClusterConfig.chiba_city(n_clients=2).with_(seed=seed)
    return des_point(pattern, "list", "read", cfg, obs=obs)


class TestPassivity:
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_profiled_run_is_bit_identical(self, seed):
        baseline = _point(seed=seed)
        with profiled() as prof:
            observed = _point(seed=seed)
        assert observed == baseline
        assert prof.events > 0

    def test_profiler_restored_after_block(self):
        from repro.simulate import kernel

        assert kernel._ACTIVE_PROFILER is None
        with profiled():
            assert kernel._ACTIVE_PROFILER is not None
            with pytest.raises(RuntimeError):
                raise RuntimeError("boom")  # noqa: TRY301 — unwind check
        assert kernel._ACTIVE_PROFILER is None


class TestKernelAccounting:
    def test_events_and_ssr(self):
        with profiled() as prof:
            point = _point()
        profile = prof.profile()
        assert profile.events == point.sim_events
        assert profile.simulators == 1
        assert profile.sim_s == pytest.approx(point.elapsed)
        assert profile.wall_s > 0
        assert profile.ssr > 0
        assert profile.events_per_s > 0
        assert profile.heap_pushes == profile.events
        assert profile.heap_max >= 1
        assert sum(count for _, count, _ in profile.handlers) == profile.events
        # Hottest-first ordering.
        walls = [w for _, _, w in profile.handlers]
        assert walls == sorted(walls, reverse=True)

    def test_multiple_simulators_accumulate(self):
        with profiled() as prof:
            _point(seed=1)
            _point(seed=2)
        profile = prof.profile()
        assert profile.simulators == 2

    def test_event_kind_grouping(self):
        sim = Simulator()

        def gen(sim):
            yield sim.timeout(1.0)

        proc = sim.process(gen(sim), name="client3.respond")
        assert event_kind(proc) == "process:client*.respond"
        assert event_kind(sim.timeout(0.5)) == "timeout"

    def test_markdown_and_headline(self):
        with profiled() as prof:
            _point()
        profile = prof.profile()
        assert "SSR" in profile.headline()
        table = profile.to_markdown(top=3)
        assert "| handler |" in table
        assert "heap:" in table

    def test_profile_json_round_trip(self, tmp_path):
        with profiled() as prof:
            _point()
        path = tmp_path / "p.json"
        save_profile_json(prof.profile(), str(path), scale="smoke")
        doc = json.loads(path.read_text())
        assert doc["tool"] == "pvfs-sim-profile"
        assert doc["schema_version"] == 1
        assert doc["scale"] == "smoke"
        assert doc["profile"]["events"] > 0
        assert doc["profile"]["ssr"] > 0


class TestHostProfiling:
    def test_capture_and_collapsed_stacks(self, tmp_path):
        result, cprof = capture_cprofile(_point)
        assert result.elapsed > 0
        lines = collapsed_stacks(cprof)
        assert lines, "expected at least one collapsed stack"
        for line in lines:
            frames, weight = line.rsplit(" ", 1)
            assert int(weight) >= 1
            assert 1 <= len(frames.split(";")) <= 2
        assert lines == sorted(lines)

    def test_write_outputs(self, tmp_path):
        _, cprof = capture_cprofile(_point)
        collapsed = tmp_path / "p.collapsed"
        n = write_collapsed(cprof, str(collapsed))
        assert n == len(collapsed.read_text().splitlines())
        pstats_path = tmp_path / "p.pstats"
        write_pstats(cprof, str(pstats_path))
        import pstats

        stats = pstats.Stats(str(pstats_path))
        assert stats.total_calls > 0
        table = top_functions_markdown(cprof, n=5)
        assert "| function |" in table


class TestCli:
    def test_profile_subcommand_smoke(self, tmp_path, capsys):
        # Profiling through the top-level `pvfs-sim` entry point: the old
        # `profile` subcommand is now `pvfs-sim bench run --profile`.
        from repro.experiments.cli import main

        prefix = str(tmp_path / "prof")
        rc = main(
            [
                "bench",
                "run",
                "--scale",
                "smoke",
                "--repeats",
                "1",
                "--scenario",
                "micro_kernel_churn",
                "--out",
                str(tmp_path / "B.json"),
                "--profile",
                prefix,
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SSR" in out
        assert "| handler |" in out
        assert (tmp_path / "prof.json").exists()
        assert (tmp_path / "prof.collapsed").exists()
        assert (tmp_path / "prof.pstats").exists()

    def test_bench_run_profile_flag(self, tmp_path, capsys):
        from repro.bench.cli import main

        prefix = str(tmp_path / "bp")
        rc = main(
            [
                "run",
                "--scale",
                "smoke",
                "--repeats",
                "1",
                "--scenario",
                "micro_kernel_churn",
                "--out",
                str(tmp_path / "B.json"),
                "--profile",
                prefix,
                "--quiet",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "SSR" in out
        assert "| SSR |" in out  # summary table carries the new columns
        assert "| handler |" in out
        assert "## hottest host functions (cProfile)" in out
        assert "| function |" in out
        assert (tmp_path / "bp.json").exists()
        assert (tmp_path / "bp.collapsed").exists()
        assert (tmp_path / "bp.pstats").exists()
