"""Tests for repro.obs.prof: passivity and flamegraph export.

The headline guarantee mirrors the tracing contract: running under
cProfile must not change a single simulated bit.  Everything else is
file-format checks for the collapsed-stack and pstats outputs that
``pvfs-sim bench run --profile`` writes.
"""

import sys

import pytest

from repro.config import ClusterConfig
from repro.experiments.harness import des_point
from repro.obs.prof import (
    capture_cprofile,
    collapsed_stacks,
    top_functions_markdown,
    write_collapsed,
    write_pstats,
)
from repro.patterns import one_dim_cyclic
from repro.units import MiB


def _point(seed=7, obs=None):
    pattern = one_dim_cyclic(1 * MiB, 2, 8)
    cfg = ClusterConfig.chiba_city(n_clients=2).with_(seed=seed)
    return des_point(pattern, "list", "read", cfg, obs=obs)


class TestPassivity:
    @pytest.mark.parametrize("seed", [7, 1234])
    def test_profiled_run_is_bit_identical(self, seed):
        baseline = _point(seed=seed)
        observed, cprof = capture_cprofile(_point, seed=seed)
        assert observed == baseline
        assert collapsed_stacks(cprof)

    def test_profiler_restored_after_block(self):
        def boom():
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            capture_cprofile(boom)
        assert sys.getprofile() is None
        # A later capture starts cleanly: the failed one switched cProfile off.
        result, _ = capture_cprofile(_point)
        assert result == _point()


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
        assert "## hottest host functions (cProfile)" in out
        assert (tmp_path / "prof.collapsed").exists()
        assert (tmp_path / "prof.pstats").exists()

    def test_bench_run_profile_flag(self, tmp_path, capsys):
        from repro.bench import load
        from repro.bench.cli import main

        def run(out, *extra):
            argv = ["run", "--scale", "smoke", "--repeats", "1", "--quiet", "--out", str(out)]
            for name in ("micro_kernel_churn", "fig18_collective_write"):
                argv += ["--scenario", name]
            return main(argv + list(extra))

        prefix = str(tmp_path / "bp")
        assert run(tmp_path / "B.json", "--profile", prefix) == 0
        out = capsys.readouterr().out
        assert "| requests | server messages |" in out
        assert "## hottest host functions (cProfile)" in out
        assert "| function |" in out
        assert (tmp_path / "bp.collapsed").exists()
        assert (tmp_path / "bp.pstats").exists()
        assert not (tmp_path / "bp.json").exists()
        # The profiled pass is the gate pass: its simulated metrics match
        # an unprofiled run bit for bit.
        assert run(tmp_path / "plain.json") == 0
        profiled = load(str(tmp_path / "B.json")).scenarios
        plain = load(str(tmp_path / "plain.json")).scenarios
        assert [sc.sim for sc in profiled] == [sc.sim for sc in plain]
