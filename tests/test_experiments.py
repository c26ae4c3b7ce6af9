"""Tests for the experiment harness, figure drivers, reporting, and CLI."""

import re
from pathlib import Path

import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError, RetryExhausted
from repro.experiments import (
    SCALES,
    SMOKE,
    Check,
    DataPoint,
    des_point,
    figure9,
    figure10,
    figure11,
    figure12,
    figure15,
    figure17,
    model_point,
    points_to_csv,
)
from repro.experiments.chaos import run_failover_scenario, run_scenario
from repro.experiments.cli import FIGURES, SUBCOMMANDS, main
from repro.experiments.collective import figure18
from repro.patterns import one_dim_cyclic, tiled_visualization
from repro.pvfs import Cluster
from repro.simulate import Simulator


class TestHarness:
    def test_des_and_model_points_agree_on_accounting(self):
        pattern = one_dim_cyclic(SMOKE.artificial_total, 4, 64)
        cfg = ClusterConfig.chiba_city(n_clients=4)
        d = des_point(pattern, "list", "read", cfg, figure="t", x=64)
        m = model_point(pattern, "list", "read", cfg, figure="t", x=64)
        assert d.logical_requests == m.logical_requests
        assert d.mode == "des" and m.mode == "model"
        assert d.elapsed > 0 and m.elapsed > 0

    def test_des_point_phases(self):
        pattern = tiled_visualization(SMOKE.tiled)
        p = des_point(pattern, "list", "read", measure_phases=True)
        assert set(p.phases) == {"open", "transfer", "close"}
        assert p.phases["transfer"] > p.phases["open"] > 0

    def test_unknown_method_rejected(self):
        pattern = one_dim_cyclic(SMOKE.artificial_total, 4, 64)
        with pytest.raises(ConfigError):
            des_point(pattern, "wormhole", "read")

    def test_sieve_write_point_serializes(self):
        pattern = one_dim_cyclic(SMOKE.artificial_total, 4, 64)
        p_sieve = des_point(pattern, "datasieve", "write", figure="t", x=1)
        p_list = des_point(pattern, "list", "write", figure="t", x=1)
        assert p_sieve.elapsed > 0 and p_list.elapsed > 0

    def test_cluster_config_adjusted_to_pattern(self):
        pattern = one_dim_cyclic(SMOKE.artificial_total, 4, 64)
        cfg = ClusterConfig.chiba_city(n_clients=32)  # wrong client count
        p = des_point(pattern, "list", "read", cfg)
        assert p.n_clients == 4

    # (call, clusters it builds, exception it raises)
    CLOSING = {
        # multiple, list, the two MPI-IO points and two-phase; the model
        # points build none
        "figure18": (lambda: figure18(scale=SMOKE, clients=(2,)), 5, None),
        "crash": (lambda: run_scenario("crash", scale=SMOKE), 2, None),
        "failover-r2": (lambda: run_failover_scenario(scale=SMOKE, replicas=2), 2, None),
        "failover-r1": (
            lambda: run_failover_scenario(scale=SMOKE, replicas=1),
            2,
            RetryExhausted,
        ),
    }

    @pytest.mark.parametrize("name", list(CLOSING))
    def test_every_cluster_an_experiment_builds_is_closed(self, name, monkeypatch):
        call, builds, raises = self.CLOSING[name]
        built = []
        init = Cluster.__init__

        def recording_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Cluster, "__init__", recording_init)
        if raises is None:
            call()
        else:
            with pytest.raises(raises):
                call()
        assert len(built) == builds
        assert [c.closed for c in built] == [True] * builds

    def test_wasted_bytes(self):
        p = DataPoint(
            figure="f", series="s", x=0, elapsed=1, mode="des", kind="read",
            n_clients=1, moved_bytes=10, useful_bytes=7,
        )
        assert p.wasted_bytes == 3
        assert "f/s" in repr(p)


class TestFigureDrivers:
    """Every figure driver must produce passing checks at smoke scale
    through BOTH engines."""

    @pytest.mark.parametrize("mode", ["model", "des"])
    def test_figure9(self, mode):
        res = figure9(scale=SMOKE, mode=mode)
        assert res.all_passed, [str(c) for c in res.checks if not c.passed]
        assert len(res.points) == 1 * 2 * 3  # clients x accesses x methods

    @pytest.mark.parametrize("mode", ["model", "des"])
    def test_figure10(self, mode):
        res = figure10(scale=SMOKE, mode=mode)
        assert res.all_passed, [str(c) for c in res.checks if not c.passed]

    @pytest.mark.parametrize("mode", ["model", "des"])
    def test_figure11(self, mode):
        res = figure11(scale=SMOKE, mode=mode)
        assert res.all_passed, [str(c) for c in res.checks if not c.passed]

    @pytest.mark.parametrize("mode", ["model", "des"])
    def test_figure12(self, mode):
        res = figure12(scale=SMOKE, mode=mode)
        assert res.all_passed, [str(c) for c in res.checks if not c.passed]

    @pytest.mark.parametrize("mode", ["model", "des"])
    def test_figure15(self, mode):
        res = figure15(scale=SMOKE, mode=mode)
        # smoke flash is tiny; only structural checks must hold
        assert res.points
        sieve = [p for p in res.points if p.series == "datasieve"]
        assert all(p.kind == "write" for p in res.points)
        assert sieve

    def test_figure15_details_show_the_ratios(self):
        res = figure15(scale=SMOKE, mode="des")
        t = {p.series: p.elapsed for p in res.points}
        for name, ratio in (
            ("list/sieve", t["list"] / t["datasieve"]),  # below 1 at smoke
            ("multiple/list", t["multiple"] / t["list"]),
        ):
            detail = next(c.detail for c in res.checks if c.detail.startswith(name))
            shown = float(detail.rsplit(" ", 1)[1].rstrip("x"))
            assert shown == pytest.approx(ratio, rel=0.05), detail

    @pytest.mark.parametrize("mode", ["model", "des"])
    def test_figure17(self, mode):
        res = figure17(scale=SMOKE, mode=mode)
        by = {p.series: p for p in res.points}
        assert by["list"].elapsed < by["multiple"].elapsed

    def test_figure18_extension(self):
        from repro.experiments.collective import figure18

        res = figure18(scale=SMOKE, clients=(2,))
        assert res.figure == "fig18"
        series = {p.series for p in res.points}
        assert series == {
            "multiple",
            "list",
            "mpiio-indep",
            "mpiio-coll",
            "twophase",
            "twophase-model",
            "list-model",
        }
        by = {p.series: p.elapsed for p in res.points}
        assert by["mpiio-coll"] < by["multiple"]
        assert by["twophase"] < by["multiple"]
        modes = {p.series: p.mode for p in res.points}
        assert modes["twophase"] == "des"
        assert modes["twophase-model"] == "model"

    def test_figure18_cb_buffer_adds_exchange_rounds(self):
        from repro.experiments.collective import figure18

        def elapsed(cb_buffer):
            res = figure18(scale=SMOKE, clients=(2,), cb_buffer=cb_buffer)
            return {p.series: p.elapsed for p in res.points}

        unbounded, bounded = elapsed(None), elapsed(64)
        for series in ("mpiio-coll", "twophase"):
            assert bounded[series] > unbounded[series], series
        # the bound only touches the collective buffer
        for series in ("multiple", "list", "mpiio-indep"):
            assert bounded[series] == unbounded[series], series

    def test_figure18_falls_back_from_paper_scale(self):
        from repro.experiments.collective import figure18
        from repro.experiments.presets import PAPER

        # must not attempt a 983k-requests-per-rank DES run
        res = figure18(scale=PAPER, clients=(2,))
        assert res.points  # completed at the scaled fallback

    def test_figure17_paper_geometry_checks(self):
        from repro.experiments.presets import SCALED

        res = figure17(scale=SCALED, mode="des")
        assert res.all_passed, [str(c) for c in res.checks if not c.passed]
        # phase breakdown present, read dominates
        p = res.points[0]
        assert p.phases["transfer"] > p.phases["close"]


class TestReporting:
    def test_markdown_contains_tables_and_checks(self):
        res = figure9(scale=SMOKE, mode="model")
        md = res.markdown()
        assert "fig09" in md
        assert "| x |" in md
        assert "[PASS]" in md or "[FAIL]" in md

    def test_points_for_filters_and_sorts(self):
        res = figure9(scale=SMOKE, mode="model")
        pts = res.points_for("multiple", n_clients=SMOKE.cyclic_clients[0])
        assert pts == sorted(pts, key=lambda p: p.x)
        assert all(p.series == "multiple" for p in pts)

    def test_csv_roundtrip(self):
        res = figure9(scale=SMOKE, mode="model")
        csv_text = points_to_csv(res.points)
        lines = csv_text.strip().splitlines()
        assert len(lines) == len(res.points) + 1
        assert lines[0].startswith("figure,series")

    def test_check_str(self):
        assert "[PASS] ok" in str(Check("ok", True))
        assert "[FAIL] bad (why)" in str(Check("bad", False, "why"))


class TestCLI:
    def test_figure_registry_covers_all_result_figures(self):
        # 9..17 are the paper's; 18 is the repository's extension experiment
        assert sorted(FIGURES, key=int) == ["9", "10", "11", "12", "15", "17", "18"]

    def test_cli_single_figure(self, capsys):
        rc = main(["--figure", "17", "--scale", "smoke", "--mode", "des"])
        out = capsys.readouterr().out
        assert "fig17" in out
        assert rc in (0, 1)

    def test_cli_csv_output(self, tmp_path, capsys):
        csv_path = tmp_path / "points.csv"
        main(["--figure", "9", "--scale", "smoke", "--mode", "model", "--csv", str(csv_path)])
        assert csv_path.exists()
        assert "fig09" in csv_path.read_text()

    def test_cli_rejects_des_at_paper_scale(self, capsys):
        rc = main(["--figure", "9", "--scale", "paper", "--mode", "des"])
        assert rc == 2

    def test_scales_registry(self):
        assert {"paper", "scaled", "smoke"} <= set(SCALES)
        assert not SCALES["paper"].des_friendly

    def test_cli_forwards_cb_buffer_to_figure18(self, monkeypatch, capsys):
        seen = {}
        real = FIGURES["18"]

        def spy(**kwargs):
            seen.update(kwargs)
            return real(**kwargs)

        monkeypatch.setitem(FIGURES, "18", spy)
        rc = main(["--figure", "18", "--scale", "smoke", "--mode", "des", "--cb-buffer", "64"])
        assert rc in (0, 1)
        assert seen["cb_buffer"] == 64
        assert "fig18" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "bad",
        [["--straggler", "oops"], ["--jobs", "0"], ["--cb-buffer", "0"]],
        ids=["straggler", "jobs", "cb-buffer"],
    )
    def test_bad_flag_leaves_trace_out_untouched(self, bad, tmp_path, capsys):
        trace = tmp_path / "t.json"
        trace.write_bytes(b"previous trace")
        argv = ["--figure", "18", "--scale", "smoke", "--mode", "des", "--trace-out", str(trace)]
        assert main(argv + bad) == 2
        assert "error:" in capsys.readouterr().err
        assert trace.read_bytes() == b"previous trace"

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "run", "--scenario", "micro_kernel_churn", "--out", "{bad}"],
            ["bench", "run", "--scenario", "micro_kernel_churn", "--trace-out", "{bad}"],
            ["bench", "run", "--scenario", "micro_kernel_churn", "--profile", "{bad}"],
            ["bench", "compare", "{baseline}", "{baseline}", "--table", "{bad}"],
            ["--figure", "18", "--scale", "smoke", "--mode", "des", "--no-cache", "--csv", "{bad}"],
            ["chaos", "--scenario", "crash", "--no-cache", "--csv", "{bad}"],
        ],
        ids=["bench-out", "bench-trace-out", "bench-profile", "compare-table", "csv", "chaos-csv"],
    )
    def test_unwritable_output_fails_before_any_simulation(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        bad = str(tmp_path / "missing" / "out")
        baseline = Path(__file__).parents[1] / "benchmarks" / "baseline_smoke.json"
        argv = [arg.format(bad=bad, baseline=baseline) for arg in argv]
        if argv[:2] == ["bench", "run"] and "--out" not in argv:
            argv += ["--out", str(tmp_path / "B.json")]

        def no_simulation(self):
            raise AssertionError("a simulation started before the output check")

        monkeypatch.setattr(Simulator, "__init__", no_simulation)
        assert main(argv) == 2
        assert f"error: cannot write {bad}" in capsys.readouterr().err
        assert not (tmp_path / "B.json").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["--figure", "9", "--scale", "smoke", "--mode", "des", "--cache-dir", "{bad}"],
            ["--figure", "9", "--scale", "smoke", "--mode", "des"],
            ["chaos", "--scenario", "crash", "--cache-dir", "{bad}"],
            ["chaos", "--scenario", "crash"],
        ],
        ids=["figure", "figure-default", "chaos", "chaos-default"],
    )
    def test_unusable_cache_dir_fails_before_any_simulation(
        self, argv, tmp_path, monkeypatch, capsys
    ):
        # A file where the cache directory should be: the default
        # directory (here via $PVFS_SIM_CACHE) is checked the same way.
        blocker = tmp_path / "F"
        blocker.write_text("")
        bad = str(blocker / "sub")
        monkeypatch.setenv("PVFS_SIM_CACHE", bad)

        def no_simulation(self):
            raise AssertionError("a simulation started before the cache check")

        monkeypatch.setattr(Simulator, "__init__", no_simulation)
        assert main([arg.format(bad=bad) for arg in argv]) == 2
        assert f"error: cannot write {bad}: " in capsys.readouterr().err

    def test_cache_dir_check_creates_nothing(self, tmp_path):
        from repro.experiments.cli import check_writable

        assert check_writable(cache_dir=str(tmp_path / "new" / "cache"))
        assert not (tmp_path / "new").exists()

    def test_cb_buffer_needs_figure18(self, capsys):
        rc = main(["--figure", "9", "--scale", "smoke", "--mode", "model", "--cb-buffer", "4096"])
        assert rc == 2
        assert "--cb-buffer" in capsys.readouterr().err


class TestDispatchAndHelp:
    """``pvfs-sim --help`` once drifted out of sync with the manual
    subcommand dispatch in ``main``; the SUBCOMMANDS table feeds the help
    epilog, and these tests keep dispatcher, help text, table and README
    aligned."""

    def test_top_level_help_lists_every_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        help_text = capsys.readouterr().out
        for name in SUBCOMMANDS:
            assert name in help_text, f"{name!r} missing from pvfs-sim --help"

    def test_subcommands_table_matches_dispatcher(self):
        assert set(SUBCOMMANDS) == {"obs", "chaos", "bench"}

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_subcommands_dispatch(self, name, capsys):
        # Each name reaches its own parser rather than falling through to
        # the figure parser's --figure/--all requirement.
        with pytest.raises(SystemExit) as exc:
            main([name, "--help"])
        assert exc.value.code == 0
        assert f"pvfs-sim {name}" in capsys.readouterr().out

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        # Removed subcommands stay usage errors; profiling runs through
        # `pvfs-sim bench run --profile`.
        for name in ("serve", "profile"):
            with pytest.raises(SystemExit) as exc:
                main([name])
            assert exc.value.code == 2

    def test_readme_lists_exactly_the_subcommands(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        listed = re.findall(r"^\| `pvfs-sim (\w+)` \|", readme, flags=re.MULTILINE)
        assert listed == list(SUBCOMMANDS)
