"""Smoke tests for the ``pvfs-sim chaos`` subcommand."""

import pytest

from repro.experiments import chaos
from repro.experiments.cli import main as cli_main
from repro.experiments.presets import SMOKE


class TestChaosCli:
    def test_crash_scenario_smoke(self, capsys):
        rc = cli_main(
            ["chaos", "--scenario", "crash", "--benchmark", "artificial", "--scale", "smoke"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "chaos sweep" in out
        assert "| crash |" in out
        assert "recovery" in out

    def test_events_flag_prints_log(self, capsys):
        rc = chaos.main(
            ["--scenario", "crash", "--scale", "smoke", "--events"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "crash events" in out
        assert "iod0 crashed" in out
        assert "iod0 restarted" in out

    def test_csv_output(self, tmp_path, capsys):
        path = tmp_path / "chaos.csv"
        rc = chaos.main(
            ["--scenario", "straggler", "--scale", "smoke", "--csv", str(path)]
        )
        capsys.readouterr()
        assert rc == 0
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("scenario,benchmark,")
        assert len(lines) == 2
        assert lines[1].startswith("straggler,artificial,")

    @pytest.mark.parametrize(
        "flag",
        [("--replicas", "0"), ("--replicas", "9"), ("--restart-after", "-1")],
        ids=["replicas-0", "replicas-9", "restart-after-negative"],
    )
    def test_bad_flag_is_a_usage_error(self, flag, tmp_path, capsys):
        # smoke scale has 8 I/O daemons, so 9 replicas cannot be placed.
        path = tmp_path / "chaos.csv"
        rc = chaos.main(["--no-cache", "--csv", str(path), *flag])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err
        assert not path.exists()


class TestRunScenario:
    def test_crash_row_recovers(self):
        row = chaos.run_scenario("crash", scale=SMOKE, restart_after=2.0)
        assert row.crashes == 1
        assert row.retries > 0
        assert row.recovery_s is not None and row.recovery_s >= 2.0
        assert row.faulty_s > row.baseline_s
        assert row.slowdown > 1.0
        assert row.goodput_mb_s > 0.0

    def test_straggler_row_needs_no_retries(self):
        row = chaos.run_scenario("straggler", scale=SMOKE)
        assert row.retries == 0 and row.timeouts == 0 and row.crashes == 0
        assert row.recovery_s is None
        assert row.faulty_s > row.baseline_s

    def test_unknown_scenario_rejected(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            chaos.run_scenario("nope", scale=SMOKE)
        with pytest.raises(ConfigError):
            chaos.run_scenario("crash", benchmark="nope", scale=SMOKE)

    def test_deterministic(self):
        a = chaos.run_scenario("disk-stall", scale=SMOKE)
        b = chaos.run_scenario("disk-stall", scale=SMOKE)
        assert a.faulty_s == b.faulty_s
        assert a.retries == b.retries
