"""CLI integration: --trace-out / --report flags and the obs subcommand."""

import json

import pytest

from repro.experiments.cli import main as cli_main
from repro.obs.cli import main as obs_main


@pytest.fixture(scope="module")
def traced_figure(tmp_path_factory):
    """One smoke fig09 DES run with tracing, shared across the module."""
    path = tmp_path_factory.mktemp("obs") / "t.json"
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(
            [
                "--figure",
                "9",
                "--scale",
                "smoke",
                "--mode",
                "des",
                "--trace-out",
                str(path),
                "--report",
            ]
        )
    return rc, path, buf.getvalue()


class TestTraceOutAndReport:
    def test_exit_code_ok(self, traced_figure):
        rc, _, _ = traced_figure
        assert rc == 0

    def test_trace_file_is_valid_json(self, traced_figure):
        _, path, _ = traced_figure
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        assert doc["otherData"]["bottleneck"]["verdict"]

    def test_report_printed_with_verdict(self, traced_figure):
        _, _, out = traced_figure
        assert "bottleneck report" in out
        assert "verdict" in out
        assert "per-run verdicts" in out
        # The verdict names a resource with a utilization percentage.
        assert "% busy" in out or "idle-bound" in out

    def test_unwritable_trace_path_fails_fast(self, tmp_path, capsys):
        rc = cli_main(
            [
                "--figure",
                "9",
                "--scale",
                "smoke",
                "--mode",
                "des",
                "--trace-out",
                str(tmp_path / "no" / "such" / "dir" / "t.json"),
            ]
        )
        assert rc == 2
        assert "cannot write" in capsys.readouterr().err

    def test_trace_out_rejected_in_model_mode(self, capsys):
        rc = cli_main(
            ["--figure", "9", "--scale", "paper", "--mode", "model", "--report"]
        )
        assert rc == 2
        assert "des" in capsys.readouterr().err


class TestObsSubcommand:
    def test_summarize_saved_trace(self, traced_figure, capsys):
        _, path, _ = traced_figure
        rc = cli_main(["obs", str(path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "trace summary" in out
        assert "verdict" in out
        assert "| category |" in out
        # Resource rows come from the embedded report, not from summing
        # span durations per trace lane (which ranked inbox waits first).
        assert "| resource | kind | busy (ms) |" in out
        assert "queue wait" not in out

    def test_json_report(self, traced_figure, capsys):
        _, path, _ = traced_figure
        rc = obs_main([str(path), "--json"])
        out = capsys.readouterr().out
        assert rc == 0
        report = json.loads(out)
        assert "verdict" in report
        assert report["resources"]

    def test_missing_file_errors(self, tmp_path, capsys):
        rc = obs_main([str(tmp_path / "nope.json")])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_trace_json_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"hello": 1}')
        rc = obs_main([str(bad)])
        assert rc == 2
        assert "traceEvents" in capsys.readouterr().err


class TestHarnessTraceOption:
    def test_des_point_trace_summary(self):
        from repro.experiments.harness import des_point
        from repro.experiments.presets import SMOKE
        from repro.patterns import one_dim_cyclic

        pattern = one_dim_cyclic(SMOKE.artificial_total, 2, 16)
        point = des_point(pattern, "list", "read", trace=True)
        assert point.trace_summary is not None
        assert "iod.service" in point.trace_summary
        assert "p99" in point.trace_summary["iod.service"]

    def test_des_point_obs_capture(self):
        from repro.experiments.harness import des_point
        from repro.experiments.presets import SMOKE
        from repro.obs import ObsSession
        from repro.patterns import one_dim_cyclic

        obs = ObsSession()
        pattern = one_dim_cyclic(SMOKE.artificial_total, 2, 16)
        point = des_point(pattern, "list", "read", figure="fig09", x=16, obs=obs)
        assert len(obs.runs) == 1
        run = obs.runs[0]
        assert "fig09/list" in run.label
        assert run.elapsed == pytest.approx(point.elapsed)

    def test_des_point_untraced_matches_traced(self):
        from repro.experiments.harness import des_point
        from repro.experiments.presets import SMOKE
        from repro.obs import ObsSession
        from repro.patterns import one_dim_cyclic

        pattern = one_dim_cyclic(SMOKE.artificial_total, 2, 16)
        plain = des_point(pattern, "multiple", "read")
        traced = des_point(pattern, "multiple", "read", obs=ObsSession())
        assert plain.elapsed == traced.elapsed  # bit-identical
