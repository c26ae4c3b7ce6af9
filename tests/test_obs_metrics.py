"""The ``obs`` subcommand after the post-hoc metrics registry was removed.

``repro.obs.metrics`` and the subcommand's metrics-JSONL branch are gone:
``pvfs-sim obs`` reads Chrome traces only and refuses anything else with
exit code 2, including the JSONL files the registry used to write.
"""

from repro.obs.cli import main as obs_main


class TestFromCapture:
    def test_obs_cli_still_rejects_garbage(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text('{"nope": 1}')
        assert obs_main([str(path)]) == 2
        capsys.readouterr()

        # A metrics JSONL file (one JSON object per line) is not a trace.
        jsonl = tmp_path / "m.jsonl"
        jsonl.write_text(
            '{"kind": "header", "tool": "pvfs-sim-metrics"}\n'
            '{"kind": "counter", "name": "x", "value": 1.0}\n'
        )
        assert obs_main([str(jsonl)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
