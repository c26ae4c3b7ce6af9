"""Schema round-trip and version gating for ``repro.bench.schema``."""

import json
import pathlib

import pytest

from repro.bench import scenario_names
from repro.bench.schema import (
    SCHEMA_VERSION,
    BenchResult,
    ScenarioResult,
    SimMetrics,
    load,
    save,
)
from repro.errors import BenchError, SchemaMismatchError

BASELINE = pathlib.Path(__file__).parents[1] / "benchmarks" / "baseline_smoke.json"


def _result(**overrides) -> BenchResult:
    sim = SimMetrics(
        elapsed_s=1.2345678901234567,
        moved_bytes=1024,
        useful_bytes=512,
        logical_requests=10,
        server_messages=12,
        n_points=3,
    )
    kwargs = dict(
        scale="smoke",
        scenarios=[ScenarioResult(name="s1", family="artificial", sim=sim)],
        created="2026-08-06T00:00:00Z",
        host={"python": "3.11.7"},
        code_fingerprint="abc123",
        repeats=3,
        jobs=2,
    )
    kwargs.update(overrides)
    return BenchResult(**kwargs)


def test_round_trip_is_bit_identical(tmp_path):
    path = str(tmp_path / "BENCH_test.json")
    original = _result()
    save(original, path)
    reloaded = load(path)
    # Dataclass equality covers every field, floats included: json's
    # repr shortest-roundtrip encoding preserves them exactly.
    assert reloaded == original


def test_version1_files_still_load(tmp_path):
    """A v1 file differs only by its ``wall`` block, which loading ignores."""
    path = str(tmp_path / "BENCH_v1.json")
    save(_result(), path)
    with open(path) as fh:
        data = json.load(fh)
    data["schema_version"] = 1
    for sc in data["scenarios"]:
        sc["wall"] = {"median_s": 0.2, "mean_s": 0.2, "std_s": 0.0, "repeats": 3}
    with open(path, "w") as fh:
        json.dump(data, fh)
    upgraded = load(path)
    assert upgraded.schema_version == SCHEMA_VERSION
    assert upgraded.scenarios == _result().scenarios


def test_committed_v2_baseline_loads():
    baseline = load(str(BASELINE))
    assert json.loads(BASELINE.read_text())["schema_version"] == 2
    assert [sc.name for sc in baseline.scenarios] == scenario_names()


def test_schema_version_mismatch_rejected(tmp_path):
    path = str(tmp_path / "BENCH_old.json")
    save(_result(), path)
    with open(path) as fh:
        data = json.load(fh)
    data["schema_version"] = SCHEMA_VERSION + 1
    with open(path, "w") as fh:
        json.dump(data, fh)
    with pytest.raises(SchemaMismatchError):
        load(path)


def test_missing_schema_version_rejected(tmp_path):
    path = tmp_path / "BENCH_bad.json"
    path.write_text('{"scale": "smoke", "scenarios": []}')
    with pytest.raises(SchemaMismatchError):
        load(str(path))


def test_malformed_file_rejected(tmp_path):
    path = tmp_path / "BENCH_broken.json"
    path.write_text("not json at all")
    with pytest.raises(BenchError):
        load(str(path))
    missing = tmp_path / "nope.json"
    with pytest.raises(BenchError):
        load(str(missing))


def test_scenario_lookup():
    result = _result()
    assert result.scenario("s1").family == "artificial"
    with pytest.raises(KeyError):
        result.scenario("absent")
