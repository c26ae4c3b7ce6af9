"""Speed readings and host times scaled to the reference speed."""

import ast
from pathlib import Path

import pytest

from perfbench import passes, speed
from perfbench.tests.test_passes_layers import _smoke_point


def test_speed_track_scales_by_the_readings_on_both_sides(monkeypatch):
    warmup = [9.0] * speed.WARMUP_READINGS
    readings = iter(warmup + [2.0, 4.0, 1.0])
    monkeypatch.setattr(speed, "reading", lambda: next(readings))
    track = speed.SpeedTrack()
    track.read()
    track.read()
    ref = speed.REFERENCE_S
    assert track.scales(2) == [pytest.approx(ref / 3.0), pytest.approx(ref / 2.5)]
    assert track.scales(1) == [pytest.approx(ref / 2.5)]
    with pytest.raises(ValueError):
        track.scales(3)


def test_scaled_pass_multiplies_each_point_by_its_factor():
    raw = passes.PassResult(wall_s=3.5, point_s=[1.0, 2.0], results=["a", "b"])
    scaled = raw.scaled([2.0, 0.5])
    assert scaled.point_s == [2.0, 1.0]
    assert scaled.wall_s == pytest.approx(2.0 + 1.0 + 0.5 * 0.5)  # 0.5 s after the last point
    assert scaled.results is raw.results
    with pytest.raises(ValueError):
        raw.scaled([1.0])


def test_between_runs_off_the_pass_clock(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(passes, "perf_counter", lambda: clock[0])

    def advance(dt):
        clock[0] += dt

    result = passes.run_pass(
        [_smoke_point(0), _smoke_point(1)],
        on_point=lambda _i: advance(1.0),  # on the clock: counts in the next point
        between=lambda: advance(100.0),  # off the clock
    )
    assert result.point_s == [0.0, 1.0]
    assert result.wall_s == 2.0


def test_the_reading_runs_no_simulator_code():
    tree = ast.parse(Path(speed.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").split(".")[0])
    assert "repro" not in imported and "perfbench" not in imported
    assert speed.kernel() == speed.kernel()  # fixed work


def test_each_setup_probe_is_scaled_by_the_reference_start_after_it(monkeypatch):
    from perfbench import run

    probes, starts, order = iter([0.5, 0.6]), iter([0.25, 0.2]), []

    def fake(cmd):
        is_reference = tuple(cmd) == speed.START_CMD
        order.append("reference" if is_reference else "probe")
        return next(starts) if is_reference else next(probes)

    monkeypatch.setattr(run, "_time_to_ready", fake)
    raw, scaled = run._setup_times("des_read", 1, repeats=2)
    ref = speed.REFERENCE_START_S
    assert raw == [0.5, 0.6]
    assert scaled == [pytest.approx(0.5 * ref / 0.25), pytest.approx(0.6 * ref / 0.2)]
    assert order == ["probe", "reference", "probe", "reference"]
