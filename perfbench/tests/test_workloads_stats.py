"""Seeded inputs and the order statistics the benchmark reports."""

import statistics

import pytest

from perfbench import stats, workloads
from repro.sweep import canonical


def _inputs(workload, seed):
    return [(p.method, p.label, canonical(p.spec)) for p in workloads.build(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _inputs(workload, 3) == _inputs(workload, 3)
    assert _inputs(workload, 3) != _inputs(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_cell_keeps_its_method_and_client_count_across_seeds(workload):
    shape = [(p.method, p.label) for p in workloads.build(workload, 1)]
    assert shape == [(p.method, p.label) for p in workloads.build(workload, 2)]


def test_vector_points_only_on_regular_patterns():
    for workload in ("des_read", "des_write"):
        for point in workloads.build(workload, 1):
            if point.method == "vector":
                assert "random" not in point.label


def test_model_paper_runs_no_des_and_stays_in_the_paper_grid_range():
    for point in workloads.build("model_paper", 1):
        assert point.spec.mode == "model"
        if point.spec.pattern != "flash_io":
            _total, n, acc = point.spec.pattern_args
            assert 25_000 <= acc <= 800_000
            assert n * acc <= max(1.1 * workloads.MODEL_REGIONS[point.method], n * 25_000)


def test_median_on_fixed_samples():
    assert stats.median([3.0, 1.0, 2.0]) == 2.0
    assert stats.median([4.0, 1.0, 3.0, 2.0]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    t = stats.tail([float(v) for v in range(1, 21)])  # 1..20
    assert (t.value, t.percentile, t.count, t.beyond) == (10.0, 50.0, 20, 10)
    t = stats.tail([float(v) for v in range(100, 0, -1)])  # 100..1, unsorted input
    assert t.value == 90.0 and t.percentile == 90.0
    assert sum(v > t.value for v in range(1, 101)) == 10
    t = stats.tail([5.0] * 11)
    assert t.value == 5.0 and t.percentile == pytest.approx(100 / 11)
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_quartiles_and_spread_follow_statistics_quantiles():
    values = [1.0, 2.0, 4.0, 8.0, 16.0, 3.0, 5.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert q2 == statistics.median(values)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
