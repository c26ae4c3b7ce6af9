"""Figure 10: one-dimensional cyclic WRITE, multiple vs list (log scale).

Paper shape: both grow with the number of accesses while keeping a
near-two-orders-of-magnitude gap (the paper skips data sieving writes in
the artificial benchmark because of the read-modify-write serialization
requirement; so do we).
"""

import pytest

from repro.config import ClusterConfig
from repro.experiments import SCALED, des_point, figure10
from repro.patterns import one_dim_cyclic

ACCESSES = (512, 1024, 2048)
CLIENTS = (8, 16)


@pytest.fixture(scope="module")
def fig10_result():
    return figure10(scale=SCALED, mode="des", clients=CLIENTS, accesses=ACCESSES)


def test_fig10_regenerate_table(fig10_result, save_result):
    save_result("fig10_scaled_des", fig10_result.markdown())
    assert fig10_result.points


def test_fig10_paper_claims_hold(fig10_result):
    failed = [str(c) for c in fig10_result.checks if not c.passed]
    assert not failed, failed


def test_fig10_gap_persists_across_sweep(fig10_result):
    """The two-orders gap holds at every access count, not just the max."""
    for n in CLIENTS:
        m = {p.x: p.elapsed for p in fig10_result.points_for("multiple", n_clients=n)}
        l = {p.x: p.elapsed for p in fig10_result.points_for("list", n_clients=n)}
        for acc in ACCESSES:
            assert m[acc] / l[acc] > 20, f"{n} clients @{acc}: {m[acc]/l[acc]:.1f}x"


def test_fig10_writes_slower_than_reads(fig10_result):
    """Cross-figure sanity: the write path carries the small-write
    turnaround penalty, so multiple I/O writes dwarf its reads."""
    pattern = one_dim_cyclic(SCALED.artificial_total, 8, ACCESSES[0])
    cfg = ClusterConfig.chiba_city(n_clients=8)
    read = des_point(pattern, "multiple", "read", cfg).elapsed
    write = next(
        p.elapsed
        for p in fig10_result.points_for("multiple", n_clients=8)
        if p.x == ACCESSES[0]
    )
    assert write > 5 * read
