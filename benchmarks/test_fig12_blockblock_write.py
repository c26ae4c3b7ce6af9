"""Figure 12: block-block WRITE, multiple vs list (log scale).

Paper shape: "the block-block write results perform similar to the
one-dimensional cyclic write results ... as the number of accesses
increases, multiple I/O and list I/O run times increase while maintaining
the two orders of magnitude difference."
"""

import pytest

from repro.experiments import SCALED, figure10, figure12

ACCESSES = (1024, 2048, 4096)
CLIENTS = (4, 16)


@pytest.fixture(scope="module")
def fig12_result():
    return figure12(scale=SCALED, mode="des", clients=CLIENTS, accesses=ACCESSES)


def test_fig12_regenerate_table(fig12_result, save_result):
    save_result("fig12_scaled_des", fig12_result.markdown())
    assert fig12_result.points


def test_fig12_paper_claims_hold(fig12_result):
    failed = [str(c) for c in fig12_result.checks if not c.passed]
    assert not failed, failed


def test_fig12_similar_to_cyclic_writes(fig12_result):
    """The paper notes the block-block write trend follows the cyclic one:
    the multiple/list gap should be within ~3x across the two patterns at
    matched parameters."""
    cyc = figure10(scale=SCALED, mode="des", clients=(16,), accesses=(2048,))
    gap_cyc = (
        cyc.points_for("multiple", n_clients=16)[0].elapsed
        / cyc.points_for("list", n_clients=16)[0].elapsed
    )
    m = {p.x: p.elapsed for p in fig12_result.points_for("multiple", n_clients=16)}
    l = {p.x: p.elapsed for p in fig12_result.points_for("list", n_clients=16)}
    gap_bb = m[2048] / l[2048]
    assert gap_bb / gap_cyc < 3 and gap_cyc / gap_bb < 3
