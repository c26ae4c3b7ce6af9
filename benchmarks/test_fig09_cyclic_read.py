"""Figure 9: one-dimensional cyclic READ, multiple vs data sieving vs list.

Paper shape: multiple I/O and list I/O grow linearly with the number of
accesses (list far shallower); data sieving is flat in accesses and
roughly doubles when the client count doubles.
"""

import pytest

from repro.experiments import SCALED, figure9

ACCESSES = (512, 1024, 2048)
CLIENTS = (8, 16)


@pytest.fixture(scope="module")
def fig9_result():
    return figure9(scale=SCALED, mode="des", clients=CLIENTS, accesses=ACCESSES)


def test_fig09_regenerate_table(fig9_result, save_result):
    save_result("fig09_scaled_des", fig9_result.markdown())
    assert fig9_result.points


def test_fig09_paper_claims_hold(fig9_result):
    failed = [str(c) for c in fig9_result.checks if not c.passed]
    assert not failed, failed


def test_fig09_list_beats_multiple_everywhere(fig9_result):
    for n in CLIENTS:
        for acc in ACCESSES:
            multiple = fig9_result.points_for("multiple", n_clients=n)
            listio = fig9_result.points_for("list", n_clients=n)
            m = {p.x: p.elapsed for p in multiple}
            l = {p.x: p.elapsed for p in listio}
            assert l[acc] < m[acc]


def test_fig09_request_count_ratio(fig9_result):
    """List I/O issues ~64x fewer logical requests than multiple I/O."""
    for n in CLIENTS:
        m = fig9_result.points_for("multiple", n_clients=n)[-1]
        l = fig9_result.points_for("list", n_clients=n)[-1]
        assert m.logical_requests == pytest.approx(64 * l.logical_requests, rel=0.05)
