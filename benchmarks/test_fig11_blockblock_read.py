"""Figure 11: block-block READ, multiple vs data sieving vs list.

Paper shapes: multiple grows linearly; data sieving is flat and *cheaper
than in the cyclic case* (denser useful data per fetched window); list I/O
rises with fragmentation and turns upward once accesses shrink to
~150 bytes because each block-block client hammers only a fraction of the
I/O servers.
"""

import pytest

from repro.config import ClusterConfig
from repro.experiments import SCALED, des_point, figure9, figure11
from repro.patterns import block_block

ACCESSES = (1024, 2048, 4096)
CLIENTS = (4, 16)


@pytest.fixture(scope="module")
def fig11_result():
    return figure11(scale=SCALED, mode="des", clients=CLIENTS, accesses=ACCESSES)


def test_fig11_regenerate_table(fig11_result, save_result):
    save_result("fig11_scaled_des", fig11_result.markdown())
    assert fig11_result.points


def test_fig11_paper_claims_hold(fig11_result):
    failed = [str(c) for c in fig11_result.checks if not c.passed]
    assert not failed, failed


def test_fig11_sieving_cheaper_than_cyclic(fig11_result):
    """Paper: 'the data sieving I/O times are reduced [vs Figure 9 at equal
    clients] ... because the data sieving I/O accesses less irrelevant
    data using the block-block access pattern.'"""
    cyc = figure9(scale=SCALED, mode="des", clients=(16,), accesses=(2048,))
    sieve_cyc = cyc.points_for("datasieve", n_clients=16)[0].elapsed
    sieve_bb = fig11_result.points_for("datasieve", n_clients=16)[0].elapsed
    assert sieve_bb < sieve_cyc


def test_fig11_clients_use_subset_of_servers(fig11_result):
    """The mechanism behind the upturn: block-block requests touch fewer
    distinct servers per logical request than cyclic ones."""
    bb = fig11_result.points_for("list", n_clients=16)[-1]
    fanout_bb = bb.server_messages / bb.logical_requests
    cyc = figure9(scale=SCALED, mode="des", clients=(16,), accesses=(4096,))
    lc = cyc.points_for("list", n_clients=16)[-1]
    fanout_cyc = lc.server_messages / lc.logical_requests
    assert fanout_bb < fanout_cyc


def test_fig11_upturn_zoom(save_result):
    """The paper's ~150 B/access list-I/O upturn, zoomed in with the DES.

    As accesses shrink below the stripe unit, each request's regions land
    on ever fewer servers: server messages SATURATE while requests keep
    doubling, so per-server work concentrates and the curve turns
    super-linear — exactly the mechanism the paper describes for 9/16
    clients."""
    cfg = ClusterConfig.chiba_city(n_clients=16)
    rows = []
    series = []
    for acc in (1024, 2048, 4096, 8192, 16384):
        pattern = block_block(SCALED.artificial_total, 16, acc)
        size = int(pattern.rank(0).file_regions.lengths[0])
        p = des_point(pattern, "list", "read", cfg, figure="fig11zoom", x=acc)
        series.append(p)
        rows.append(
            f"| {acc} | {size} | {p.elapsed:.3f} | {p.logical_requests} "
            f"| {p.server_messages} |"
        )
    save_result(
        "fig11_upturn_zoom",
        "## fig11 zoom: the ~150 B/access list I/O upturn (16 clients, DES)\n\n"
        "| accesses/client | B/access | list (s) | requests | server msgs |\n"
        "|---|---|---|---|---|\n" + "\n".join(rows) + "\n",
    )
    # slope ratio between successive doublings must increase (the knee)
    t = [p.elapsed for p in series]
    early_growth = t[1] / t[0]
    late_growth = t[4] / t[3]
    assert late_growth > early_growth * 1.2
    # mechanism: messages saturate while requests keep growing
    assert series[4].server_messages == series[2].server_messages
    assert series[4].logical_requests == 4 * series[2].logical_requests
