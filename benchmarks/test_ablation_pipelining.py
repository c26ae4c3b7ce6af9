"""Ablation: can nonblocking (pipelined) multiple I/O close the gap?

An obvious objection to the paper's multiple-I/O baseline is that a real
application could keep several contiguous requests outstanding.  This
bench sweeps the pipeline depth and shows the objection fails: latency
overlap helps a few x, but every request still pays full server-side
processing, so throughput caps at the servers' request rate — far short of
list I/O, which eliminates most of the requests outright.
"""

import pytest

from repro.config import ClusterConfig
from repro.experiments import SCALED, des_point
from repro.patterns import one_dim_cyclic

DEPTHS = (1, 4, 16, 64)


@pytest.fixture(scope="module")
def pipeline_sweep():
    pattern = one_dim_cyclic(SCALED.artificial_total, 8, 2048)
    cfg = ClusterConfig.chiba_city(n_clients=8)
    out = {}
    for depth in DEPTHS:
        out[depth] = des_point(
            pattern,
            "multiple",
            "read",
            cfg,
            figure="ablation",
            x=depth,
            method_opts={"pipeline_depth": depth},
        )
    out["list"] = des_point(pattern, "list", "read", cfg, figure="ablation", x=0)
    return out


def test_pipelining_table(pipeline_sweep, save_result):
    lines = [
        "## ablation: pipelined multiple I/O (cyclic read, 8 clients, 2048 accesses)\n",
        "| strategy | time (s) |",
        "|---|---|",
    ]
    for depth in DEPTHS:
        lines.append(f"| multiple, depth {depth} | {pipeline_sweep[depth].elapsed:.3f} |")
    lines.append(f"| list I/O | {pipeline_sweep['list'].elapsed:.3f} |")
    save_result("ablation_pipelining", "\n".join(lines) + "\n")


def test_pipelining_helps(pipeline_sweep):
    assert pipeline_sweep[16].elapsed < pipeline_sweep[1].elapsed


def test_pipelining_saturates(pipeline_sweep):
    """Beyond modest depth the servers are the wall: 16 -> 64 gains
    little compared to 1 -> 16."""
    gain_early = pipeline_sweep[1].elapsed / pipeline_sweep[16].elapsed
    gain_late = pipeline_sweep[16].elapsed / pipeline_sweep[64].elapsed
    assert gain_early > 1.5 * gain_late


def test_list_still_wins_at_any_depth(pipeline_sweep):
    best_pipelined = min(pipeline_sweep[d].elapsed for d in DEPTHS)
    assert pipeline_sweep["list"].elapsed < best_pipelined


def test_pipelined_correctness():
    """Deep pipelining must not corrupt data (out-of-order completions)."""
    import numpy as np

    from repro.core import MultipleIO
    from repro.pvfs import Cluster
    from repro.regions import RegionList
    from repro.config import StripeParams

    cluster = Cluster.build(
        ClusterConfig(n_clients=1, n_iods=4, stripe=StripeParams(stripe_size=128))
    )
    regions = RegionList.strided(0, 50, 16, 64)
    payload = (np.arange(800) % 251).astype(np.uint8)
    out = np.zeros(800, np.uint8)

    def wl(client):
        f = yield from client.open("/pipe", create=True)
        yield from MultipleIO(pipeline_depth=8).write(
            f, payload, RegionList.single(0, 800), regions
        )
        yield from MultipleIO(pipeline_depth=8).read(
            f, out, RegionList.single(0, 800), regions
        )
        yield from f.close()

    cluster.run_workload(wl, clients=[0])
    np.testing.assert_array_equal(out, payload)
