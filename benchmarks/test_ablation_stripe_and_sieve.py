"""Ablations: stripe size and data-sieving buffer size.

The paper fixes stripe size at 16,384 bytes and the sieve buffer at 32 MB
without sweeping either; these benches fill that gap.
"""

import pytest

from repro.config import ClusterConfig, StripeParams
from repro.experiments import SCALED, des_point
from repro.patterns import one_dim_cyclic
from repro.units import KiB, MiB

STRIPES = (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB)
SIEVE_BUFFERS = (1 * MiB, 4 * MiB, 16 * MiB, 32 * MiB)


@pytest.fixture(scope="module")
def stripe_sweep():
    pattern = one_dim_cyclic(SCALED.artificial_total, 8, 2048)
    out = {}
    for s in STRIPES:
        cfg = ClusterConfig.chiba_city(n_clients=8, stripe=StripeParams(stripe_size=s))
        out[s] = {
            m: des_point(pattern, m, "read", cfg, figure="ablation", x=s)
            for m in ("multiple", "list")
        }
    return out


def test_stripe_table(stripe_sweep, save_result):
    lines = [
        "## ablation: stripe size (cyclic read, 8 clients, 2048 accesses)\n",
        "| stripe | multiple (s) | list (s) | list fan-out (msgs/req) |",
        "|---|---|---|---|",
    ]
    for s, methods in stripe_sweep.items():
        l = methods["list"]
        fanout = l.server_messages / max(l.logical_requests, 1)
        lines.append(
            f"| {s // KiB} KiB | {methods['multiple'].elapsed:.2f} | "
            f"{l.elapsed:.2f} | {fanout:.1f} |"
        )
    save_result("ablation_stripe", "\n".join(lines) + "\n")


def test_larger_stripes_reduce_list_fanout(stripe_sweep):
    """Bigger stripe units concentrate a request's regions on fewer
    servers, shrinking per-request fan-out."""
    fan = {
        s: v["list"].server_messages / max(v["list"].logical_requests, 1)
        for s, v in stripe_sweep.items()
    }
    assert fan[256 * KiB] <= fan[4 * KiB]


def test_list_beats_multiple_at_every_stripe(stripe_sweep):
    for s, methods in stripe_sweep.items():
        assert methods["list"].elapsed < methods["multiple"].elapsed


@pytest.fixture(scope="module")
def sieve_sweep():
    pattern = one_dim_cyclic(SCALED.artificial_total, 8, 2048)
    cfg = ClusterConfig.chiba_city(n_clients=8)
    return {
        b: des_point(
            pattern,
            "datasieve",
            "read",
            cfg,
            figure="ablation",
            x=b,
            method_opts={"buffer_size": b},
        )
        for b in SIEVE_BUFFERS
    }


def test_sieve_buffer_table(sieve_sweep, save_result):
    lines = [
        "## ablation: data sieving buffer size (cyclic read, 8 clients)\n",
        "| buffer | time (s) | logical requests |",
        "|---|---|---|",
    ]
    for b, p in sieve_sweep.items():
        lines.append(f"| {b // MiB} MiB | {p.elapsed:.2f} | {p.logical_requests} |")
    save_result("ablation_sieve_buffer", "\n".join(lines) + "\n")


def test_bigger_buffers_mean_fewer_requests(sieve_sweep):
    reqs = [sieve_sweep[b].logical_requests for b in SIEVE_BUFFERS]
    assert reqs == sorted(reqs, reverse=True)
    assert reqs[0] > reqs[-1]


def test_sieve_buffer_is_second_order(sieve_sweep):
    """Buffer size is a second-order effect: the same bytes move either
    way, so 1 MiB..32 MiB stays within ~2x.  Smaller buffers are actually
    mildly FASTER here — more windows means window k+1's server-side disk
    work overlaps window k's network transfer (pipelining the simulator
    captures and a single monolithic window cannot)."""
    t1 = sieve_sweep[1 * MiB].elapsed
    t32 = sieve_sweep[32 * MiB].elapsed
    assert t1 <= t32 <= 2.5 * t1
