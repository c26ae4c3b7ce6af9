"""Property tests: the analytic NIC fast path is bit-identical to the
frame-level slow path (see ``src/repro/simulate/fastpath.py``).

The fast path collapses an uncontended, fault-free transfer's
request/grant event chain into one precomputed timeout; with
``PVFS_SIM_NO_FASTPATH=1`` every transfer walks the exact legacy chain.
These tests drive both modes over generated payloads/MTUs and assert the
completion times are *exactly* equal (``==``, not approx) and match the
closed-form :class:`~repro.config.NetworkConfig` predictions (latency plus
transmit time per message) — and that active loss / link-down windows
force the slow path outright.

Gated on hypothesis availability per the repo's no-new-deps rule.
"""

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.config import NetworkConfig
from repro.network import Network
from repro.simulate import NO_FASTPATH_ENV, Simulator

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


@contextmanager
def _fastpath(enabled):
    """Force the kernel fast-path switch for simulators built inside."""
    old = os.environ.get(NO_FASTPATH_ENV)
    if enabled:
        os.environ.pop(NO_FASTPATH_ENV, None)
    else:
        os.environ[NO_FASTPATH_ENV] = "1"
    try:
        yield
    finally:
        if old is None:
            os.environ.pop(NO_FASTPATH_ENV, None)
        else:
            os.environ[NO_FASTPATH_ENV] = old


def _fresh_net(cfg, fastpath, n_nodes=2):
    with _fastpath(fastpath):
        sim = Simulator()
    assert sim.fastpath is fastpath
    net = Network(sim, cfg)
    nodes = [net.add_node(f"n{i}") for i in range(n_nodes)]
    return sim, net, nodes


def _message_time(cfg, payload):
    """Idle-network time of one ``payload``-byte message."""
    return cfg.latency + cfg.transmit_time(payload)


payloads = st.integers(min_value=0, max_value=2_000_000)
mtus = st.integers(min_value=576, max_value=9000)


@given(payload=payloads, mtu=mtus)
@settings(max_examples=60, deadline=None)
def test_single_message_matches_analytic_time(payload, mtu):
    cfg = NetworkConfig(mtu=mtu)
    expected = _message_time(cfg, payload)
    times = {}
    for mode in (True, False):
        sim, net, (a, b) = _fresh_net(cfg, mode)

        def go(sim, net=net, a=a, b=b):
            yield from net.transfer(a, b, payload)

        sim.process(go(sim))
        sim.run()
        times[mode] = sim.now
        assert net.counters["net.fastpath_messages"] == (1.0 if mode else 0.0)
        assert net.counters["net.messages"] == 1.0
        assert net.counters["net.payload_bytes"] == payload
    assert times[True] == times[False] == expected


@given(request=payloads, response=payloads, mtu=mtus)
@settings(max_examples=40, deadline=None)
def test_roundtrip_matches_analytic_time(request, response, mtu):
    cfg = NetworkConfig(mtu=mtu)
    expected = _message_time(cfg, request) + _message_time(cfg, response)
    times = {}
    for mode in (True, False):
        sim, net, (a, b) = _fresh_net(cfg, mode)

        def go(sim, net=net, a=a, b=b):
            yield from net.transfer(a, b, request)
            yield from net.transfer(b, a, response)

        sim.process(go(sim))
        sim.run()
        times[mode] = sim.now
        assert net.counters["net.fastpath_messages"] == (2.0 if mode else 0.0)
    assert times[True] == times[False] == expected


@given(
    payloads_=st.lists(st.integers(0, 200_000), min_size=2, max_size=6),
    mtu=mtus,
)
@settings(max_examples=30, deadline=None)
def test_contended_many_to_one_identical(payloads_, mtu):
    """Many-to-one traffic (RX contention) completes identically in both
    modes: the fast path never overtakes a queued waiter."""
    cfg = NetworkConfig(mtu=mtu)
    done = {}
    for mode in (True, False):
        sim, net, nodes = _fresh_net(cfg, mode, n_nodes=len(payloads_) + 1)
        server, clients = nodes[0], nodes[1:]
        finished = []

        def go(sim, c, p, net=net, server=server, finished=finished):
            yield from net.transfer(c, server, p)
            finished.append((c.name, sim.now))

        for c, p in zip(clients, payloads_):
            sim.process(go(sim, c, p))
        sim.run()
        done[mode] = (finished, sim.now)
    assert done[True] == done[False]


@given(
    payload=st.integers(1, 500_000),
    rate=st.floats(0.05, 0.5),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=30, deadline=None)
def test_frame_loss_forces_slow_path(payload, rate, seed):
    cfg = NetworkConfig()
    times = {}
    for mode in (True, False):
        sim, net, (a, b) = _fresh_net(cfg, mode)
        net.set_frame_loss("n1", rate, np.random.default_rng(seed))

        def go(sim, net=net, a=a, b=b):
            yield from net.transfer(a, b, payload)

        sim.process(go(sim))
        sim.run()
        times[mode] = sim.now
        # An active loss window bypasses the analytic path entirely.
        assert net.counters["net.fastpath_messages"] == 0.0
    assert times[True] == times[False]
    assert times[True] >= _message_time(cfg, payload)


@given(until=st.floats(0.01, 2.0), payload=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_link_down_forces_slow_path_then_reengages(until, payload):
    """A transfer overlapping a link-down window takes the exact slow
    path; once the window expires the fast path re-engages."""
    cfg = NetworkConfig()
    results = {}
    for mode in (True, False):
        sim, net, (a, b) = _fresh_net(cfg, mode)
        net.set_link_down("n1", until)
        marks = []

        def go(sim, net=net, a=a, b=b, marks=marks):
            yield from net.transfer(a, b, payload)
            marks.append(sim.now)  # stalled transfer done
            yield from net.transfer(a, b, payload)
            marks.append(sim.now)

        sim.process(go(sim))
        sim.run()
        results[mode] = (marks, sim.now)
        # First transfer hit the window -> slow path; second ran after the
        # window was pruned -> fast path (when enabled).
        assert net.counters["net.fastpath_messages"] == (1.0 if mode else 0.0)
        assert net.counters["net.link_stalls"] == 1.0
    assert results[True] == results[False]
    one = _message_time(cfg, payload)
    assert results[True][0][0] == until + cfg.retransmit_timeout + one


def test_loopback_unaffected_by_mode():
    cfg = NetworkConfig()
    times = {}
    for mode in (True, False):
        sim, net, (a, _b) = _fresh_net(cfg, mode)

        def go(sim, net=net, a=a):
            yield from net.transfer(a, a, 4096)

        sim.process(go(sim))
        sim.run()
        times[mode] = sim.now
        assert net.counters["net.loopback_messages"] == 1.0
        assert net.counters["net.fastpath_messages"] == 0.0
    assert times[True] == times[False]
