"""Tests for the network fabric (repro.network)."""

import pytest

from repro.config import NetworkConfig
from repro.errors import NetworkError
from repro.network import Network
from repro.simulate import Simulator


def make_net(sim=None, **kw):
    sim = sim or Simulator()
    return sim, Network(sim, NetworkConfig(**kw))


class TestNodeRegistry:
    def test_add_and_get(self):
        sim, net = make_net()
        a = net.add_node("a")
        assert net.node("a") is a
        assert net.n_nodes == 1

    def test_duplicate_rejected(self):
        _, net = make_net()
        net.add_node("a")
        with pytest.raises(NetworkError):
            net.add_node("a")

    def test_unknown_rejected(self):
        _, net = make_net()
        with pytest.raises(NetworkError):
            net.node("ghost")


class TestTransfer:
    def test_single_transfer_time(self):
        sim, net = make_net()
        a, b = net.add_node("a"), net.add_node("b")

        def go(sim):
            yield from net.transfer(a, b, 1000)

        sim.process(go(sim))
        sim.run()
        cfg = net.cfg
        assert sim.now == pytest.approx(cfg.latency + cfg.transmit_time(1000))
        assert net.counters["net.messages"] == 1
        assert net.counters["net.payload_bytes"] == 1000
        assert net.counters["net.messages"] == 1

    def test_negative_payload_rejected(self):
        sim, net = make_net()
        a, b = net.add_node("a"), net.add_node("b")

        def go(sim):
            yield from net.transfer(a, b, -1)

        sim.process(go(sim))
        with pytest.raises(NetworkError):
            sim.run()

    def test_many_to_one_serializes_at_receiver(self):
        sim, net = make_net()
        server = net.add_node("server")
        clients = [net.add_node(f"c{i}") for i in range(4)]
        done = []

        def go(sim, c):
            yield from net.transfer(c, server, 14600)  # 10 frames
            done.append(sim.now)

        for c in clients:
            sim.process(go(sim, c))
        sim.run()
        one = net.cfg.latency + net.cfg.transmit_time(14600)
        # The receiver's RX link is the bottleneck: completions are spaced.
        assert done == sorted(done)
        assert done[-1] >= 4 * net.cfg.transmit_time(14600)
        assert done[0] == pytest.approx(one)

    def test_opposite_directions_full_duplex(self):
        sim, net = make_net()
        a, b = net.add_node("a"), net.add_node("b")
        done = {}

        def go(sim, src, dst, tag):
            yield from net.transfer(src, dst, 146000)
            done[tag] = sim.now

        sim.process(go(sim, a, b, "ab"))
        sim.process(go(sim, b, a, "ba"))
        sim.run()
        one = net.cfg.latency + net.cfg.transmit_time(146000)
        # Full duplex: both directions complete in one transfer time.
        assert done["ab"] == pytest.approx(one)
        assert done["ba"] == pytest.approx(one)

    def test_sender_serializes_its_own_sends(self):
        sim, net = make_net()
        a = net.add_node("a")
        dsts = [net.add_node(f"d{i}") for i in range(3)]
        done = []

        def go(sim, dst):
            yield from net.transfer(a, dst, 14600)
            done.append(sim.now)

        for d in dsts:
            sim.process(go(sim, d))
        sim.run()
        # TX link is shared: last completion is ~3x one serialization.
        assert done[-1] >= 3 * net.cfg.transmit_time(14600)

    def test_loopback_bypasses_nics(self):
        sim, net = make_net()
        a = net.add_node("a")

        def go(sim):
            yield from net.transfer(a, a, 10_000)

        sim.process(go(sim))
        sim.run()
        # Loopback is far faster than the wire and holds no NIC resources.
        assert sim.now < net.cfg.transmit_time(10_000)
        assert "net.payload_bytes" not in net.counters
        assert net.counters["net.loopback_messages"] == 1

    def test_wire_bytes_accounting(self):
        sim, net = make_net()
        a, b = net.add_node("a"), net.add_node("b")

        def go(sim):
            got = yield from net.transfer(a, b, 2000)
            return got

        p = sim.process(go(sim))
        sim.run()
        assert p.value == net.cfg.wire_bytes(2000)
        assert net.counters["net.wire_bytes"] == net.cfg.wire_bytes(2000)

    def test_zero_byte_message_still_costs_a_frame(self):
        sim, net = make_net()
        a, b = net.add_node("a"), net.add_node("b")

        def go(sim):
            yield from net.transfer(a, b, 0)

        sim.process(go(sim))
        sim.run()
        assert sim.now > net.cfg.latency  # one header frame serialized
