"""Tests for repro.obs: lanes built from spans, utilization windows,
bottleneck attribution."""

import numpy as np
import pytest

from repro.config import ClusterConfig, NetworkConfig, StripeParams
from repro.network import Network
from repro.obs import (
    BottleneckReport,
    ObsSession,
    ResourceMonitor,
    attribute,
    build_lanes,
    lane_layout,
    merge_intervals,
)
from repro.pvfs import Cluster
from repro.regions import RegionList
from repro.simulate import Interrupt, Simulator, Span, Tracer


def small_cluster(trace=False):
    return Cluster.build(
        ClusterConfig(n_clients=2, n_iods=2, stripe=StripeParams(stripe_size=128)),
        trace=trace,
    )


def workload(client):
    f = yield from client.open("/obs", create=True)
    yield from f.write_list(
        RegionList.strided(client.index * 64, 12, 16, 256),
        np.zeros(192, np.uint8),
    )
    yield from f.read(0, 256)
    yield from f.close()


def span(category, start, end, label="", **meta):
    return Span(category, label, start, end, tuple(sorted(meta.items())))


class TestMergeIntervals:
    def test_empty(self):
        assert merge_intervals([]) == []

    def test_disjoint_sorted(self):
        assert merge_intervals([(3, 4), (0, 1)]) == [(0, 1), (3, 4)]

    def test_overlap_coalesced(self):
        assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]

    def test_touching_coalesced(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]


class TestResourceMonitor:
    def test_busy_interval_recording(self):
        spans = [span("iod.service", 1.0, 3.0, iod=0), span("iod.service", 5.0, 6.0, iod=0)]
        m = build_lanes([("iod0.cpu", "cpu")], spans)["iod0.cpu"]
        assert m.intervals == [(1.0, 3.0), (5.0, 6.0)]
        assert m.busy_within(0.0, 10.0) == pytest.approx(3.0)
        assert m.utilization(0.0, 10.0) == pytest.approx(0.3)

    def test_sub_window_utilization(self):
        m = ResourceMonitor("r", "disk")
        m.intervals.append((0.0, 4.0))
        # Window clips the interval.
        assert m.busy_within(2.0, 6.0) == pytest.approx(2.0)
        assert m.utilization(2.0, 6.0) == pytest.approx(0.5)
        assert m.utilization(5.0, 6.0) == 0.0

    def test_nested_busy_depth(self):
        spans = [
            span("client.request", 0.0, 5.0, client=0),
            span("client.request", 1.0, 2.0, client=0),  # nested
        ]
        m = build_lanes([("client0.app", "client")], spans)["client0.app"]
        assert m.merged() == [(0.0, 5.0)]

    def test_queue_percentile_time_weighted(self):
        m = ResourceMonitor("q", "queue")
        m.queue_depth.record(0.0, 0)
        m.queue_depth.record(1.0, 10)  # depth 10 for 9s of a 10s window
        assert m.queue_percentile(0.0, 10.0, 0.95) == 10
        assert m.queue_percentile(0.0, 10.0, 0.05) == 0
        assert m.queue_mean(0.0, 10.0) == pytest.approx(9.0)

    def test_queue_percentile_empty(self):
        m = ResourceMonitor("q", "queue")
        assert m.queue_percentile(0.0, 1.0, 0.95) == 0.0


def _net():
    """Nodes a, b, c on a traced network."""
    sim = Simulator()
    tracer = Tracer()
    net = Network(sim, NetworkConfig(), tracer=tracer)
    for name in "abc":
        net.add_node(name)
    return sim, net, tracer


def _link_lanes(tracer):
    layout = [(f"{n}.nic.{d}", "nic") for n in "abc" for d in ("tx", "rx")]
    return build_lanes(layout, tracer.spans)


class TestLaneBuilding:
    def test_transfers_fill_link_lanes(self):
        # b's transfer queues behind a's for c's RX link, holding b's TX
        # while it waits: b's TX lane starts at its claim, not on the wire.
        sim, net, tracer = _net()
        a, b, c = (net.node(n) for n in "abc")
        sim.process(net.transfer(a, c, 100_000))
        sim.process(net.transfer(b, c, 100_000))
        sim.run()
        first, second = tracer.spans_for("net.xfer")
        assert dict(second.meta)["tx_at"] == 0.0
        assert "tx_at" not in dict(first.meta)
        lanes = _link_lanes(tracer)
        assert lanes["a.nic.tx"].merged() == [(0.0, first.end)]
        assert lanes["b.nic.tx"].merged() == [(0.0, second.end)]
        assert lanes["c.nic.rx"].merged() == [(0.0, second.end)]
        assert lanes["a.nic.rx"].intervals == []

    def test_aborted_transfers_keep_links_busy(self):
        # Interrupt both transfers mid-way: a's on the wire (holding TX and
        # RX), b's while it holds TX and waits for RX.
        sim, net, tracer = _net()
        a, b, c = (net.node(n) for n in "abc")

        def send(src):
            try:
                yield from net.transfer(src, c, 100_000)
            except Interrupt:
                pass

        procs = [sim.process(send(a)), sim.process(send(b))]

        def killer():
            yield sim.timeout(0.001)
            for p in procs:
                p.interrupt("timeout")

        sim.process(killer())
        sim.run()
        assert tracer.spans_for("net.xfer") == []
        aborts = {s.label: s for s in tracer.spans_for("net.abort")}
        assert dict(aborts["a->c"].meta)["rx_at"] == 0.0
        assert "rx_at" not in dict(aborts["b->c"].meta)
        lanes = _link_lanes(tracer)
        assert lanes["a.nic.tx"].merged() == [(0.0, 0.001)]
        assert lanes["b.nic.tx"].merged() == [(0.0, 0.001)]
        assert lanes["c.nic.rx"].merged() == [(0.0, 0.001)]

    def test_queue_waits_fill_inbox_depth(self):
        spans = [
            span("iod.queue_wait", 0.0, 2.0, label="iod0"),
            span("iod.queue_wait", 1.0, 3.0, label="iod0"),
            span("iod.queue_wait", 3.0, 3.0, label="iod0"),  # handed straight over
        ]
        lane = build_lanes([("iod0.inbox", "queue")], spans)["iod0.inbox"]
        assert list(lane.queue_depth.times) == [0.0, 1.0, 2.0, 3.0]
        assert list(lane.queue_depth.values) == [1, 2, 1, 0]
        assert lane.queue_depth.max_value() == 2

    def test_layout_covers_all_resources(self):
        cluster = small_cluster()
        names = [name for name, _ in lane_layout(cluster)]
        assert {"iod0.cpu", "iod1.disk", "iod0.inbox", "client0.app"} <= set(names)
        assert {"client1.nic.tx", "iod0.nic.rx"} <= set(names)
        # NICs first, then daemons, then clients: the report's tie order.
        assert names.index("client1.nic.rx") < names.index("iod0.cpu")
        assert names.index("iod1.inbox") < names.index("client0.app")

    def test_attach_keeps_every_span(self):
        cluster = small_cluster()
        ObsSession().attach(cluster)
        assert cluster.tracer.enabled
        assert cluster.tracer.capacity is None

    def test_utilizations_in_range(self):
        obs = ObsSession()
        cluster = small_cluster(trace=True)
        obs.attach(cluster)
        cluster.run_workload(workload)
        run = obs.capture(cluster, label="u")
        for m in run.lanes.values():
            if m.kind == "queue":
                continue
            u = m.utilization(run.t0, run.t1)
            assert 0.0 <= u <= 1.0 + 1e-9, m.name
        # Something must have been busy.
        assert any(
            m.utilization(run.t0, run.t1) > 0
            for m in run.lanes.values()
            if m.kind != "queue"
        )


class TestBottleneckAttribution:
    def test_shares_plus_idle_sum_to_one(self):
        obs = ObsSession()
        cluster = small_cluster(trace=True)
        obs.attach(cluster)
        cluster.run_workload(workload)
        report = obs.capture(cluster, label="sum").report()
        total = report.idle_share + sum(
            r.critical_path_share
            for r in report.resources
            if r.kind in ("cpu", "disk", "nic")
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_report_ranked_and_verdict(self):
        obs = ObsSession()
        cluster = small_cluster(trace=True)
        obs.attach(cluster)
        cluster.run_workload(workload)
        report = obs.capture(cluster, label="rank").report()
        assert isinstance(report, BottleneckReport)
        shares = [r.critical_path_share for r in report.resources]
        assert shares == sorted(shares, reverse=True)
        assert report.verdict
        md = report.to_markdown()
        assert "verdict" in md
        assert "| resource |" in md
        js = report.to_json()
        assert js["verdict"] == report.verdict
        assert js["resources"]

    def test_synthetic_disk_bound(self):
        # One resource busy the whole window -> named in the verdict.
        disk = ResourceMonitor("iod0.disk", "disk")
        disk.intervals.append((0.0, 10.0))
        nic = ResourceMonitor("iod0.nic.tx", "nic")
        nic.intervals.append((0.0, 1.0))
        report = attribute(
            {"iod0.disk": disk, "iod0.nic.tx": nic}, 0.0, 10.0, label="synth"
        )
        assert "disk-bound" in report.verdict
        assert "iod0.disk" in report.verdict
        top = report.resources[0]
        assert top.name == "iod0.disk"
        assert top.utilization == pytest.approx(1.0)

    def test_empty_window_idle(self):
        report = attribute({}, 0.0, 0.0, label="empty")
        assert report.idle_share == 1.0
        assert "idle-bound" in report.verdict


class TestDeterminism:
    def test_observed_run_is_bit_identical(self):
        def run(observe):
            cluster = small_cluster(trace=observe)
            obs = ObsSession()
            if observe:
                obs.attach(cluster)
            result = cluster.run_workload(workload)
            if observe:
                obs.capture(cluster)
            return result.elapsed, tuple(result.client_times)

        assert run(True) == run(False)
