"""Tests for less-traveled branches: report gaps, chart edge values,
network traffic records that agree."""

import numpy as np

from repro.config import ClusterConfig, StripeParams
from repro.pvfs import Cluster
from repro.regions import RegionList


class TestReportGaps:
    def test_series_table_renders_dash_for_missing(self):
        from repro.experiments import DataPoint
        from repro.experiments.report import series_table

        pts = [
            DataPoint(
                figure="f", series="a", x=1, elapsed=1.0, mode="des",
                kind="read", n_clients=1,
            ),
            DataPoint(
                figure="f", series="b", x=2, elapsed=2.0, mode="des",
                kind="read", n_clients=1,
            ),
        ]
        table = series_table(pts, ["a", "b"])
        assert "| - |" in table  # a has no x=2; b has no x=1


class TestChartEdges:
    def test_zero_values_on_log_scale(self):
        from repro.experiments.plot import ascii_chart

        out = ascii_chart({"a": [(0, 0.0), (1, 10.0)]}, log_y=True)
        assert "o" in out  # did not crash on log(0)

    def test_identical_y_values(self):
        from repro.experiments.plot import ascii_chart

        out = ascii_chart({"a": [(0, 5.0), (1, 5.0)]})
        assert "o" in out


class TestNetworkConservation:
    """The fabric's counters and its ``net.xfer`` spans are the two records
    of the traffic: one span per counted message, with the same bytes."""

    CFG = ClusterConfig(n_clients=4, n_iods=4, stripe=StripeParams(stripe_size=16384))

    @staticmethod
    def cyclic_list_write(client):
        regions = RegionList.strided(client.index * 4096, 64, 4096, 16384)
        f = yield from client.open("/cons", create=True)
        yield from f.write_list(regions, np.full(64 * 4096, client.index, np.uint8))
        yield from f.read_list(regions)
        yield from f.close()

    @staticmethod
    def assert_records_agree(cluster):
        assert cluster.tracer.dropped == 0
        meta = [dict(s.meta) for s in cluster.tracer.spans_for("net.xfer")]
        counters = cluster.counters
        assert counters["net.messages"] == len(meta) > 0
        assert counters["net.payload_bytes"] == sum(m["payload_bytes"] for m in meta)
        assert counters["net.wire_bytes"] == sum(m["wire_bytes"] for m in meta)

    def test_counters_match_xfer_spans(self):
        cluster = Cluster.build(self.CFG, trace=True)
        cluster.run_workload(self.cyclic_list_write)
        self.assert_records_agree(cluster)

    def test_counters_match_xfer_spans_under_crash_and_retry(self):
        """Refused, timed-out and replayed requests are in the mix, and
        transfers cut off mid-wire (``net.abort``), which count as neither."""
        from repro.faults import FaultConfig, FaultPlan, IodCrash, RetryPolicy

        clean = Cluster.build(self.CFG, move_bytes=False)
        elapsed = clean.run_workload(self.cyclic_list_write).elapsed
        faults = FaultConfig(
            plan=FaultPlan((IodCrash(iod=0, at=elapsed / 3, restart_after=elapsed),)),
            retry=RetryPolicy(
                request_timeout=elapsed / 4, max_retries=20, backoff_base=elapsed / 10
            ),
        )
        cluster = Cluster.build(self.CFG.with_(faults=faults), trace=True)
        cluster.run_workload(self.cyclic_list_write)
        counters = cluster.counters
        assert counters["iod.0.crashes"] == 1
        assert counters.total("client", ".timeouts") > 0
        assert counters.total("client", ".retries") > counters.total("client", ".timeouts")
        assert cluster.tracer.spans_for("net.abort")
        self.assert_records_agree(cluster)

    def test_request_response_message_pairing(self):
        """Every I/O server message produces exactly one response: the
        fabric's message count is even (requests+responses) plus manager
        traffic."""
        cluster = Cluster.build(
            ClusterConfig(n_clients=2, n_iods=2, stripe=StripeParams(stripe_size=128)),
            move_bytes=False,
        )

        def wl(client):
            f = yield from client.open("/pair", create=True)
            yield from f.write(0, None, length=1000)
            yield from f.close()

        res = cluster.run_workload(wl)
        server_msgs = res.total_server_messages
        mgr_ops = cluster.manager.ops_served
        # each server message and each manager op is one request + one response
        expected = 2 * server_msgs + 2 * mgr_ops
        assert cluster.counters["net.messages"] + cluster.counters.get(
            "net.loopback_messages", 0
        ) == expected
