"""Tests for less-traveled branches: report gaps, chart edge values,
network byte conservation."""

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
    def test_bytes_sent_equal_bytes_received(self):
        """Across any workload, total payload sent must equal total
        payload received (no bytes invented or lost by the fabric)."""
        cluster = Cluster.build(
            ClusterConfig(n_clients=3, n_iods=3, stripe=StripeParams(stripe_size=256))
        )

        def wl(client):
            regions = RegionList.strided(client.index * 64, 20, 32, 1024)
            f = yield from client.open("/cons", create=True)
            yield from f.write_list(regions, np.zeros(640, np.uint8))
            yield from f.read_list(regions)
            yield from f.close()

        cluster.run_workload(wl)
        nodes = [cluster.manager.node] + [i.node for i in cluster.iods] + [
            c.node for c in cluster.clients
        ]
        sent = sum({id(n): n for n in nodes}[k].bytes_sent for k in {id(n) for n in nodes})
        received = sum(
            {id(n): n for n in nodes}[k].bytes_received for k in {id(n) for n in nodes}
        )
        assert sent == received
        assert sent > 0

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
