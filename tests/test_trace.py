"""Tests for the tracing subsystem (repro.simulate.trace + cluster wiring)."""

import numpy as np
import pytest

from repro.config import ClusterConfig, StripeParams
from repro.pvfs import Cluster
from repro.regions import RegionList
from repro.simulate import Tracer


class TestTracer:
    def test_record_and_len(self):
        t = Tracer()
        t.record("cat", "x", 0.0, 1.0)
        t.record("cat", "y", 1.0, 3.0)
        assert len(t) == 2
        assert [s.label for s in t.spans] == ["x", "y"]

    def test_disabled_records_nothing(self):
        t = Tracer(enabled=False)
        t.record("cat", "x", 0.0, 1.0)
        assert len(t) == 0

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError):
            Tracer().record("c", "l", 2.0, 1.0)

    def test_span_duration_and_meta(self):
        t = Tracer()
        t.record("c", "l", 1.0, 2.5, bytes=100)
        s = t.spans[0]
        assert s.duration == 1.5
        assert dict(s.meta) == {"bytes": 100}
        assert "ms" in repr(s)

    def test_filters(self):
        t = Tracer()
        t.record("a", "x", 0, 1)
        t.record("a", "y", 0, 2)
        t.record("b", "x", 0, 3)
        assert len(t.spans_for("a")) == 2
        assert len(t.spans_for("a", label="x")) == 1
        assert [s.duration for s in t.spans_for("b")] == [3]

    def test_capacity_drops(self):
        t = Tracer(capacity=2)
        for i in range(5):
            t.record("c", "l", 0, 1)
        assert len(t) == 2
        assert t.dropped == 3
        assert "dropped" in t.format_summary()

    def test_drops_accounted_per_category(self):
        t = Tracer(capacity=3)
        t.record("a", "x", 0, 1)
        t.record("a", "x", 0, 1)
        t.record("b", "y", 0, 1)
        for _ in range(4):
            t.record("a", "x", 0, 1)  # dropped
        t.record("b", "y", 0, 1)  # dropped
        assert t.dropped == 5
        assert dict(t.dropped_by_category) == {"a": 4, "b": 1}
        out = t.format_summary()
        assert "a=4" in out and "b=1" in out

    def test_no_drops_no_per_category_detail(self):
        t = Tracer()
        t.record("c", "l", 0, 1)
        assert dict(t.dropped_by_category) == {}
        assert "dropped" not in t.format_summary()

    def test_summary_statistics(self):
        t = Tracer()
        for d in (1.0, 2.0, 3.0, 4.0, 100.0):
            t.record("c", "l", 0.0, d)
        s = t.summary()["c"]
        assert s["count"] == 5
        assert s["total"] == 110.0
        assert s["mean"] == 22.0
        assert s["p50"] == 3.0
        assert s["max"] == 100.0
        assert s["p95"] == 100.0
        assert s["p99"] == 100.0

    def test_p99_separates_tail_from_p95(self):
        t = Tracer()
        for i in range(1, 101):
            t.record("c", "l", 0.0, float(i))
        s = t.summary()["c"]
        assert s["p95"] == 95.0
        assert s["p99"] == 99.0
        assert s["max"] == 100.0
        assert "p99" in t.format_summary()

    def test_format_summary_markdown(self):
        t = Tracer()
        t.record("iod.service", "read", 0.0, 0.004)
        out = t.format_summary()
        assert "| iod.service |" in out
        assert "p95" in out

    def test_empty_summary(self):
        assert "(no spans" in Tracer().format_summary()

    def test_repr(self):
        assert "Tracer on" in repr(Tracer())
        assert "Tracer off" in repr(Tracer(enabled=False))


class TestClusterTracing:
    def run_traced(self):
        cluster = Cluster.build(
            ClusterConfig(n_clients=2, n_iods=2, stripe=StripeParams(stripe_size=128)),
            trace=True,
        )

        def wl(client):
            f = yield from client.open("/t", create=True)
            yield from f.write_list(
                RegionList.strided(client.index * 64, 10, 8, 256),
                np.zeros(80, np.uint8),
            )
            yield from f.read(0, 64)
            yield from f.close()

        cluster.run_workload(wl)
        return cluster

    def test_spans_collected(self):
        cluster = self.run_traced()
        t = cluster.tracer
        assert len(t.spans_for("client.request")) > 0
        assert len(t.spans_for("iod.service")) > 0
        assert len(t.spans_for("iod.queue_wait")) == len(t.spans_for("iod.service"))

    def test_service_spans_have_meta(self):
        cluster = self.run_traced()
        s = cluster.tracer.spans_for("iod.service")[0]
        meta = dict(s.meta)
        assert {"iod", "regions", "nbytes"} <= set(meta)

    def test_client_spans_cover_service_spans(self):
        cluster = self.run_traced()
        t = cluster.tracer
        total_client = sum(s.duration for s in t.spans_for("client.request"))
        assert total_client > 0
        # a client request includes its servers' service time plus wire time
        assert max(s.duration for s in t.spans_for("client.request")) >= max(
            s.duration for s in t.spans_for("iod.service")
        )

    def test_tracing_off_by_default_and_free(self):
        cluster = Cluster.build(
            ClusterConfig(n_clients=1, n_iods=2, stripe=StripeParams(stripe_size=128))
        )

        def wl(client):
            f = yield from client.open("/n", create=True)
            yield from f.write(0, np.zeros(100, np.uint8))
            yield from f.close()

        cluster.run_workload(wl)
        assert len(cluster.tracer) == 0

    def test_tracing_does_not_change_simulated_time(self):
        def run(trace):
            cluster = Cluster.build(
                ClusterConfig(n_clients=2, n_iods=2), trace=trace
            )

            def wl(client):
                f = yield from client.open("/same", create=True)
                yield from f.write(0, np.zeros(50_000, np.uint8))
                yield from f.close()

            return cluster.run_workload(wl).elapsed

        assert run(True) == run(False)
