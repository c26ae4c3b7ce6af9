"""Tests for instrumentation (repro.simulate.stats)."""

import pytest

from repro.simulate import Counters, Timeline


class TestCounters:
    def test_add_and_get(self):
        c = Counters()
        c.add("a.b")
        c.add("a.b", 2.5)
        assert c["a.b"] == 3.5
        assert c.get("missing", 7.0) == 7.0
        assert c["missing"] == 0.0

    def test_set_overwrites(self):
        c = Counters()
        c.add("x", 5)
        c.set("x", 1)
        assert c["x"] == 1

    def test_contains_and_iter_sorted(self):
        c = Counters()
        c.add("b")
        c.add("a")
        assert "a" in c
        assert "z" not in c
        assert list(c) == ["a", "b"]
        assert c.items() == [("a", 1.0), ("b", 1.0)]

    def test_merge_accumulates(self):
        a, b = Counters(), Counters()
        a.add("x", 1)
        b.add("x", 2)
        b.add("y", 3)
        a.merge(b)
        assert a["x"] == 3
        assert a["y"] == 3

    def test_total_prefix(self):
        c = Counters()
        c.add("iod.0.reqs", 5)
        c.add("iod.1.reqs", 7)
        c.add("iodine", 100)  # must NOT match the "iod." prefix
        assert c.total("iod") == 12

    def test_scoped_view_shares_storage(self):
        c = Counters()
        s = c.scoped("client.3")
        s.add("requests", 2)
        s.set("bytes", 10)
        assert c["client.3.requests"] == 2
        assert s["requests"] == 2
        assert s.get("bytes") == 10

    def test_repr(self):
        c = Counters()
        c.add("k")
        assert repr(c) == "Counters({'k': 1.0})"


class TestTimeline:
    def test_record_and_last(self):
        t = Timeline("queue")
        t.record(0.0, 1)
        t.record(2.0, 3)
        assert len(t) == 2
        assert t.last() == (2.0, 3)
        assert t.max_value() == 3

    def test_rejects_time_travel(self):
        t = Timeline()
        t.record(5.0, 1)
        with pytest.raises(ValueError):
            t.record(4.0, 2)

    def test_empty(self):
        t = Timeline()
        assert len(t) == 0
        assert t.max_value() == 0.0
        with pytest.raises(IndexError):
            t.last()

    def test_time_weighted_mean(self):
        t = Timeline()
        t.record(0.0, 0.0)
        t.record(1.0, 10.0)  # value 0 held for 1s
        t.record(3.0, 0.0)  # value 10 held for 2s
        assert t.time_weighted_mean() == pytest.approx((0 * 1 + 10 * 2) / 3)

    def test_time_weighted_mean_single_sample(self):
        t = Timeline()
        t.record(1.0, 4.0)
        assert t.time_weighted_mean() == 4.0

    def test_time_weighted_mean_zero_span(self):
        t = Timeline()
        t.record(1.0, 4.0)
        t.record(1.0, 6.0)
        assert t.time_weighted_mean() == 6.0

    def test_time_weighted_mean_empty(self):
        assert Timeline().time_weighted_mean() == 0.0


class TestTimelineIntegrate:
    def timeline(self):
        t = Timeline("depth")
        t.record(1.0, 2.0)  # value 2 on [1, 3)
        t.record(3.0, 4.0)  # value 4 on [3, inf)
        return t

    def test_integrate_full_window(self):
        t = self.timeline()
        # [1,3): 2*2 = 4; [3,5): 4*2 = 8
        assert t.integrate(1.0, 5.0) == pytest.approx(12.0)

    def test_integrate_clips_to_window(self):
        t = self.timeline()
        # [2,3): 2*1; [3,4): 4*1
        assert t.integrate(2.0, 4.0) == pytest.approx(6.0)

    def test_integrate_before_first_sample_uses_initial(self):
        t = self.timeline()
        # [0,1): initial 7; [1,3): 2*2
        assert t.integrate(0.0, 3.0, initial=7.0) == pytest.approx(11.0)
        # default initial is 0
        assert t.integrate(0.0, 3.0) == pytest.approx(4.0)

    def test_integrate_window_entirely_before_samples(self):
        t = self.timeline()
        assert t.integrate(0.0, 0.5, initial=3.0) == pytest.approx(1.5)

    def test_integrate_last_value_persists(self):
        t = self.timeline()
        assert t.integrate(10.0, 12.0) == pytest.approx(8.0)

    def test_integrate_empty_timeline(self):
        t = Timeline()
        assert t.integrate(0.0, 4.0) == 0.0
        assert t.integrate(0.0, 4.0, initial=2.5) == pytest.approx(10.0)

    def test_integrate_reversed_window_raises(self):
        with pytest.raises(ValueError):
            self.timeline().integrate(5.0, 1.0)

    def test_mean_over(self):
        t = self.timeline()
        assert t.mean_over(1.0, 5.0) == pytest.approx(3.0)
        assert t.mean_over(10.0, 12.0) == pytest.approx(4.0)

    def test_mean_over_degenerate_window(self):
        t = self.timeline()
        assert t.mean_over(2.0, 2.0) == 0.0
        assert t.mean_over(3.0, 2.0) == 0.0
