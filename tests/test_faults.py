"""Fault-injection subsystem: crash/recovery, retries, determinism.

The acceptance scenario from the robustness issue: I/O daemon 0 crashes
mid-benchmark and restarts 2 simulated seconds later; the workload must
complete with byte-for-byte correct data, the retries must be visible in
the trace, and the run must report a recovery time.  With retries disabled
the same scenario must raise RetryExhausted instead of hanging.
"""

import numpy as np
import pytest

from repro.config import ClusterConfig
from repro.errors import ConfigError, RetryExhausted, ServerCrashed
from repro.faults import (
    DiskStall,
    FaultConfig,
    FaultPlan,
    IodCrash,
    LinkDown,
    PacketLoss,
    RetryPolicy,
    Straggler,
    parse_straggler_spec,
)
from repro.pvfs import Cluster
from repro.regions import RegionList
from repro.simulate import Event

CFG = ClusterConfig.chiba_city(n_clients=2, n_iods=4)

#: A survival policy generous enough to ride out a 2 s restart.
RETRY = RetryPolicy(
    request_timeout=1.0,
    max_retries=10,
    backoff_base=0.05,
    backoff_factor=2.0,
    backoff_cap=1.0,
    jitter=0.1,
)

N_BYTES = 128 * 1024


def _roundtrip(faults=FaultConfig(), trace=False, move_bytes=True, cfg=CFG):
    """Write a distinct payload per client, read it back, return it all."""
    cluster = Cluster.build(cfg.with_(faults=faults), move_bytes=move_bytes, trace=trace)
    payloads = {
        i: (np.arange(N_BYTES, dtype=np.uint8) + 7 * i) for i in range(cfg.n_clients)
    }

    def workload(client):
        f = yield from client.open(f"/f{client.index}", create=True)
        yield from f.write(0, payloads[client.index])
        back = yield from f.read(0, N_BYTES)
        yield from f.close()
        return back

    result = cluster.run_workload(workload)
    return cluster, result, payloads


def _crash_config(baseline_elapsed, restart_after=2.0, retry=RETRY):
    return FaultConfig(
        plan=FaultPlan(
            (IodCrash(iod=0, at=baseline_elapsed / 3, restart_after=restart_after),)
        ),
        retry=retry,
    )


@pytest.fixture(scope="module")
def baseline():
    cluster, result, payloads = _roundtrip()
    return result


class TestPlanValidation:
    def test_fault_records_validate(self):
        with pytest.raises(ConfigError):
            IodCrash(iod=-1, at=0.0)
        with pytest.raises(ConfigError):
            IodCrash(iod=0, at=-1.0)
        with pytest.raises(ConfigError):
            IodCrash(iod=0, at=0.0, restart_after=0.0)
        with pytest.raises(ConfigError):
            DiskStall(iod=0, at=0.0, duration=0.0)
        with pytest.raises(ConfigError):
            DiskStall(iod=0, at=0.0, duration=1.0, factor=0.5)
        with pytest.raises(ConfigError):
            LinkDown(node="", at=0.0, duration=1.0)
        with pytest.raises(ConfigError):
            PacketLoss(node="iod0", at=0.0, duration=1.0, rate=1.5)
        with pytest.raises(ConfigError):
            Straggler(iod=0, scale=0.0)

    def test_retry_policy_validates(self):
        with pytest.raises(ConfigError):
            RetryPolicy(request_timeout=0.0)
        with pytest.raises(ConfigError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigError):
            RetryPolicy(backoff_base=1.0, backoff_cap=0.5)
        with pytest.raises(ConfigError):
            RetryPolicy(jitter=1.0)
        assert not RetryPolicy().active
        assert RetryPolicy(request_timeout=1.0).active

    def test_plan_targets_checked_at_build(self):
        bad_iod = FaultConfig(plan=FaultPlan((IodCrash(iod=99, at=0.1),)))
        with pytest.raises(ConfigError):
            Cluster.build(CFG.with_(faults=bad_iod))
        bad_node = FaultConfig(plan=FaultPlan((LinkDown(node="nope", at=0.1, duration=1.0),)))
        with pytest.raises(ConfigError):
            Cluster.build(CFG.with_(faults=bad_node))
        bad_straggler = FaultConfig(plan=FaultPlan((Straggler(iod=99, scale=2.0),)))
        with pytest.raises(ConfigError):
            Cluster.build(CFG.with_(faults=bad_straggler))

    def test_parse_straggler_spec(self):
        s = parse_straggler_spec("2:8.5")
        assert s.iod == 2 and s.scale == 8.5
        for bad in ("", "2", "a:b", "1:", "1:0"):
            with pytest.raises(ConfigError):
                parse_straggler_spec(bad)

    def test_plan_helpers(self):
        plan = FaultPlan()
        assert len(plan) == 0 and plan.stragglers() == plan.scheduled() == ()
        plan = FaultPlan((Straggler(0, 2.0), IodCrash(1, at=1.0)))
        assert len(plan) == 2
        assert plan.stragglers() == (Straggler(0, 2.0),)
        assert plan.scheduled() == (IodCrash(1, at=1.0),)


class TestCrashRecovery:
    def test_crash_restart_completes_with_correct_bytes(self, baseline):
        cluster, result, payloads = _roundtrip(
            _crash_config(baseline.elapsed), trace=True
        )
        # Byte-for-byte correct despite the mid-benchmark crash.
        for i, back in enumerate(result.client_returns):
            assert np.array_equal(back, payloads[i]), f"client {i} data corrupt"
        # The crash actually happened and clients actually retried.
        counters = cluster.counters
        assert counters.get("iod.0.crashes", 0) == 1
        retries = sum(
            v for k, v in counters.items() if k.endswith(".retries")
        )
        assert retries > 0
        # The run took the restart delay on the chin.
        assert result.elapsed > baseline.elapsed + 1.0

    def test_recovery_time_reported(self, baseline):
        cluster, result, _ = _roundtrip(_crash_config(baseline.elapsed))
        iod = cluster.iods[0]
        assert cluster.counters["iod.0.crashes"] == 1
        assert iod.restarted_at is not None
        rec = cluster.fault_injector.recovery_times()
        assert rec[0] is not None
        # Recovery >= the restart delay, and within the run.
        assert 2.0 <= rec[0] <= result.elapsed
        events = [what for _t, what in cluster.fault_injector.events]
        assert events[0] == "iod0 crashed"
        assert any("restarted" in what for what in events)

    def test_retry_spans_recorded(self, baseline):
        cluster, _, _ = _roundtrip(_crash_config(baseline.elapsed), trace=True)
        cats = {s.category for s in cluster.tracer.spans}
        assert "fault.crash" in cats
        assert "client.retry_backoff" in cats

    def test_retries_disabled_raises_not_hangs(self, baseline):
        no_retry = RetryPolicy(request_timeout=0.5, max_retries=0)
        with pytest.raises(RetryExhausted) as exc_info:
            _roundtrip(_crash_config(baseline.elapsed, retry=no_retry))
        err = exc_info.value
        assert err.attempts == 1
        assert isinstance(err.last_error, ServerCrashed)

    def test_crash_without_restart_exhausts_budget(self, baseline):
        faults = FaultConfig(
            plan=FaultPlan((IodCrash(iod=0, at=baseline.elapsed / 3),)),
            retry=RetryPolicy(request_timeout=0.5, max_retries=3, backoff_base=0.01),
        )
        with pytest.raises(RetryExhausted) as exc_info:
            _roundtrip(faults)
        assert exc_info.value.attempts == 4

    def test_deliver_to_dead_daemon_refused(self):
        cluster = Cluster.build(CFG)
        iod = cluster.iods[0]
        iod.crash()
        assert not iod.alive
        req_event = Event(cluster.sim)
        from repro.pvfs.protocol import IORequest

        req = IORequest(
            kind="read",
            file_id=1,
            regions=RegionList.single(0, 64),
            client_node=cluster.clients[0].node,
            response=req_event,
        )
        iod.deliver(req)
        assert req_event.triggered and not req_event.ok
        assert isinstance(req_event.value, ServerCrashed)
        # crash/restart are idempotent.
        iod.crash()
        assert cluster.counters["iod.0.crashes"] == 1
        iod.restart()
        iod.restart()
        assert iod.alive and cluster.counters["iod.0.crashes"] == 1
        assert cluster.counters["iod.0.restarts"] == 1

    def test_restart_boots_cold_cache(self, baseline):
        cluster, _, _ = _roundtrip(_crash_config(baseline.elapsed))
        iod = cluster.iods[0]
        # The daemon came back, served requests, and kept cumulative stats.
        assert iod.alive
        assert iod.first_service_after_restart is not None
        assert iod.requests_served > 0


class TestDeterminism:
    def test_same_plan_and_seed_bit_identical(self, baseline):
        fc = _crash_config(baseline.elapsed)
        c1, r1, _ = _roundtrip(fc, trace=True)
        c2, r2, _ = _roundtrip(fc, trace=True)
        assert r1.elapsed == r2.elapsed
        assert r1.client_times == r2.client_times
        assert dict(c1.counters.items()) == dict(c2.counters.items())
        for a, b in zip(r1.client_returns, r2.client_returns):
            assert np.array_equal(a, b)
        assert len(c1.tracer.spans) == len(c2.tracer.spans)

    def test_inert_fault_config_identical_to_seed_baseline(self):
        c_plain, r_plain, _ = _roundtrip()  # default (inert) FaultConfig
        cluster = Cluster.build(CFG)  # config untouched by this PR's knobs
        assert cluster.fault_injector is None
        c_inert, r_inert, _ = _roundtrip(FaultConfig())
        assert r_inert.elapsed == r_plain.elapsed
        assert dict(c_inert.counters.items()) == dict(c_plain.counters.items())


class TestNetworkFaults:
    def test_link_down_stalls_and_counts(self, baseline):
        faults = FaultConfig(
            plan=FaultPlan(
                (LinkDown(node="iod1", at=baseline.elapsed / 4, duration=0.05),)
            ),
            retry=RETRY,
        )
        cluster, result, payloads = _roundtrip(faults)
        assert result.elapsed > baseline.elapsed
        assert cluster.counters.get("net.link_stalls", 0) >= 1
        for i, back in enumerate(result.client_returns):
            assert np.array_equal(back, payloads[i])

    def test_packet_loss_slows_deterministically(self, baseline):
        faults = FaultConfig(
            plan=FaultPlan(
                (
                    PacketLoss(
                        node="iod0",
                        at=0.0,
                        duration=max(baseline.elapsed, 0.1),
                        rate=0.2,
                    ),
                )
            ),
            retry=RETRY,
        )
        c1, r1, _ = _roundtrip(faults)
        c2, r2, _ = _roundtrip(faults)
        assert r1.elapsed == r2.elapsed  # seeded binomial draws replay
        assert r1.elapsed > baseline.elapsed
        assert c1.counters.get("net.frames_lost", 0) > 0


class TestDiskStall:
    def test_stall_window_slows_run_and_heals(self, baseline):
        faults = FaultConfig(
            plan=FaultPlan(
                (
                    DiskStall(
                        iod=0,
                        at=0.0,
                        duration=max(baseline.elapsed * 2, 0.5),
                        factor=50.0,
                    ),
                )
            ),
        )
        cluster, result, _ = _roundtrip(faults)
        assert result.elapsed > baseline.elapsed
        assert cluster.counters.get("faults.disk_stalls", 0) == 1
        # The window closed by end of simulation (run drains the heap).
        assert cluster.iods[0].disk.fault_scale == pytest.approx(1.0)


class TestStragglerConfig:
    def test_config_straggler_matches_direct_poke(self):
        faults = FaultConfig(plan=FaultPlan((Straggler(iod=1, scale=8.0),)))
        _, r_config, _ = _roundtrip(faults)

        # The pre-existing path: poke service_scale on a built cluster.
        cluster = Cluster.build(CFG, move_bytes=True)
        cluster.iods[1].service_scale = 8.0
        payloads = {
            i: (np.arange(N_BYTES, dtype=np.uint8) + 7 * i)
            for i in range(CFG.n_clients)
        }

        def workload(client):
            f = yield from client.open(f"/f{client.index}", create=True)
            yield from f.write(0, payloads[client.index])
            back = yield from f.read(0, N_BYTES)
            yield from f.close()
            return back

        r_poke = cluster.run_workload(workload)
        assert r_config.elapsed == r_poke.elapsed
        # A straggler-only plan needs no injector process.
        assert cluster.fault_injector is None

    def test_straggler_slows_run(self, baseline):
        faults = FaultConfig(plan=FaultPlan((Straggler(iod=0, scale=8.0),)))
        _, result, _ = _roundtrip(faults)
        assert result.elapsed > baseline.elapsed


class TestObsIntegration:
    def test_trace_and_report_show_fault_activity(self, baseline):
        from repro.obs import ObsSession, build_trace

        obs = ObsSession()
        cfg = CFG.with_(faults=_crash_config(baseline.elapsed))
        cluster = Cluster.build(cfg, move_bytes=True, trace=True)
        obs.attach(cluster)
        payloads = {
            i: (np.arange(N_BYTES, dtype=np.uint8) + 7 * i)
            for i in range(cfg.n_clients)
        }

        def workload(client):
            f = yield from client.open(f"/f{client.index}", create=True)
            yield from f.write(0, payloads[client.index])
            back = yield from f.read(0, N_BYTES)
            yield from f.close()
            return back

        cluster.run_workload(workload)
        run = obs.capture(cluster, label="chaos/crash")
        doc = build_trace(run)
        cats = {ev.get("cat") for ev in doc["traceEvents"]}
        assert "fault.crash" in cats
        assert "client.retry_backoff" in cats
        report = run.report()
        assert "fault.crash" in report.faults
        assert "client.retry_backoff" in report.faults
        md = report.to_markdown()
        assert "fault / retry activity" in md
        assert report.to_json()["faults"]
