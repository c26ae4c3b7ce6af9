"""Striped replication: chain placement, fencing, failover, resync.

Covers the replication extension end to end: ``replica_chain`` placement
properties (hypothesis), read failover with byte-identity against the
no-fault oracle, the ``replicas=1`` regression (the paper's layout still
hangs when a daemon dies), zombie fencing via epoch tokens, the dirty-range
resync protocol, quorum acks, and ``--jobs`` bit-identity of the chaos
failover scenario.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.config import ClusterConfig, StripeParams
from repro.errors import ConfigError, RetryExhausted, ServerFenced
from repro.faults import FaultConfig, FaultPlan, IodCrash, RetryPolicy
from repro.pvfs import Cluster, replica_chain
from repro.pvfs.protocol import IORequest
from repro.regions import RegionList
from repro.simulate import Event


def _policy() -> RetryPolicy:
    return RetryPolicy(
        request_timeout=1.0,
        max_retries=2,
        backoff_base=0.01,
        backoff_factor=2.0,
        backoff_cap=0.05,
        jitter=0.0,
    )


def _cluster(replicas=2, ack="primary", n_clients=1, plan=None, move=True):
    cfg = ClusterConfig.chiba_city(n_clients=n_clients)
    cfg = cfg.with_(
        stripe=replace(cfg.stripe, replicas=replicas),
        ack_policy=ack,
        faults=FaultConfig(
            plan=plan if plan is not None else FaultPlan(), retry=_policy()
        ),
    )
    return Cluster.build(cfg, move_bytes=move)


def _wait_until(sim, t):
    if t > sim.now:
        yield sim.timeout(t - sim.now)


def _bytes(n, mult=131, add=17):
    return ((np.arange(n, dtype=np.int64) * mult + add) % 256).astype(np.uint8)


# ---------------------------------------------------------------------------
# Placement
# ---------------------------------------------------------------------------
class TestReplicaChain:
    @given(
        primary=st.integers(0, 63),
        replicas=st.integers(1, 16),
        n_iods=st.integers(1, 64),
    )
    def test_chain_never_colocates_copies(self, primary, replicas, n_iods):
        if replicas > n_iods or primary >= n_iods:
            return
        chain = replica_chain(primary, replicas, n_iods)
        assert len(chain) == replicas
        assert len(set(chain)) == replicas  # all copies on distinct daemons
        assert chain[0] == primary
        assert all(0 <= m < n_iods for m in chain)

    def test_rejects_impossible_chains(self):
        with pytest.raises(ConfigError):
            replica_chain(0, 9, 8)
        with pytest.raises(ConfigError):
            replica_chain(0, 0, 8)

    def test_config_validates_replicas(self):
        with pytest.raises(ConfigError):
            ClusterConfig.chiba_city().with_(
                stripe=StripeParams(replicas=9), n_iods=8
            )
        with pytest.raises(ConfigError):
            StripeParams(replicas=0)
        with pytest.raises(ConfigError):
            ClusterConfig.chiba_city().with_(ack_policy="nope")


# ---------------------------------------------------------------------------
# Read failover
# ---------------------------------------------------------------------------
class TestReadFailover:
    N = 1 << 20

    def _workload(self, data):
        def wl(client):
            f = yield from client.open("/t", create=True)
            if client.index == 0:
                yield from f.write(0, data)
            yield from _wait_until(client.sim, 0.5)
            out = yield from f.read(0, data.size)
            yield from f.close()
            return out

        return wl

    def test_reads_survive_crash_byte_identical(self):
        data = _bytes(self.N)
        plan = FaultPlan((IodCrash(iod=1, at=0.05, restart_after=5.0),))
        cluster = _cluster(replicas=2, n_clients=2, plan=plan)
        res = cluster.run_workload(self._workload(data))
        # Oracle: the exact same run without the fault.
        oracle = _cluster(replicas=2, n_clients=2)
        ores = oracle.run_workload(self._workload(data))
        for out, expect in zip(res.client_returns, ores.client_returns):
            assert np.array_equal(out, data)
            assert np.array_equal(out, expect)
        counters = cluster.counters
        assert counters.get("faults.fences", 0) == 1
        assert counters.get("faults.rejoins", 0) == 1
        failovers = sum(
            v for k, v in counters.items() if k.endswith(".failovers")
        )
        exhausted = sum(
            v for k, v in counters.items() if k.endswith(".retries_exhausted")
        )
        assert failovers > 0
        assert exhausted > 0
        assert oracle.counters.get("faults.fences", 0) == 0

    def test_report_covers_every_fault_lane_category(self):
        # The bottleneck report's fault table covers every category the
        # trace draws on "faults" lanes, fence/resync/failover included.
        from repro.obs import ObsSession, build_trace

        plan = FaultPlan((IodCrash(iod=1, at=0.05, restart_after=5.0),))
        cluster = _cluster(replicas=2, n_clients=2, plan=plan)
        obs = ObsSession()
        obs.attach(cluster)
        cluster.run_workload(self._workload(_bytes(self.N)))
        run = obs.capture(cluster)
        events = build_trace(run)["traceEvents"]
        fault_lanes = {
            (e["pid"], e["tid"])
            for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
            and e["args"]["name"] == "faults"
        }
        on_lanes = {
            e["cat"]
            for e in events
            if e["ph"] == "X" and (e["pid"], e["tid"]) in fault_lanes
        }
        assert {"fault.fence", "fault.resync", "client.failover"} <= on_lanes
        assert on_lanes <= set(run.report().faults)

    def test_replicas_one_still_dies(self):
        # The guarded regression: the paper's unreplicated layout cannot
        # survive a daemon crash — the read exhausts its retry budget.
        data = _bytes(self.N)
        plan = FaultPlan((IodCrash(iod=1, at=0.05, restart_after=60.0),))
        cluster = _cluster(replicas=1, n_clients=2, plan=plan)
        with pytest.raises(RetryExhausted):
            cluster.run_workload(self._workload(data))

    def test_replicated_layout_untouched_without_faults(self):
        # replicas=2 with no faults reads back exactly what was written.
        data = _bytes(self.N, mult=137, add=5)
        cluster = _cluster(replicas=2, n_clients=2)
        res = cluster.run_workload(self._workload(data))
        for out in res.client_returns:
            assert np.array_equal(out, data)
        assert cluster.counters.get("faults.fences", 0) == 0

    def test_described_requests_fail_over_byte_identical(self):
        # VectorIO sends each strided transfer as one datatype-described
        # request; the read after iod0's crash times out on its slice and
        # fails over to the replica.
        from repro.core import VectorIO

        retry = RetryPolicy(
            request_timeout=0.5, max_retries=2, backoff_base=0.01, backoff_cap=0.05
        )
        plan = FaultPlan((IodCrash(iod=0, at=0.5),))
        cluster = Cluster.build(
            ClusterConfig(
                n_clients=1,
                n_iods=4,
                stripe=StripeParams(stripe_size=4096, replicas=2),
                faults=FaultConfig(plan=plan, retry=retry),
            )
        )
        fil = RegionList.strided(100, 64, 300, 1000)
        mem = RegionList.single(0, fil.total_bytes)
        data = _bytes(fil.total_bytes)
        out = np.zeros_like(data)

        def wl(client):
            f = yield from client.open("/v", create=True)
            yield from VectorIO().write(f, data, mem, fil)
            yield client.sim.timeout(1.0)
            yield from VectorIO().read(f, out, mem, fil)
            yield from f.close()

        cluster.run_workload(wl)
        assert np.array_equal(out, data)
        assert cluster.counters["client.0.failovers"] == 1
        assert cluster.counters["client.0.logical_requests"] == 2


# ---------------------------------------------------------------------------
# Fencing
# ---------------------------------------------------------------------------
class TestFencing:
    def test_fencing_kills_alive_zombie(self):
        cluster = _cluster(replicas=2)
        iod = cluster.iods[1]
        assert iod.alive
        iod.fence(epoch=5)
        # STONITH: an alive daemon the manager declared dead is killed so
        # it can never produce acks the new epoch would have to distrust.
        assert not iod.alive
        assert iod.fenced and iod.fence_epoch == 5

    def test_fenced_daemon_refuses_with_epoch(self):
        cluster = _cluster(replicas=2)
        iod = cluster.iods[1]
        iod.fence(epoch=3)
        iod.restart()  # zombie reboot: restarts *fenced*, refusing service
        assert iod.alive and iod.fenced
        req = IORequest(
            kind="read",
            file_id=1,
            regions=RegionList.single(0, 16),
            client_node=cluster.clients[0].node,
            response=Event(cluster.sim),
        )
        iod.deliver(req)
        assert req.response.triggered and not req.response.ok
        exc = req.response.value
        assert isinstance(exc, ServerFenced)
        assert exc.epoch == 3

    def test_fence_epochs_are_monotonic(self):
        cluster = _cluster(replicas=2)
        state = cluster.replication
        assert state.fence(1, now=0.1) == 1
        assert state.fence(1, now=0.2) is None  # first report wins
        assert state.fence(2, now=0.3) == 2
        assert state.fenced_servers() == (1, 2)
        state.unfence(1, now=0.4)
        assert state.fenced_servers() == (2,)
        assert state.fence(1, now=0.5) == 3  # re-fence gets a fresh epoch


# ---------------------------------------------------------------------------
# Resync
# ---------------------------------------------------------------------------
class TestResync:
    def test_restarted_daemon_resyncs_dirty_writes(self):
        # iod1 misses a rewrite while down, resyncs it from live chain
        # members on restart, and later serves it when iod0 (the primary
        # of stripe 0) dies — proving the copied bytes are the new ones.
        n_iods = 8
        stripe = 64 * 1024
        N = n_iods * stripe
        v1 = _bytes(N)
        v2 = _bytes(N, mult=151, add=29)
        plan = FaultPlan(
            (
                IodCrash(iod=1, at=0.3, restart_after=1.0),
                IodCrash(iod=0, at=3.0, restart_after=60.0),
            )
        )
        cluster = _cluster(replicas=2, plan=plan)
        sim = cluster.sim

        def wl(client):
            f = yield from client.open("/t", create=True)
            yield from f.write(0, v1)  # healthy, fully replicated
            yield from _wait_until(sim, 0.5)  # iod1 died at 0.3
            yield from f.write(0, v2)  # iod1's copies go dirty
            yield from _wait_until(sim, 2.5)  # iod1 restarted + resynced
            yield from _wait_until(sim, 3.5)  # iod0 died at 3.0
            out = yield from f.read(0, N)  # stripe 0 must come from iod1
            yield from f.close()
            return out

        res = cluster.run_workload(wl)
        assert np.array_equal(res.client_returns[0], v2)
        counters = cluster.counters
        assert counters.get("iod.1.resyncs", 0) == 1
        assert counters.get("iod.1.resync_bytes", 0) > 0
        # iod1 rejoins after its resync; iod0's delayed restart fires in
        # the end-of-run queue drain and rejoins as well.
        assert counters.get("faults.rejoins", 0) == 2
        assert counters.get("faults.fences", 0) == 2  # iod1, then iod0
        assert cluster.replication.dirty_bytes(1) == 0

    def test_write_racing_resync_is_copied_before_rejoin(self):
        # The rejoin race: a write that lands while the resync is already
        # running appends to the live dirty list — the daemon must copy it
        # too (and the manager must refuse a rejoin while anything is
        # dirty) before it is unfenced, or later failover reads would
        # serve stale bytes.
        n_iods = 8
        stripe = 64 * 1024
        N = n_iods * stripe
        v1 = _bytes(N)
        v2 = _bytes(N, mult=151, add=29)
        v3 = _bytes(4096, mult=157, add=41)  # racing write, stripe 0 only
        plan = FaultPlan(
            (
                IodCrash(iod=1, at=0.3, restart_after=1.0),
                IodCrash(iod=0, at=6.0, restart_after=60.0),
            )
        )
        cluster = _cluster(replicas=2, plan=plan)
        sim = cluster.sim
        state = cluster.replication
        fenced_at_race = []

        def wl(client):
            f = yield from client.open("/t", create=True)
            yield from f.write(0, v1)  # healthy, fully replicated
            yield from _wait_until(sim, 0.5)  # iod1 died at 0.3
            yield from f.write(0, v2)  # iod1's copies go dirty
            yield from _wait_until(sim, 1.3001)  # iod1 restarted; resync live
            fenced_at_race.append(state.is_fenced(1))
            t_race = sim.now
            yield from f.write(0, v3)  # races the in-flight resync
            yield from _wait_until(sim, 6.5)  # iod0 died at 6.0
            out = yield from f.read(0, N)  # stripe 0 must come from iod1
            yield from f.close()
            return out, t_race

        res = cluster.run_workload(wl)
        out, t_race = res.client_returns[0]
        # The race actually happened: iod1 was still fenced (mid-resync)
        # when the v3 write was issued.
        assert fenced_at_race == [True]
        expect = v2.copy()
        expect[: v3.size] = v3
        assert np.array_equal(out, expect)
        assert state.dirty_bytes(1) == 0
        # iod1 only rejoined after the racing write was issued.
        t_unfence = [t for (t, iod, _e) in state.unfences if iod == 1]
        assert t_unfence and t_unfence[0] >= t_race

    def test_manager_refuses_rejoin_while_dirty(self):
        # Defense in depth: even a buggy/racing rejoin request must not
        # readmit a replica that still has recorded dirty ranges.
        cluster = _cluster(replicas=2)
        state = cluster.replication
        epoch = state.fence(1, now=0.0)
        cluster.iods[1].fence(epoch)
        state.mark_dirty(1, 7, 0, (0, 1), RegionList.single(0, 64))
        view = cluster.manager._rejoin(1)
        assert 1 in view.fenced
        assert state.is_fenced(1)
        assert cluster.iods[1].fenced
        assert cluster.counters.get("faults.rejoins_refused", 0) == 1
        assert cluster.counters.get("faults.rejoins", 0) == 0
        # Once the dirty list drains, the same request is accepted.
        state.dirty_for(1).clear()
        view = cluster.manager._rejoin(1)
        assert 1 not in view.fenced
        assert not state.is_fenced(1)
        assert cluster.counters.get("faults.rejoins", 0) == 1

    def test_quorum_ack_tolerates_minority_loss(self):
        plan = FaultPlan((IodCrash(iod=1, at=0.05, restart_after=60.0),))
        cluster = _cluster(replicas=3, ack="quorum", plan=plan)
        N = 1 << 18
        data = _bytes(N, mult=149, add=3)

        def wl(client):
            f = yield from client.open("/t", create=True)
            yield from _wait_until(client.sim, 0.1)  # iod1 already dead
            yield from f.write(0, data)  # chains touching iod1 lose 1 of 3
            out = yield from f.read(0, N)
            yield from f.close()
            return out

        res = cluster.run_workload(wl)
        assert np.array_equal(res.client_returns[0], data)
        assert cluster.counters.get("faults.fences", 0) == 1


# ---------------------------------------------------------------------------
# Ack policies
# ---------------------------------------------------------------------------
class TestAckPolicies:
    def test_quorum_requires_chain_majority(self):
        # Quorum is a strict majority of the *chain*, not of whoever is
        # live: with 2 of 3 members gone a single ack must not satisfy it.
        plan = FaultPlan(
            (
                IodCrash(iod=1, at=0.05, restart_after=60.0),
                IodCrash(iod=2, at=0.05, restart_after=60.0),
            )
        )
        cluster = _cluster(replicas=3, ack="quorum", plan=plan)
        data = _bytes(4096)
        errors = []

        def wl(client):
            f = yield from client.open("/t", create=True)
            yield from _wait_until(client.sim, 0.1)  # iod1, iod2 dead
            # First write discovers the losses (members fail + get fenced):
            # 1 ack of a needed 2 -> no quorum.
            try:
                yield from f.write(0, data)
            except RetryExhausted as exc:
                errors.append(exc)
            # Second write sees both members already fenced and must fail
            # up front instead of degrading to a 1-ack "quorum".
            try:
                yield from f.write(0, data)
            except RetryExhausted as exc:
                errors.append(exc)

        cluster.run_workload(wl)
        assert len(errors) == 2
        assert cluster.counters.get("faults.fences", 0) == 2

    def test_primary_ack_counts_completion_order(self):
        # A slow-failing first chain member (straggler burning the full
        # retry/timeout budget) must not delay the ack a healthy replica
        # produced immediately: acks race in completion order.
        cluster = _cluster(replicas=2)
        sim = cluster.sim
        durations = []

        def wl(client):
            # iod0 accepts requests but never finishes serving them, so
            # writes to it fail only after the full timeout budget (~3 s).
            client.cluster.iods[0].service_scale = 1e9
            f = yield from client.open("/t", create=True)
            t0 = sim.now
            yield from f.write(0, _bytes(4096))  # chain (0, 1)
            durations.append(sim.now - t0)
            yield from f.close()

        cluster.run_workload(wl)
        # Old chain-order join: > 3 s (iod0's budget). Completion-order
        # race: the ack arrives as soon as iod1 commits.
        assert durations and durations[0] < 1.0
        assert cluster.counters.get("faults.fences", 0) == 1

    def test_primary_ack_replica_keeps_its_own_payload(self):
        # The replica write is still in flight when write() returns, so the
        # payload it carries must be a copy: the caller may reuse its buffer
        # at once.
        cluster = _cluster(replicas=2)
        cluster.iods[1].service_scale = 50.0  # the replica lands well after the ack
        original = _bytes(4096)
        seen = {}

        def wl(client):
            buf = original.copy()
            f = yield from client.open("/t", create=True)
            yield from f.write(0, buf)  # chain (0, 1)
            buf[:] = 0
            seen["pending"] = [p for p in client._pending_replica if not p.triggered]
            seen["file_id"] = f.file_id
            yield from f.close()

        cluster.run_workload(wl)
        assert seen["pending"]
        fid = seen["file_id"]
        region = RegionList.single(0, 4096)
        np.testing.assert_array_equal(cluster.iods[0].store.read(fid, region), original)
        np.testing.assert_array_equal(
            cluster.iods[1].store.read((fid, 0), region), original
        )


# ---------------------------------------------------------------------------
# Chaos scenario + determinism
# ---------------------------------------------------------------------------
class TestFailoverScenario:
    def test_scenario_completes_with_zero_data_errors(self):
        from repro.experiments.chaos import run_scenario
        from repro.experiments.presets import SMOKE

        row = run_scenario("failover-read", scale=SMOKE, replicas=2)
        assert row.data_errors == 0
        assert row.failovers > 0
        assert row.retries_exhausted > 0
        assert row.crashes == 1
        assert row.failover_s is not None and row.failover_s > 0
        assert row.degraded_s is not None and row.degraded_s > 0
        assert row.degraded_goodput_mb_s is not None
        assert row.degraded_goodput_mb_s > 0
        assert row.resyncs == 1

    def test_scenario_replicas_one_raises(self):
        from repro.experiments.chaos import run_scenario
        from repro.experiments.presets import SMOKE

        with pytest.raises(RetryExhausted):
            run_scenario("failover-read", scale=SMOKE, replicas=1)

    def test_error_names_the_same_request_every_run(self):
        # Request ids are numbered per cluster, so a repeated run (or the
        # same run in a sweep worker) names the same request in its error.
        from repro.experiments.chaos import run_failover_scenario

        messages = []
        for _ in range(2):
            with pytest.raises(RetryExhausted) as exc:
                run_failover_scenario(replicas=1)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]

    def test_one_fault_free_run_sizes_the_policy(self, monkeypatch):
        # Two clusters: the fault-free baseline, under a deadline no
        # attempt reaches, and the faulty run.  The baseline's read phase
        # is, bit for bit, that of a fault-free run under the sized policy.
        import math

        from repro.experiments import chaos
        from repro.experiments.presets import SMOKE

        configs = []
        init = Cluster.__init__

        def counting_init(self, config, *args, **kwargs):
            configs.append(config)
            init(self, config, *args, **kwargs)

        monkeypatch.setattr(Cluster, "__init__", counting_init)
        row = chaos.run_failover_scenario(scale=SMOKE, replicas=2)
        assert len(configs) == 2
        baseline, faulty = configs
        assert baseline.faults.retry.request_timeout == math.inf
        assert not baseline.faults.plan.scheduled()
        sized = faulty.faults.retry
        assert sized == replace(
            baseline.faults.retry, request_timeout=sized.request_timeout
        )
        pattern, _kind = chaos._pattern("artificial", SMOKE)
        sized_cfg = baseline.with_(faults=FaultConfig(retry=sized))
        with Cluster.build(sized_cfg, move_bytes=True) as cluster:
            pre_s, read_s, errors = chaos._run_failover(cluster, pattern)
        assert errors == 0
        assert row.baseline_s == read_s
        assert sized.request_timeout == max(0.5, 2 * pre_s, 2 * read_s)
        assert faulty.faults.plan.faults[0].at == pre_s + read_s / 3

    def test_jobs_bit_identity(self):
        from repro.experiments.presets import SMOKE
        from repro.sweep import ChaosSpec, run_sweep

        specs = [
            ChaosSpec(
                scenario="failover-read",
                benchmark="artificial",
                scale=SMOKE,
                restart_after=2.0,
                replicas=2,
                ack="primary",
            )
        ]
        serial, _ = run_sweep(specs, jobs=1, cache=None, label="repl-serial")
        parallel, _ = run_sweep(specs, jobs=4, cache=None, label="repl-par")
        a, b = serial[0], parallel[0]
        for field in (
            "baseline_s",
            "faulty_s",
            "data_errors",
            "failovers",
            "retries_exhausted",
            "failover_s",
            "degraded_s",
            "degraded_goodput_mb_s",
            "resyncs",
            "resync_bytes",
            "moved_bytes",
            "logical_requests",
            "server_messages",
            "sim_events",
        ):
            assert getattr(a, field) == getattr(b, field), field
