"""Tests for the MPI-IO layer: views, independent I/O, two-phase collectives."""

import numpy as np
import pytest

from repro.config import ClusterConfig, StripeParams
from repro.datatypes import BYTE, Contiguous, Resized
from repro.mpi import Communicator
from repro.mpiio import FileView, open_one
from repro.pvfs import Cluster
from repro.regions import RegionList


def make_cluster(n_clients=2, **kw) -> Cluster:
    kw.setdefault("n_iods", 4)
    kw.setdefault("stripe", StripeParams(stripe_size=128))
    return Cluster.build(ClusterConfig(n_clients=n_clients, **kw))


class TestFileView:
    def test_default_view_is_raw_bytes(self):
        v = FileView()
        assert list(v.regions_for(10, 5)) == [(10, 5)]

    def test_displacement_shifts(self):
        v = FileView(disp=100)
        assert list(v.regions_for(0, 4)) == [(100, 4)]

    def test_vector_filetype(self):
        # see 2 bytes of every 8
        v = FileView(filetype=Resized(Contiguous(BYTE, 2), 8))
        assert list(v.regions_for(0, 6)) == [(0, 2), (8, 2), (16, 2)]

    def test_partial_instance_reads(self):
        v = FileView(filetype=Resized(Contiguous(BYTE, 4), 16))
        assert list(v.regions_for(2, 4)) == [(2, 2), (16, 2)]

    def test_zero_bytes(self):
        assert FileView().regions_for(5, 0).count == 0


class TestIndependentIO:
    def test_read_write_roundtrip_with_view(self):
        cluster = make_cluster(n_clients=2)
        comm = Communicator(cluster.sim, 2)
        # interleaved views: rank r sees bytes r*4 .. r*4+4 of every 8
        payloads = [np.full(64, r + 1, np.uint8) for r in range(2)]
        outs = [None, None]

        def body(client):
            r = client.index
            mf = yield from open_one(comm, client, "/v")
            mf.set_view(
                disp=r * 4, filetype=Resized(Contiguous(BYTE, 4), 8)
            )
            yield from mf.write_at(0, payloads[r])
            outs[r] = yield from mf.read_at(0, 64)
            yield from mf.close()

        cluster.run_workload(body)
        for r in range(2):
            np.testing.assert_array_equal(outs[r], payloads[r])

    def test_views_interleave_in_file(self):
        cluster = make_cluster(n_clients=2)
        comm = Communicator(cluster.sim, 2)

        def body(client):
            r = client.index
            mf = yield from open_one(comm, client, "/i")
            mf.set_view(disp=r * 2, filetype=Resized(Contiguous(BYTE, 2), 4))
            yield from mf.write_at(0, np.full(8, r + 1, np.uint8))
            yield from mf.close()

        cluster.run_workload(body)

        def check(client):
            f = yield from client.open("/i")
            data = yield from f.read(0, 16)
            yield from f.close()
            return data

        data = cluster.run_workload(check, clients=[0]).client_returns[0]
        np.testing.assert_array_equal(
            data, np.array([1, 1, 2, 2] * 4, np.uint8)
        )


class TestCollectiveWrite:
    def _roundtrip(self, n_ranks, stride_elems=None):
        """Each rank writes its interleaved slice collectively; verify the
        assembled file."""
        cluster = make_cluster(n_clients=n_ranks)
        comm = Communicator(cluster.sim, n_ranks)
        piece = 8
        reps = 16

        def body(client):
            r = client.index
            mf = yield from open_one(comm, client, "/coll")
            mf.set_view(
                disp=r * piece,
                filetype=Resized(Contiguous(BYTE, piece), piece * n_ranks),
            )
            payload = np.full(piece * reps, r + 1, np.uint8)
            yield from mf.write_at_all(0, payload)
            yield from mf.close()

        cluster.run_workload(body)

        def check(client):
            f = yield from client.open("/coll")
            data = yield from f.read(0, piece * n_ranks * reps)
            yield from f.close()
            return data

        data = cluster.run_workload(check, clients=[0]).client_returns[0]
        expect = np.tile(
            np.repeat(np.arange(1, n_ranks + 1, dtype=np.uint8), piece), reps
        )
        np.testing.assert_array_equal(data, expect)

    def test_two_ranks(self):
        self._roundtrip(2)

    def test_four_ranks(self):
        self._roundtrip(4)

    def test_collective_write_coalesces_requests(self):
        """The whole point of two-phase: interleaved tiny writes become one
        streaming request per aggregator."""
        n_ranks, piece, reps = 4, 8, 1024

        def run(collective):
            cluster = make_cluster(n_clients=n_ranks)
            comm = Communicator(cluster.sim, n_ranks)

            def wl(client):
                r = client.index
                mf = yield from open_one(comm, client, "/c2")
                mf.set_view(
                    disp=r * piece,
                    filetype=Resized(Contiguous(BYTE, piece), piece * n_ranks),
                )
                payload = np.zeros(piece * reps, np.uint8)
                if collective:
                    yield from mf.write_at_all(0, payload)
                else:
                    yield from mf.write_at(0, payload)
                yield from mf.close()

            res = cluster.run_workload(wl)
            return res, cluster

        res_ind, cl_ind = run(collective=False)
        res_coll, cl_coll = run(collective=True)
        # independent: every rank writes `reps` interleaved pieces
        # collective: each aggregator writes one contiguous domain
        assert res_coll.total_logical_requests < res_ind.total_logical_requests
        assert res_coll.elapsed < res_ind.elapsed

    @pytest.mark.parametrize("cb_nodes", [1, 2, 4])
    def test_cb_nodes_roundtrip(self, cb_nodes):
        """Any aggregator count must produce the same file contents."""
        n_ranks, piece, reps = 4, 8, 8
        cluster = make_cluster(n_clients=n_ranks)
        comm = Communicator(cluster.sim, n_ranks)

        def wl(client):
            r = client.index
            mf = yield from open_one(
                comm, client, "/cb", cb_nodes=cb_nodes
            )
            mf.set_view(
                disp=r * piece,
                filetype=Resized(Contiguous(BYTE, piece), piece * n_ranks),
            )
            yield from mf.write_at_all(0, np.full(piece * reps, r + 1, np.uint8))
            yield from mf.close()

        cluster.run_workload(wl)

        def check(client):
            f = yield from client.open("/cb")
            data = yield from f.read(0, piece * n_ranks * reps)
            yield from f.close()
            return data

        data = cluster.run_workload(check, clients=[0]).client_returns[0]
        expect = np.tile(
            np.repeat(np.arange(1, n_ranks + 1, dtype=np.uint8), piece), reps
        )
        np.testing.assert_array_equal(data, expect)

    def test_cb_nodes_validated(self):
        cluster = make_cluster(n_clients=2)
        comm = Communicator(cluster.sim, 2)

        def wl(client):
            try:
                yield from open_one(comm, client, "/bad", cb_nodes=5)
            except Exception as e:
                return type(e).__name__

        res = cluster.run_workload(wl)
        assert res.client_returns == ["MPIIOError", "MPIIOError"]

    def test_rank_with_empty_contribution(self):
        cluster = make_cluster(n_clients=2)
        comm = Communicator(cluster.sim, 2)

        def wl(client):
            mf = yield from open_one(comm, client, "/e")
            if client.index == 0:
                yield from mf.write_at_all(0, np.full(32, 7, np.uint8))
            else:
                yield from mf.write_at_all(0, None, nbytes=0)
            yield from mf.close()

        cluster.run_workload(wl)

        def check(client):
            f = yield from client.open("/e")
            data = yield from f.read(0, 32)
            yield from f.close()
            return data

        data = cluster.run_workload(check, clients=[0]).client_returns[0]
        assert (data == 7).all()


class TestCollectiveRead:
    def test_roundtrip(self):
        n_ranks, piece, reps = 4, 8, 16
        cluster = make_cluster(n_clients=n_ranks)
        comm = Communicator(cluster.sim, n_ranks)
        total = piece * n_ranks * reps
        frame = (np.arange(total) % 241).astype(np.uint8)

        def prefill(client):
            f = yield from client.open("/cr", create=True)
            yield from f.write(0, frame)
            yield from f.close()

        cluster.run_workload(prefill, clients=[0])
        outs = [None] * n_ranks

        def wl(client):
            r = client.index
            mf = yield from open_one(comm, client, "/cr")
            mf.set_view(
                disp=r * piece,
                filetype=Resized(Contiguous(BYTE, piece), piece * n_ranks),
            )
            outs[r] = yield from mf.read_at_all(0, piece * reps)
            yield from mf.close()

        cluster.run_workload(wl)
        for r in range(n_ranks):
            idx = np.concatenate(
                [
                    np.arange(piece) + (k * n_ranks + r) * piece
                    for k in range(reps)
                ]
            )
            np.testing.assert_array_equal(outs[r], frame[idx])

    def test_collective_read_matches_independent(self):
        cluster = make_cluster(n_clients=2)
        comm = Communicator(cluster.sim, 2)
        frame = (np.arange(256) % 199).astype(np.uint8)

        def prefill(client):
            f = yield from client.open("/cmp", create=True)
            yield from f.write(0, frame)
            yield from f.close()

        cluster.run_workload(prefill, clients=[0])
        results = {}

        def wl(client):
            r = client.index
            mf = yield from open_one(comm, client, "/cmp")
            mf.set_view(disp=r * 4, filetype=Resized(Contiguous(BYTE, 4), 8))
            a = yield from mf.read_at(0, 64)
            b = yield from mf.read_at_all(0, 64)
            results[r] = (a, b)
            yield from mf.close()

        cluster.run_workload(wl)
        for r, (a, b) in results.items():
            np.testing.assert_array_equal(a, b)


class TestViewProperties:
    """Property-based check: the view mapping equals brute-force stream
    enumeration."""

    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(
        st.integers(1, 6),   # blocklen (bytes of data per filetype)
        st.integers(0, 8),   # gap after the data
        st.integers(0, 40),  # disp
        st.integers(0, 30),  # offset (stream bytes)
        st.integers(0, 40),  # nbytes
    )
    @settings(max_examples=80, deadline=None)
    def test_regions_match_bruteforce(self, blocklen, gap, disp, offset, nbytes):
        import numpy as np

        from repro.regions import build_flat_indices

        ft = Resized(Contiguous(BYTE, blocklen), blocklen + gap)
        v = FileView(disp=disp, filetype=ft)
        regions = v.regions_for(offset, nbytes)
        got = build_flat_indices(regions.offsets, regions.lengths)
        # brute force: enumerate visible bytes one filetype instance at a time
        visible = []
        inst = 0
        while len(visible) < offset + nbytes:
            base = disp + inst * (blocklen + gap)
            visible.extend(range(base, base + blocklen))
            inst += 1
        expect = np.array(visible[offset : offset + nbytes], dtype=np.int64)
        np.testing.assert_array_equal(got, expect)


class TestErrors:
    def test_double_entry_detected(self):
        cluster = make_cluster(n_clients=2)
        from repro.mpiio.twophase import Exchange

        ex = Exchange(cluster.sim, 2)
        ex.deposit_meta(0, RegionList.single(0, 4))
        with pytest.raises(Exception):
            ex.deposit_meta(0, RegionList.single(0, 4))

    def test_repr(self):
        cluster = make_cluster(n_clients=1)
        comm = Communicator(cluster.sim, 1)

        def wl(client):
            mf = yield from open_one(comm, client, "/r")
            yield from mf.close()
            return repr(mf)

        out = cluster.run_workload(wl).client_returns[0]
        assert "MPIFile" in out
