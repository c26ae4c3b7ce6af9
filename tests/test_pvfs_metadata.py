"""Direct unit tests for the manager's namespace (repro.pvfs.metadata)."""

import pytest

from repro.config import ClusterConfig, StripeParams
from repro.errors import FileExistsError_, NoSuchFileError
from repro.pvfs import Cluster
from repro.pvfs.metadata import FileMetadata, Namespace


@pytest.fixture
def ns():
    return Namespace(StripeParams(stripe_size=1024))


class TestCreate:
    def test_create_assigns_unique_ids(self, ns):
        a = ns.create("/a")
        b = ns.create("/b")
        assert a.file_id != b.file_id
        assert (ns.by_id(a.file_id), ns.by_id(b.file_id)) == (a, b)

    def test_each_cluster_numbers_its_files_from_one(self):
        # File ids (and the error text that names them) must not depend on
        # what ran earlier in the process.
        def first_id(client):
            f = yield from client.open("/x", create=True)
            return f.file_id

        for _ in range(2):
            cluster = Cluster.build(ClusterConfig(n_clients=1, n_iods=2), move_bytes=False)
            assert cluster.run_workload(first_id).client_returns == [1]

    def test_create_existing_returns_same(self, ns):
        a = ns.create("/a")
        again = ns.create("/a")
        assert again is a

    def test_exclusive_create_rejects_existing(self, ns):
        ns.create("/a")
        with pytest.raises(FileExistsError_):
            ns.create("/a", exclusive=True)

    def test_create_with_custom_stripe(self, ns):
        sp = StripeParams(stripe_size=64, pcount=2)
        meta = ns.create("/striped", stripe=sp)
        assert meta.stripe.stripe_size == 64
        assert meta.stripe.pcount == 2

    def test_create_uses_default_stripe(self, ns):
        meta = ns.create("/plain")
        assert meta.stripe.stripe_size == 1024


class TestLookup:
    def test_lookup_and_contains(self, ns):
        created = ns.create("/x")
        assert ns.lookup("/x") is created
        with pytest.raises(NoSuchFileError):
            ns.lookup("/y")

    def test_lookup_missing(self, ns):
        with pytest.raises(NoSuchFileError):
            ns.lookup("/ghost")

    def test_by_id(self, ns):
        meta = ns.create("/x")
        assert ns.by_id(meta.file_id) is meta
        with pytest.raises(NoSuchFileError):
            ns.by_id(999_999)


class TestFileMetadata:
    def test_grow_to_monotone(self):
        meta = FileMetadata(path="/m", stripe=StripeParams(), file_id=1)
        meta.grow_to(100)
        assert meta.size == 100
        meta.grow_to(50)  # shrinking is ignored
        assert meta.size == 100
        meta.grow_to(200)
        assert meta.size == 200

    def test_open_count_default(self):
        meta = FileMetadata(path="/m", stripe=StripeParams(), file_id=1)
        assert meta.open_count == 0
