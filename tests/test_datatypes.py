"""Tests for MPI-style derived datatypes (repro.datatypes)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datatypes import BYTE, Contiguous, Datatype, DatatypeError, Predefined, Resized


class TestPredefined:
    def test_sizes(self):
        assert BYTE.size == 1
        double = Predefined("DOUBLE", 8)
        assert double.size == 8
        assert double.extent == 8
        assert double.region_count == 1

    def test_flatten(self):
        r = BYTE.flatten(3, displacement=16)
        assert list(r) == [(16, 3)]  # contiguous bytes coalesce

    def test_flatten_zero(self):
        assert BYTE.flatten(0).count == 0

    def test_negative_count(self):
        with pytest.raises(DatatypeError):
            BYTE.flatten(-1)


class TestContiguous:
    def test_size_extent(self):
        t = Contiguous(Contiguous(BYTE, 4), 5)
        assert t.size == 20
        assert t.extent == 20

    def test_of_noncontiguous_base(self):
        # XX..XX with extent 6: two 2-byte blocks 4 bytes apart
        v = Resized(Contiguous(Resized(Contiguous(BYTE, 2), 4), 2), 6)
        t = Contiguous(v, 2)
        r = t.flatten()
        # instances tile at extent 6: blocks at 0,4 then 6,10 -> middle pair merges
        assert t.size == 8
        assert list(r) == [(0, 2), (4, 4), (10, 2)]


class _Indexed(Datatype):
    """A user-built indexed type: byte blocks at explicit displacements."""

    __slots__ = ("blocks", "size", "extent")

    def __init__(self, blocks):
        self.blocks = blocks
        self.size = sum(n for _, n in blocks)
        self.extent = max(d + n for d, n in blocks)

    def _typemap(self):
        off, ln = zip(*self.blocks)
        return np.array(off, np.int64), np.array(ln, np.int64)


class TestIndexed:
    def test_overlap_detected(self):
        with pytest.raises(DatatypeError):
            _Indexed([(0, 4), (2, 4)]).typemap()


class TestResized:
    def test_extent_override(self):
        t = Resized(Contiguous(BYTE, 4), 16)
        assert t.size == 4
        assert t.extent == 16
        assert list(t.flatten(2)) == [(0, 4), (16, 4)]

    def test_negative_extent(self):
        with pytest.raises(DatatypeError):
            Resized(BYTE, -1)


class TestOverlappingInstances:
    """A type whose data spans more than its extent cannot be tiled."""

    SHORT = Resized(Contiguous(BYTE, 8), 4)

    def test_flatten_refuses_overlapping_instances(self):
        assert list(self.SHORT.flatten(1)) == [(0, 8)]  # one instance is fine
        with pytest.raises(DatatypeError):
            self.SHORT.flatten(2)
        # size 16, which used to flatten to one 12-byte region
        with pytest.raises(DatatypeError):
            Contiguous(self.SHORT, 2).flatten()

    def test_file_view_refuses_overlapping_filetype(self):
        from repro.mpiio import FileView

        with pytest.raises(DatatypeError):
            FileView(filetype=self.SHORT)
        FileView(filetype=Resized(Contiguous(BYTE, 8), 8))  # tiles exactly


class TestComposition:
    def test_paper_cyclic_as_vector(self):
        from repro.patterns import one_dim_cyclic

        pattern = one_dim_cyclic(4096, 4, 8)  # block 128
        v = Contiguous(Resized(Contiguous(BYTE, 128), 512), 8)
        got = v.flatten(displacement=128)  # rank 1
        assert got == pattern.rank(1).file_regions.coalesced()


class TestDatatypeProperties:
    @given(
        st.integers(1, 6), st.integers(1, 6), st.integers(0, 10), st.integers(1, 5)
    )
    @settings(max_examples=60)
    def test_vector_size_invariant(self, count, blocklength, gap, reps):
        stride = blocklength + gap
        t = Contiguous(Resized(Contiguous(BYTE, blocklength), stride), count)
        r = t.flatten(reps)
        assert r.total_bytes == t.size * reps
        assert r.is_disjoint()
        assert r.is_sorted()

    def test_repr(self):
        assert "Resized" in repr(Resized(Contiguous(BYTE, 2), 4))
        assert "BYTE" in repr(BYTE)
