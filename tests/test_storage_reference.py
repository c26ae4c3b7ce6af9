"""The run-priced disk model against the block-at-a-time reference.

:mod:`tests.storage_reference` is the ``OrderedDict`` LRU and the
``coalesced()``-driven disk model that :mod:`repro.storage` replaced.  Every
test here drives both with the same operations and requires the same
answers: the returned times (exact floats), the cache statistics, the
resident and dirty block counts, residency of every block touched, the
media counters and the positioning count.  No benchmark workload evicts a
block, so these tests and the 10,000-eviction case in
``test_storage_disk.py`` are what pin the eviction order.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, DiskConfig
from repro.regions import RegionList
from repro.storage import Disk
from repro.units import KiB

from .storage_reference import Disk as ReferenceDisk

BS = 4 * KiB
#: Store keys as the I/O daemons use them: a file id, or (file id, primary)
#: for a replica's copy.
FILES = ("a", ("a", 1), 7)


def disk_pair(capacity_blocks: int, readahead_blocks: int):
    cfg = CacheConfig(
        capacity=capacity_blocks * BS, block_size=BS, readahead=readahead_blocks * BS
    )
    return Disk(DiskConfig(), cfg), ReferenceDisk(DiskConfig(), cfg)


def observed(d, touched) -> tuple:
    s = d.cache.stats
    return (
        (s.hits, s.misses, s.insertions, s.evictions, s.dirty_evictions),
        len(d.cache),
        d.cache.dirty_blocks,
        [d.cache.contains(f, b) for f, b in sorted(touched, key=repr)],
        (d.media_reads, d.media_read_bytes, d.media_writes, d.media_write_bytes),
        d.positionings,
    )


def blocks_of(regions: RegionList) -> set:
    return {
        b
        for off, ln in regions
        if ln
        for b in range(off // BS, (off + ln - 1) // BS + 1)
    }


def apply(d, op):
    kind = op[0]
    if kind == "read":
        return d.read_time(op[1], op[2])
    if kind == "write":
        return d.write_time(op[1], op[2])
    if kind == "flush":
        return d.flush_time()
    d.drop_cache()
    return None


@st.composite
def region_lists(draw):
    """Chains of regions whose step from the previous region's end is a
    gap, a touch (0) or an overlap (negative), in sorted, drawn or shuffled
    order; lengths include 0 (empty regions) and runs longer than a page
    of the cache or its whole capacity."""
    offsets, lengths = [], []
    pos = draw(st.integers(0, 200)) * draw(st.sampled_from([1, 512, BS]))
    for _ in range(draw(st.integers(0, 10))):
        step = draw(st.sampled_from([-3 * BS, -100, 0, 0, 1, 100, BS, 3 * BS, 70 * BS]))
        pos = max(0, pos + step)
        ln = draw(st.sampled_from([0, 1, 100, BS - 1, BS, 2 * BS, 9 * BS, 40 * BS]))
        offsets.append(pos)
        lengths.append(ln)
        pos += ln
    order = draw(st.sampled_from(["sorted", "drawn", "shuffled"]))
    pairs = list(zip(offsets, lengths))
    if order == "sorted":
        pairs.sort()
    elif order == "shuffled":
        pairs = draw(st.permutations(pairs))
    return RegionList.from_pairs(pairs)


ops = st.one_of(
    st.tuples(st.just("read"), st.sampled_from(FILES), region_lists()),
    st.tuples(st.just("write"), st.sampled_from(FILES), region_lists()),
    st.tuples(st.just("flush")),
    st.tuples(st.just("drop")),
)


class TestAgainstReference:
    @settings(max_examples=300)
    @given(
        st.integers(0, 16),
        st.sampled_from([0, 1, 8]),
        st.integers(1, 3),
        st.lists(ops, max_size=25),
    )
    def test_random_operations_match(self, capacity_blocks, readahead_blocks, n_files, seq):
        new, ref = disk_pair(capacity_blocks, readahead_blocks)
        files = FILES[:n_files]
        touched = set()
        for op in seq:
            if op[0] in ("read", "write"):
                op = (op[0], files[FILES.index(op[1]) % n_files], op[2])
                touched |= {(op[1], b) for b in blocks_of(op[2])}
            assert apply(new, op) == apply(ref, op)
            assert observed(new, touched) == observed(ref, touched)
