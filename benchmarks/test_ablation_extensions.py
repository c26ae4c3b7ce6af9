"""Ablations for the paper's Section 5 future-work extensions.

* **Hybrid I/O** — "if two noncontiguous regions are close to each other,
  a data sieving operation may take place for just those particular
  regions": sweep the gap threshold across access densities and show the
  hybrid tracks the better of the two pure methods.
* **Datatype (vector) I/O** — "support for I/O requests that use an
  approach similar to MPI datatypes ... would eliminate the linear
  relationship between the number of contiguous regions and the number of
  I/O requests": show the request count goes constant and the regular-
  pattern cost drops below list I/O.
"""

import pytest

from repro.config import ClusterConfig
from repro.experiments import SCALED, des_point
from repro.patterns import one_dim_cyclic
from repro.units import KiB

DENSITIES = {
    # accesses per client -> fragment size shrinks as accesses grow
    "coarse": 512,
    "medium": 2048,
    "fine": 8192,
}


@pytest.fixture(scope="module")
def hybrid_sweep():
    """Read path, modest gap threshold: the hybrid should track list I/O
    (coalescing only genuinely-close neighbours, never regressing to a
    whole-extent sieve the way a too-aggressive threshold would)."""
    cfg = ClusterConfig.chiba_city(n_clients=8)
    out = {}
    for label, acc in DENSITIES.items():
        pattern = one_dim_cyclic(SCALED.artificial_total, 8, acc)
        out[label] = {
            "list": des_point(pattern, "list", "read", cfg, x=acc),
            "datasieve": des_point(pattern, "datasieve", "read", cfg, x=acc),
            "hybrid": des_point(
                pattern,
                "hybrid",
                "read",
                cfg,
                x=acc,
                method_opts={"gap_threshold": 256},
            ),
        }
    return out


def test_hybrid_table(hybrid_sweep, save_result):
    lines = [
        "## ablation: hybrid list+sieving I/O (cyclic read, 8 clients, threshold 256 B)\n",
        "| density | list (s) | datasieve (s) | hybrid (s) |",
        "|---|---|---|---|",
    ]
    for label, methods in hybrid_sweep.items():
        lines.append(
            f"| {label} | {methods['list'].elapsed:.2f} | "
            f"{methods['datasieve'].elapsed:.2f} | {methods['hybrid'].elapsed:.2f} |"
        )
    save_result("ablation_hybrid", "\n".join(lines) + "\n")


def test_hybrid_never_far_from_best(hybrid_sweep):
    """The hybrid must track the better pure method within 1.5x at every
    density (the paper's hoped-for 'applicable over a larger range')."""
    for label, methods in hybrid_sweep.items():
        best = min(methods["list"].elapsed, methods["datasieve"].elapsed)
        assert methods["hybrid"].elapsed <= 1.5 * best, label


def test_hybrid_beats_list_on_dense_small_writes(save_result):
    """The hybrid's win condition (and the paper's motivating case for it):
    many tiny regions with small gaps, on the WRITE path, where each list
    request pays the small-write turnaround but the hybrid coalesces
    neighbourhoods into a few big read-modify-write extents."""
    from repro.regions import RegionList

    cfg = ClusterConfig.chiba_city(n_clients=1)
    n, frag, stride = 16384, 64, 72  # 64 B fragments, 8 B gaps
    file_regions = RegionList.strided(0, n, frag, stride)
    pattern_rows = []
    results = {}
    for name, opts in (("list", None), ("hybrid", {"gap_threshold": 1 * KiB})):
        from repro.patterns.base import Pattern, RankAccess

        pattern = Pattern(
            name="dense-writes",
            accesses=(
                RankAccess(0, RegionList.single(0, n * frag), file_regions),
            ),
            file_size=file_regions.extent[1],
        )
        results[name] = des_point(
            pattern, name, "write", cfg, x=0, method_opts=opts
        )
        pattern_rows.append(f"| {name} | {results[name].elapsed:.2f} | "
                            f"{results[name].logical_requests} |")
    save_result(
        "ablation_hybrid_writes",
        "## hybrid vs list on dense small writes (1 client)\n\n"
        "| method | time (s) | requests |\n|---|---|---|\n"
        + "\n".join(pattern_rows) + "\n",
    )
    assert results["hybrid"].elapsed < 0.5 * results["list"].elapsed
    assert results["hybrid"].logical_requests < results["list"].logical_requests


@pytest.fixture(scope="module")
def vector_sweep():
    cfg = ClusterConfig.chiba_city(n_clients=8)
    out = {}
    for acc in (512, 2048, 8192):
        pattern = one_dim_cyclic(SCALED.artificial_total, 8, acc)
        out[acc] = {
            "list": des_point(pattern, "list", "read", cfg, x=acc),
            "vector": des_point(pattern, "vector", "read", cfg, x=acc),
        }
    return out


def test_vector_table(vector_sweep, save_result):
    lines = [
        "## ablation: datatype (vector) requests vs list I/O (cyclic read)\n",
        "| accesses/client | list reqs | vector reqs | list (s) | vector (s) |",
        "|---|---|---|---|---|",
    ]
    for acc, methods in vector_sweep.items():
        lines.append(
            f"| {acc} | {methods['list'].logical_requests} | "
            f"{methods['vector'].logical_requests} | "
            f"{methods['list'].elapsed:.2f} | {methods['vector'].elapsed:.2f} |"
        )
    save_result("ablation_datatype", "\n".join(lines) + "\n")


def test_vector_request_count_constant(vector_sweep):
    """The headline of the extension: request count independent of the
    number of contiguous regions."""
    counts = {acc: m["vector"].logical_requests for acc, m in vector_sweep.items()}
    assert len(set(counts.values())) == 1


def test_vector_wins_at_high_fragmentation(vector_sweep):
    """At coarse fragmentation both methods are request-cheap and the
    single huge vector response loses pipelining, so the payoff only
    appears once list I/O needs many requests."""
    fine = vector_sweep[8192]
    assert fine["vector"].elapsed < fine["list"].elapsed


def test_vector_advantage_grows_with_fragmentation(vector_sweep):
    ratios = [
        vector_sweep[acc]["list"].elapsed / vector_sweep[acc]["vector"].elapsed
        for acc in (512, 2048, 8192)
    ]
    assert ratios[-1] > ratios[0]
