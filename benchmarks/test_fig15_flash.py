"""Figure 15: FLASH I/O checkpoint writes, all three methods (log scale).

Paper shapes: data sieving wins by a wide margin at small client counts
(one buffered request vs thousands of small ones), multiple I/O is worst
by far, list I/O sits between; data sieving's advantage erodes as clients
grow (barrier serialization + more foreign data per window), while
multiple and list stay roughly flat per client count.
"""

import pytest

from repro.experiments import SCALED, figure15


@pytest.fixture(scope="module")
def fig15_result():
    return figure15(
        scale=SCALED, mode="des", clients=(2, 4, 8), include_text_accounting=True
    )


def test_fig15_regenerate_table(fig15_result, save_result):
    save_result("fig15_scaled_des", fig15_result.markdown())
    assert fig15_result.points


def test_fig15_paper_claims_hold(fig15_result):
    failed = [str(c) for c in fig15_result.checks if not c.passed]
    assert not failed, failed


def test_fig15_ordering_at_small_clients(fig15_result):
    by = {
        (p.series, p.x): p.elapsed for p in fig15_result.points
    }
    for n in (2, 4):
        assert by[("datasieve", n)] < by[("list", n)] < by[("multiple", n)]


def test_fig15_request_accounting(fig15_result):
    """Multiple I/O must issue one request per checkpointed double; list
    I/O one per 64 (memory, file) piece pairs."""
    cfg = SCALED.flash
    per_proc_doubles = cfg.mem_regions_per_proc
    p_multiple = [p for p in fig15_result.points if p.series == "multiple" and p.x == 2][0]
    assert p_multiple.logical_requests == 2 * per_proc_doubles
    p_list = [p for p in fig15_result.points if p.series == "list" and p.x == 2][0]
    assert p_list.logical_requests == 2 * (per_proc_doubles // 64)


def test_fig15_accounting_discrepancy_documented(fig15_result):
    """The paper's text derives 30 list requests/proc; its measured figure
    implies memory-side splitting (15,360/proc at full scale).  Run both:
    the text-accounting variant is faster than even data sieving, which
    contradicts the published figure — the measured-behaviour variant
    (our default) reproduces it.  See EXPERIMENTS.md."""
    by = {(p.series, p.x): p for p in fig15_result.points}
    for n in (2, 4, 8):
        text = by[("list-text", n)]
        measured = by[("list", n)]
        sieve = by[("datasieve", n)]
        assert text.logical_requests < measured.logical_requests
        assert text.elapsed < sieve.elapsed          # contradicts Figure 15
        assert measured.elapsed > sieve.elapsed      # matches Figure 15


def test_fig15_sieve_requests_tiny(fig15_result):
    sieve = [p for p in fig15_result.points if p.series == "datasieve"]
    for p in sieve:
        # RMW: one read + one write request per 32 MB window per proc.
        assert p.logical_requests <= 4 * p.n_clients
