"""Figure 17: tiled visualization reads with open/read/close breakdown.

This figure runs at the paper's REAL scale (the frame file is ~10.2 MB):
6 clients, 3x2 displays of 1024x768 at 24-bit colour with 270/128-pixel
overlaps.  Paper shape: list I/O more than twice as fast as either other
method; 768 contiguous requests per client for multiple I/O vs 12 list
requests.
"""

import pytest

from repro.experiments import SCALED, figure17


@pytest.fixture(scope="module")
def fig17_result():
    return figure17(scale=SCALED, mode="des")


def _phase_markdown(result) -> str:
    lines = [
        "### open / read / close breakdown (seconds)\n",
        "| method | open | read | close | total |",
        "|---|---|---|---|---|",
    ]
    for p in result.points:
        lines.append(
            f"| {p.series} | {p.phases['open']:.4f} | {p.phases['transfer']:.4f} "
            f"| {p.phases['close']:.4f} | {p.elapsed:.4f} |"
        )
    return "\n".join(lines) + "\n"


def test_fig17_regenerate_table(fig17_result, save_result):
    save_result(
        "fig17_paper_scale_des", fig17_result.markdown() + "\n" + _phase_markdown(fig17_result)
    )
    assert fig17_result.points


def test_fig17_paper_claims_hold(fig17_result):
    failed = [str(c) for c in fig17_result.checks if not c.passed]
    assert not failed, failed


def test_fig17_phase_structure(fig17_result):
    """Open and close are metadata round-trips — tiny next to the read."""
    for p in fig17_result.points:
        assert p.phases["open"] < 0.1 * p.phases["transfer"]
        assert p.phases["close"] < 0.1 * p.phases["transfer"]


def test_fig17_sieving_fetches_overlap_waste(fig17_result):
    """Each sieving client fetches whole frame rows but uses ~1/3 of them
    (1 / tiles_x, per the paper's analysis in Section 4.4.1)."""
    sieve = next(p for p in fig17_result.points if p.series == "datasieve")
    listio = next(p for p in fig17_result.points if p.series == "list")
    assert sieve.moved_bytes > 2 * listio.moved_bytes
