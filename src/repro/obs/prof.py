"""``repro.obs.prof`` — host profiling of a simulator run with cProfile.

Answers "which host functions does a run spend its wall-seconds in?":

* :func:`capture_cprofile` wraps a callable in :mod:`cProfile`;
* :func:`collapsed_stacks` / :func:`write_collapsed` render the capture
  as collapsed caller;callee stacks — the input format of
  ``flamegraph.pl`` and speedscope;
* :func:`write_pstats` dumps the raw capture and
  :func:`top_functions_markdown` tabulates the hottest functions.

``pvfs-sim bench run --profile PREFIX`` drives these over the gate pass.
cProfile only observes the host interpreter (host clocks never feed back
into simulated time), so a profiled run is bit-identical to a plain one —
``bench compare`` checks that pass against the committed baseline.
The per-layer split of host time lives in ``perfbench/run.py --trace 1``.
"""

from __future__ import annotations

from typing import List, Tuple

__all__ = [
    "capture_cprofile",
    "collapsed_stacks",
    "write_collapsed",
    "write_pstats",
    "top_functions_markdown",
]


def capture_cprofile(fn, *args, **kwargs):
    """Run ``fn(*args, **kwargs)`` under :mod:`cProfile`.

    Returns ``(result, profile)`` where ``profile`` is the filled
    ``cProfile.Profile`` ready for :func:`collapsed_stacks`,
    :func:`write_pstats`, or :mod:`pstats` analysis.
    """
    import cProfile

    profile = cProfile.Profile()
    profile.enable()
    try:
        result = fn(*args, **kwargs)
    finally:
        profile.disable()
    return result, profile


def _frame_name(func: Tuple[str, int, str]) -> str:
    filename, lineno, name = func
    if filename == "~":  # C builtins
        return name.strip("<>")
    module = filename.rsplit("/", 1)[-1]
    return f"{module}:{name}"


def collapsed_stacks(profile) -> List[str]:
    """Render a cProfile capture as collapsed-stack lines.

    One line per observed caller→callee edge, ``caller;callee weight``,
    with the callee's own time (microseconds) split across its callers
    proportionally to call counts — the format ``flamegraph.pl`` and
    speedscope consume.  Root functions (no recorded caller) emit a
    single-frame line.  Lines are sorted for deterministic files.
    """
    import pstats

    stats = pstats.Stats(profile).stats
    lines: List[str] = []
    for func, (cc, nc, tt, ct, callers) in stats.items():
        own_us = tt * 1e6
        if own_us < 1.0:
            continue
        name = _frame_name(func)
        if not callers:
            lines.append(f"{name} {int(own_us)}")
            continue
        total_calls = sum(edge[1] for edge in callers.values()) or 1
        for caller, (ccc, ncc, _tt, _ct) in callers.items():
            weight = int(own_us * ncc / total_calls)
            if weight >= 1:
                lines.append(f"{_frame_name(caller)};{name} {weight}")
    return sorted(lines)


def write_collapsed(profile, path: str) -> int:
    """Write :func:`collapsed_stacks` lines to ``path``; returns the count."""
    lines = collapsed_stacks(profile)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    return len(lines)


def write_pstats(profile, path: str) -> None:
    """Dump the raw pstats file (``python -m pstats PATH`` to explore)."""
    profile.dump_stats(path)


def top_functions_markdown(profile, n: int = 15) -> str:
    """Markdown table of the ``n`` hottest functions by own time."""
    import pstats

    stats = pstats.Stats(profile).stats
    ranked = sorted(
        ((tt, ct, nc, func) for func, (cc, nc, tt, ct, _callers) in stats.items()),
        key=lambda row: (-row[0], _frame_name(row[3])),
    )[:n]
    lines = [
        "| function | calls | own (ms) | cumulative (ms) |",
        "|---|---|---|---|",
    ]
    for tt, ct, nc, func in ranked:
        lines.append(
            f"| {_frame_name(func)} | {nc} | {tt * 1e3:.3f} | {ct * 1e3:.3f} |"
        )
    return "\n".join(lines) + "\n"
