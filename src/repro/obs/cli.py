"""``obs`` subcommand: summarize a saved trace.

::

    pvfs-sim obs /tmp/trace.json            # summary + verdict
    pvfs-sim obs /tmp/trace.json --json     # machine-readable report
    python -m repro.obs.cli /tmp/trace.json # same, standalone

Reads the trace-event JSON written by ``--trace-out`` without the
original run: per-category and per-lane statistics are recomputed from
the events, and the bottleneck report comes from the embedded copy.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict
from typing import Dict, List

__all__ = ["main", "summarize"]


def _load(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if "traceEvents" not in doc:
        raise ValueError(f"{path} is not a trace-event JSON (no traceEvents)")
    return doc


def summarize(doc: dict) -> str:
    """Human-readable summary of a loaded trace document."""
    events = doc["traceEvents"]
    other = doc.get("otherData", {})
    spans = [e for e in events if e.get("ph") == "X"]
    counters = [e for e in events if e.get("ph") == "C"]
    # Lane naming from metadata events.
    proc_names: Dict[int, str] = {}
    thread_names: Dict[tuple, str] = {}
    for e in events:
        if e.get("ph") != "M":
            continue
        if e.get("name") == "process_name":
            proc_names[e["pid"]] = e["args"]["name"]
        elif e.get("name") == "thread_name":
            thread_names[(e["pid"], e["tid"])] = e["args"]["name"]

    lines: List[str] = []
    label = other.get("label", "(unlabelled)")
    lines.append(f"# trace summary — {label}")
    lines.append("")
    window = other.get("window_s")
    if window is not None:
        lines.append(f"window: {window:.6f} simulated seconds")
    lines.append(
        f"events: {len(spans)} spans, {len(counters)} counter samples, "
        f"{len(proc_names)} processes"
    )
    dropped = other.get("dropped_spans") or {}
    if dropped:
        per = ", ".join(f"{k}={v}" for k, v in sorted(dropped.items()))
        lines.append(f"dropped spans at capacity: {per}")
    lines.append("")

    # Per-category table recomputed from the events themselves.
    by_cat: Dict[str, List[float]] = defaultdict(list)
    for e in spans:
        by_cat[e.get("cat", "?")].append(e.get("dur", 0.0))
    lines.append("| category | spans | total (ms) | mean (us) | max (us) |")
    lines.append("|---|---|---|---|---|")
    for cat in sorted(by_cat):
        durs = by_cat[cat]
        lines.append(
            f"| {cat} | {len(durs)} | {sum(durs) / 1e3:.3f} "
            f"| {sum(durs) / len(durs):.1f} | {max(durs):.1f} |"
        )
    lines.append("")

    # Per-lane busy time (sum of span durations on that pid/tid).
    busy: Dict[tuple, float] = defaultdict(float)
    for e in spans:
        busy[(e["pid"], e.get("tid", 0))] += e.get("dur", 0.0)
    ranked = sorted(busy.items(), key=lambda kv: kv[1], reverse=True)
    lines.append("| lane | busy (ms) |")
    lines.append("|---|---|")
    for (pid, tid), total in ranked[:10]:
        node = proc_names.get(pid, f"pid{pid}")
        lane = thread_names.get((pid, tid), f"tid{tid}")
        lines.append(f"| {node}/{lane} | {total / 1e3:.3f} |")
    lines.append("")

    report = other.get("bottleneck")
    if report:
        lines.append(f"**verdict: {report.get('verdict', '(none)')}**")
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pvfs-sim obs",
        description="Summarize a trace JSON (--trace-out) without the original run",
    )
    parser.add_argument("trace", help="path to the trace JSON file")
    parser.add_argument(
        "--json",
        action="store_true",
        help="print the embedded bottleneck report as JSON instead",
    )
    args = parser.parse_args(argv)
    try:
        doc = _load(args.trace)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        report = doc.get("otherData", {}).get("bottleneck")
        if report is None:
            print("error: trace carries no embedded bottleneck report", file=sys.stderr)
            return 2
        print(json.dumps(report, indent=2))
    else:
        print(summarize(doc))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
