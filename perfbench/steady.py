#!/usr/bin/env python3
"""Steadiness evidence: run every workload on seeds 1-10 and compare each
end-to-end metric's spread with the bound ``BENCHMARK.json`` sets.

    python3 perfbench/steady.py [--out steady.md]

Each run is ``perfbench/run.py --workload W --seed S --seconds <run_seconds>
--trace 0`` in a fresh process, one after another, with ``run_seconds``
from ``BENCHMARK.json``.  Per workload and metric the table gives the
median, the first and third quartiles (``statistics.quantiles(n=4)``),
the spread ``(q3 - q1) / median``, the bound, and whether the spread is
within the bound and within a third of it.  Exit status 1 when a run
fails or any spread, ``setup_s``'s too, exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:] = [str(ROOT / "src"), str(ROOT)] + [
    p for p in sys.path if Path(p or ".").resolve() != HERE
]

from perfbench.stats import quartiles  # noqa: E402

SEEDS = range(1, 11)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}: {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    p = argparse.ArgumentParser(prog="perfbench/steady.py", description=__doc__.split("\n")[0])
    p.add_argument("--out", help="also write the markdown table here")
    args = p.parse_args(argv)

    lines = [
        f"seeds {SEEDS[0]}-{SEEDS[-1]}, {seconds} s per run; host: {platform.platform()}, "
        f"{os.cpu_count()} CPUs, Python {platform.python_version()}",
        "",
        "| workload | metric | median | q1 | q3 | spread | bound | within | within bound/3 |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    metric_names = [m["name"] for m in bench["end_to_end"]]
    per_run = [
        "",
        "| workload | seed | correct | failed/attempted | " + " | ".join(metric_names) + " |",
        "|---|---|---|---|" + "---|" * len(metric_names),
    ]
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        rows = []
        for seed in SEEDS:
            row = run_once(workload, seed, seconds)
            rows.append(row)
            values = " | ".join(f"{row['metrics'][m]['value']:.6g}" for m in metric_names)
            per_run.append(
                f"| {workload} | {seed} | {row['correct']} | {row['failed']}/{row['attempted']} "
                f"| {values} |"
            )
            print(f"{workload} seed {seed}: done", file=sys.stderr, flush=True)
        if not all(r["correct"] and r["failed"] == 0 for r in rows):
            ok = False
            lines.append(f"| {workload} | (a run reported failures) | | | | | | | |")
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in rows]
            q1, q2, q3 = quartiles(values)
            spread = (q3 - q1) / q2
            bound = metric["bound"]
            within = spread <= bound
            ok &= within
            lines.append(
                f"| {workload} | {metric['name']} | {q2:.6g} | {q1:.6g} | {q3:.6g} "
                f"| {spread:.3f} | {bound} | {'yes' if within else 'NO'} "
                f"| {'yes' if spread <= bound / 3 else 'no'} |"
            )
    text = "\n".join(lines + per_run) + "\n"
    print(text)
    if args.out:
        Path(args.out).write_text(text)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
