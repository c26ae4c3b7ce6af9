"""Bottleneck reports over a fixed smoke grid, checked against a reference.

``data/bottleneck_reports.json`` holds, for every case of :func:`cases`,
the report's ``to_json()`` and ``to_markdown()``, plus the per-run
overview of the whole grid.  The test recomputes them and asserts ``==``
on the JSON and identical text, so any change to how busy time, queue
depth or fault activity is recorded shows up as a diff here.

The committed file was generated by the resource monitors that hooked
into the simulation primitives before the reports were rebuilt from
tracer spans, so it also pins the rebuild to the hooks' answers.  The
grid covers every method on reads and writes, tiled reads, FLASH writes,
and crash, flaky-network and straggler runs, whose aborted transfers
and dropped inbox requests the spans must account for.

Regenerate the reference with::

    PYTHONPATH=src python tests/test_obs_reference.py

and commit the diff only when a report is meant to change.
"""

import json
import pathlib

from repro.config import ClusterConfig
from repro.experiments.harness import des_point
from repro.experiments.presets import SMOKE
from repro.faults import (
    FaultConfig,
    FaultPlan,
    IodCrash,
    LinkDown,
    PacketLoss,
    RetryPolicy,
    Straggler,
)
from repro.obs import ObsSession
from repro.patterns import flash_io, one_dim_cyclic, tiled_visualization

REFERENCE = pathlib.Path(__file__).parent / "data" / "bottleneck_reports.json"

METHODS = ("multiple", "datasieve", "list", "hybrid", "vector", "twophase")

#: Survives a dead or unreachable daemon: healthy requests never time
#: out, a lost one is retried well before the run ends.
RETRY = RetryPolicy(
    request_timeout=0.1,
    max_retries=24,
    backoff_base=0.02,
    backoff_factor=2.0,
    backoff_cap=0.5,
    jitter=0.1,
)

#: Fault plans, placed inside the fault-free runs of the cyclic pattern
#: (list I/O takes 0.05 simulated seconds to read, 0.08 to write).  The
#: crash drops queued requests and aborts responses on the wire; lost
#: frames stretch writes past the request timeout, so clients abandon
#: transfers that hold both links, or only the sender's.
FAULTS = {
    "crash": FaultConfig(
        plan=FaultPlan((IodCrash(iod=0, at=0.02, restart_after=0.5),)), retry=RETRY
    ),
    "flaky-net": FaultConfig(
        plan=FaultPlan(
            (
                PacketLoss(node="iod0", at=0.0, duration=0.3, rate=0.05),
                LinkDown(node="iod0", at=0.03, duration=0.05),
            )
        ),
        retry=RETRY,
    ),
    "straggler": FaultConfig(plan=FaultPlan((Straggler(iod=0, scale=8.0),))),
}


def cases():
    """(label, pattern, method, kind, faults) for every case of the grid."""
    cyclic = one_dim_cyclic(SMOKE.artificial_total, 4, 64)
    for method in METHODS:
        for kind in ("read", "write"):
            yield f"cyclic/{method} {kind}", cyclic, method, kind, None
    tiled = tiled_visualization(SMOKE.tiled)
    for method in ("multiple", "datasieve", "list"):
        yield f"tiled/{method} read", tiled, method, "read", None
    flash = flash_io(2, SMOKE.flash)
    for method in ("multiple", "datasieve", "list"):
        yield f"flash/{method} write", flash, method, "write", None
    for scenario, faults in FAULTS.items():
        for method in ("list", "multiple"):
            for kind in ("read", "write"):
                yield f"{scenario}/{method} {kind}", cyclic, method, kind, faults


def generate(obs=None):
    """Every case's report (JSON and markdown) and the grid's overview."""
    obs = obs if obs is not None else ObsSession()
    out = {}
    for label, pattern, method, kind, faults in cases():
        cfg = ClusterConfig.chiba_city(n_clients=pattern.n_ranks)
        if faults is not None:
            cfg = cfg.with_(faults=faults)
        des_point(pattern, method, kind, cfg, figure=label, obs=obs)
        report = obs.runs[-1].report()
        out[label] = {"json": report.to_json(), "markdown": report.to_markdown()}
    out["overview"] = obs.runs_overview_markdown()
    # Round-trip so tuples compare equal to the reference's lists.
    return json.loads(json.dumps(out))


def test_reports_match_reference():
    reference = json.loads(REFERENCE.read_text())
    obs = ObsSession()
    got = generate(obs)
    assert list(got) == list(reference)
    for label, want in reference.items():
        if label == "overview":
            assert got[label] == want
            continue
        assert got[label]["json"] == want["json"], label
        assert got[label]["markdown"] == want["markdown"], label
    # The grid must reach every kind of link claim the lanes rebuild.
    spans = [s for run in obs.runs for s in run.spans]
    aborts = [dict(s.meta) for s in spans if s.category == "net.abort"]
    assert any("rx_at" in m for m in aborts) and any("rx_at" not in m for m in aborts)
    assert any("tx_at" in dict(s.meta) for s in spans if s.category == "net.xfer")


def test_grid_covers_faults():
    # The fault cases must exercise the fault table, or the reference
    # would not pin it.
    reference = json.loads(REFERENCE.read_text())
    for scenario in ("crash", "flaky-net"):
        assert reference[f"{scenario}/list read"]["json"]["faults"], scenario
        assert reference[f"{scenario}/list write"]["json"]["faults"], scenario


if __name__ == "__main__":
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(generate(), indent=1) + "\n")
    print(f"wrote {REFERENCE}")
