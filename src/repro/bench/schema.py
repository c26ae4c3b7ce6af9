"""Schema-versioned benchmark result files (``BENCH_<timestamp>.json``).

One :class:`BenchResult` records one run of the curated suite
(:mod:`repro.bench.suite`): per scenario, the **simulated metrics**
(simulated seconds, bytes moved, request counts — bit-identical across
runs at the same seed), which :mod:`repro.bench.compare` gates at zero
tolerance.  Host time is not recorded here; ``perfbench/`` measures it.

The JSON layout is versioned by :data:`SCHEMA_VERSION`; :func:`load`
rejects files written by an unsupported schema with
:class:`~repro.errors.SchemaMismatchError`, so a stale committed baseline
fails loudly instead of producing a nonsense diff.  Floats round-trip via
``repr`` shortest-roundtrip encoding (the ``json`` module default), so a
saved-and-reloaded result compares ``==`` to the in-memory original.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List

from ..errors import BenchError, SchemaMismatchError

__all__ = [
    "SCHEMA_VERSION",
    "SUPPORTED_SCHEMA_VERSIONS",
    "SimMetrics",
    "ScenarioResult",
    "BenchResult",
    "load",
    "save",
]

#: Bump on any incompatible change to the JSON layout below.
#: Version 3 dropped the per-scenario ``wall`` block.
SCHEMA_VERSION = 3

#: Versions :func:`load` accepts.  Versions 1 and 2 differ from 3 only by
#: their ``wall`` block, which loading ignores; anything else fails loudly
#: with :class:`SchemaMismatchError`.
SUPPORTED_SCHEMA_VERSIONS = (1, 2, 3)


@dataclass(frozen=True)
class SimMetrics:
    """Deterministic accounting summed over a scenario's sweep points.

    Every field is derived from simulated execution only, so two runs of
    the same code at the same seed agree bit for bit.
    """

    #: Sum of simulated elapsed seconds over the scenario's points.
    elapsed_s: float
    moved_bytes: int
    useful_bytes: int
    logical_requests: int
    server_messages: int
    #: Number of sweep points the scenario ran.
    n_points: int

    @classmethod
    def from_points(cls, points) -> "SimMetrics":
        """Aggregate a list of :class:`~repro.experiments.harness.DataPoint`."""
        return cls(
            elapsed_s=float(sum(p.elapsed for p in points)),
            moved_bytes=int(sum(p.moved_bytes for p in points)),
            useful_bytes=int(sum(p.useful_bytes for p in points)),
            logical_requests=int(sum(p.logical_requests for p in points)),
            server_messages=int(sum(p.server_messages for p in points)),
            n_points=len(points),
        )


@dataclass(frozen=True)
class ScenarioResult:
    """One suite scenario's simulated outcome."""

    name: str
    family: str  # "artificial" | "flash" | "tiled" | "collective" | "robust" | "micro"
    sim: SimMetrics


@dataclass
class BenchResult:
    """One full suite run, as serialized to ``BENCH_<timestamp>.json``."""

    scale: str
    scenarios: List[ScenarioResult]
    schema_version: int = SCHEMA_VERSION
    #: ISO-8601 UTC creation stamp (provenance only; never compared).
    created: str = ""
    #: Host provenance (python/platform); never compared.
    host: Dict[str, str] = field(default_factory=dict)
    #: ``repro`` source fingerprint at run time (provenance only —
    #: a baseline is *expected* to come from older code).
    code_fingerprint: str = ""
    #: Executions per scenario, each checked against the first bit for bit.
    repeats: int = 1
    jobs: int = 1

    def scenario(self, name: str) -> ScenarioResult:
        for sc in self.scenarios:
            if sc.name == name:
                return sc
        raise KeyError(name)

    def to_json(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "BenchResult":
        try:
            version = data["schema_version"]
        except (TypeError, KeyError):
            raise SchemaMismatchError("not a bench result file: missing schema_version") from None
        if version not in SUPPORTED_SCHEMA_VERSIONS:
            raise SchemaMismatchError(
                f"bench schema version {version} not in supported "
                f"{SUPPORTED_SCHEMA_VERSIONS}; refresh the file with "
                "'pvfs-sim bench run'"
            )
        try:
            scenarios = [
                ScenarioResult(
                    name=sc["name"],
                    family=sc["family"],
                    sim=SimMetrics(**sc["sim"]),
                )
                for sc in data["scenarios"]
            ]
            return cls(
                scale=data["scale"],
                scenarios=scenarios,
                schema_version=SCHEMA_VERSION,
                created=data.get("created", ""),
                host=dict(data.get("host", {})),
                code_fingerprint=data.get("code_fingerprint", ""),
                repeats=int(data.get("repeats", 1)),
                jobs=int(data.get("jobs", 1)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise BenchError(f"malformed bench result file: {exc}") from None


def save(result: BenchResult, path: str) -> None:
    """Write ``result`` as JSON (atomic: temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(result.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load(path: str) -> BenchResult:
    """Read a ``BENCH_*.json`` file, rejecting schema mismatches."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise BenchError(f"cannot read bench result {path!r}: {exc}") from None
    except ValueError as exc:
        raise BenchError(f"invalid JSON in bench result {path!r}: {exc}") from None
    return BenchResult.from_json(data)
