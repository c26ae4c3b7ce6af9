"""Picklable, canonically hashable descriptions of one sweep point.

A *spec* is everything needed to reproduce one independent simulation:
a pattern recipe (registry name + arguments, never a built ``Pattern``
object), the access method, the direction, and the frozen
:class:`~repro.config.ClusterConfig` — which carries the seed and the
fault plan, so both participate in the cache key for free.

Three spec flavours cover every sweep in the repository:

* :class:`PointSpec` — the common point-runner behind the figure
  drivers (``artificial``/``flashio``/``tiledvis`` and figure 18's
  native methods): dispatches to
  :func:`~repro.experiments.harness.des_point` or ``model_point``;
* :class:`MpiioSpec` — figure 18's MPI-IO strategies (independent and
  two-phase collective), whose per-client MPI-IO body runs through
  :func:`~repro.experiments.harness.run_point`;
* :class:`ChaosSpec` — one ``pvfs-sim chaos`` scenario (baseline +
  faulty run pair), returning a :class:`~repro.experiments.chaos.ChaosRow`.

Every spec implements the same small protocol the engine and cache use:
``run(obs=None)``, ``cache_token()``, ``result_to_json()`` /
``result_from_json()``, and ``elapsed_of()``.

:func:`canonical` converts a spec (nested frozen dataclasses, tuples,
dicts, primitives) into a deterministic JSON-able structure; hashing its
``json.dumps(..., sort_keys=True)`` gives a stable content address.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from ..config import ClusterConfig
from ..errors import ConfigError

__all__ = ["PointSpec", "MpiioSpec", "ChaosSpec", "canonical"]


def canonical(obj: Any) -> Any:
    """Deterministic JSON-able form of ``obj`` (dataclasses keep their
    type name, so two configs with identical fields but different types
    never collide)."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        out: Dict[str, Any] = {"__type__": type(obj).__name__}
        for f in dataclasses.fields(obj):
            out[f.name] = canonical(getattr(obj, f.name))
        return out
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ConfigError(f"cannot canonicalize {type(obj).__name__!r} for cache keying")


def _pattern_registry():
    from .. import patterns

    return {
        "one_dim_cyclic": patterns.one_dim_cyclic,
        "block_block": patterns.block_block,
        "flash_io": patterns.flash_io,
        "tiled_visualization": patterns.tiled_visualization,
        "uniform_fragments": patterns.uniform_fragments,
    }


@dataclass(frozen=True)
class PointSpec:
    """One harness point: pattern recipe + method + kind + config."""

    figure: str
    pattern: str  # key into the pattern registry
    pattern_args: Tuple  # positional recipe arguments (JSON-able)
    method: str
    kind: str  # "read" | "write"
    mode: str  # "des" | "model"
    cfg: ClusterConfig
    x: float = 0.0
    #: Override the result's series name (e.g. fig15's ``list-text``).
    series: Optional[str] = None
    #: Extra options: ``method_opts`` in DES mode, plan options in model
    #: mode (sorted key/value pairs so the spec stays frozen/hashable).
    opts: Tuple[Tuple[str, Any], ...] = ()
    measure_phases: bool = False

    def build_pattern(self):
        registry = _pattern_registry()
        try:
            factory = registry[self.pattern]
        except KeyError:
            raise ConfigError(f"unknown pattern recipe {self.pattern!r}") from None
        return factory(*self.pattern_args)

    def run(self, obs=None):
        from ..experiments.harness import des_point, model_point

        pattern = self.build_pattern()
        opts = dict(self.opts)
        if self.mode == "model":
            point = model_point(
                pattern,
                self.method,
                self.kind,
                self.cfg,
                figure=self.figure,
                x=self.x,
                **opts,
            )
        else:
            point = des_point(
                pattern,
                self.method,
                self.kind,
                self.cfg,
                figure=self.figure,
                x=self.x,
                method_opts=opts or None,
                measure_phases=self.measure_phases,
                obs=obs,
            )
        if self.series is not None:
            point.series = self.series
        return point

    def cache_token(self) -> Dict[str, Any]:
        return {"kind": "point", "spec": canonical(self)}

    @staticmethod
    def result_to_json(point) -> Dict[str, Any]:
        return dataclasses.asdict(point)

    @staticmethod
    def result_from_json(d: Dict[str, Any]):
        from ..experiments.harness import DataPoint

        return DataPoint(**d)

    @staticmethod
    def elapsed_of(point) -> float:
        return point.elapsed


@dataclass(frozen=True)
class MpiioSpec:
    """One figure-18 MPI-IO point (independent or two-phase collective)."""

    scale: Any  # experiments.presets.Scale (a frozen dataclass)
    n_ranks: int
    collective: bool
    cb_nodes: Optional[int] = None
    faults: Optional[Any] = None  # FaultConfig or None
    #: Collective buffer size in bytes (ROMIO's ``cb_buffer_size``);
    #: ``None`` = unbounded, i.e. one exchange round per collective.
    cb_buffer: Optional[int] = None

    def run(self, obs=None):
        from ..experiments.collective import _mpiio_point

        return _mpiio_point(
            self.scale,
            self.n_ranks,
            self.collective,
            cb_nodes=self.cb_nodes,
            obs=obs,
            faults=self.faults,
            cb_buffer=self.cb_buffer,
        )

    def cache_token(self) -> Dict[str, Any]:
        return {"kind": "mpiio", "spec": canonical(self)}

    result_to_json = staticmethod(PointSpec.result_to_json)
    result_from_json = staticmethod(PointSpec.result_from_json)
    elapsed_of = staticmethod(PointSpec.elapsed_of)


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos scenario run (fault-free baseline + faulty replay)."""

    scenario: str
    benchmark: str
    scale: Any  # experiments.presets.Scale
    restart_after: float = 2.0
    #: Chain replication: copies per stripe and write-ack policy.  Spec
    #: fields, so both enter the cache key via :func:`canonical`.
    replicas: int = 1
    ack: str = "primary"

    def run(self, obs=None):
        from ..experiments.chaos import run_scenario

        return run_scenario(
            self.scenario,
            benchmark=self.benchmark,
            scale=self.scale,
            restart_after=self.restart_after,
            replicas=self.replicas,
            ack=self.ack,
        )

    def cache_token(self) -> Dict[str, Any]:
        return {"kind": "chaos", "spec": canonical(self)}

    @staticmethod
    def result_to_json(row) -> Dict[str, Any]:
        return dataclasses.asdict(row)

    @staticmethod
    def result_from_json(d: Dict[str, Any]):
        from ..experiments.chaos import ChaosRow

        d = dict(d)
        d["events"] = [(float(t), str(what)) for t, what in d.get("events", [])]
        return ChaosRow(**d)

    @staticmethod
    def elapsed_of(row) -> float:
        return row.faulty_s
