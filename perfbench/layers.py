"""The traced pass: host-clock spans around each layer's entry points,
simulated-clock spans and counters from the clusters it builds.

Host clock
    :class:`Recorder` patches the entry points in :data:`ENTRY_POINTS`
    with wrappers that record a span (entry, start, end, parent span,
    point id) per call.  A module-level function is replaced in every
    ``repro`` module that imported it by name; a method is replaced on the
    class that defines it.  Generator entry points are timed per
    resumption, because calling a generator function does no work: the
    wrapper is itself a generator that forwards ``send``, ``throw`` and
    ``close``.  A plain function that hands back a generator gets the same
    treatment for the generator.  A layer's *self time* is its spans'
    duration minus the part their child spans cover, so the layers' self
    times sum to the pass's root span.

Simulated clock
    Every cluster the pass builds is recorded, its tracer is switched on
    (passive: traced runs are bit-identical), and after each point its
    counters and ``client.request`` / ``net.*`` / ``iod.*`` /
    ``disk.busy`` / ``fault.*`` spans are folded into the totals.  DES
    points also receive an :class:`~repro.obs.ObsSession` through ``obs=``.

An entry point that no longer exists is skipped; a layer none of whose
entry points resolve is reported as unmeasured instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["LAYERS", "ENTRY_POINTS", "Recorder", "SimTotals"]

#: (layer, module, target).  Targets: ``func``, ``a|b`` (several
#: functions), ``Class.m`` / ``Class.a|b`` (methods defined on the class),
#: ``Class.*`` (every non-dunder function defined on the class), ``*``
#: (every function defined in the module).
ENTRY_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("simulate", "repro.simulate.kernel", "Simulator.run"),
    ("core", "repro.core", "MultipleIO.read|write"),
    ("core", "repro.core", "DataSievingIO.read|write|serialized_write"),
    ("core", "repro.core", "ListIO.read|write"),
    ("core", "repro.core", "HybridIO.read|write|serialized_write"),
    ("core", "repro.core", "VectorIO.read|write"),
    ("core", "repro.core", "TwoPhaseIO.read|write|collective_read|collective_write"),
    ("pvfs.client", "repro.pvfs.client", "PVFSClient.open|_send"),
    (
        "pvfs.client",
        "repro.pvfs.client",
        "PVFSFile.read_list|write_list|read|write|close|fsync|_replicated_slice",
    ),
    ("network", "repro.network.fabric", "Network.transfer"),
    ("pvfs.iod", "repro.pvfs.iod", "IOD._service|_respond|deliver"),
    ("pvfs.manager", "repro.pvfs.manager", "Manager._execute|_respond"),
    ("pvfs.striping", "repro.pvfs.striping", "map_regions"),
    ("storage", "repro.storage.disk", "Disk.read_time|write_time|flush_time"),
    ("storage", "repro.storage.cache", "BlockCache.*"),
    ("storage.bytestore", "repro.storage.bytestore", "ByteStore.read|write"),
    ("regions", "repro.regions", "RegionList.*"),
    ("regions", "repro.regions", "pair_pieces|split_with_parents|build_flat_indices"),
    ("model", "repro.model.plan", "compile_rank_plan"),
    ("model", "repro.model.predict", "predict_plans|predict_pattern"),
    ("model", "repro.model.twophase", "predict_twophase"),
    (
        "patterns",
        "repro.patterns",
        "one_dim_cyclic|block_block|flash_io|tiled_visualization|uniform_fragments|random_fragments",
    ),
    ("mpi", "repro.mpi.comm", "Communicator.*"),
    ("mpiio", "repro.mpiio.twophase", "*"),
    ("mpiio", "repro.mpiio.twophase", "Exchange.*"),
    ("faults", "repro.faults.injector", "FaultInjector.*"),
    ("pvfs.replication", "repro.pvfs.replication", "ReplicationState.*"),
    ("pvfs.replication", "repro.pvfs.iod", "IOD._rejoin|_resync_source"),
    ("pvfs.cluster", "repro.pvfs.cluster", "Cluster.build"),
    ("sweep", "repro.sweep.engine", "run_sweep"),
    ("sweep", "repro.sweep.spec", "PointSpec.run"),
    ("sweep", "repro.sweep.spec", "ChaosSpec.run"),
    ("experiments", "repro.experiments.harness", "des_point|model_point"),
    ("experiments", "repro.experiments.chaos", "run_scenario|run_failover_scenario"),
    ("obs", "repro.obs.session", "ObsSession.attach|capture"),
)

#: Row order of the layer table; ``bench`` is the benchmark's own code
#: (the pass root, point guards and per-point harvesting).
LAYERS: Tuple[str, ...] = (
    "simulate",
    "core",
    "pvfs.client",
    "network",
    "pvfs.iod",
    "pvfs.manager",
    "pvfs.striping",
    "storage",
    "storage.bytestore",
    "regions",
    "model",
    "patterns",
    "mpi",
    "mpiio",
    "faults",
    "pvfs.replication",
    "pvfs.cluster",
    "sweep",
    "experiments",
    "obs",
    "bench",
)

#: Simulated-clock span categories folded per layer.
SIM_CATEGORIES: Dict[str, Tuple[str, ...]] = {
    "pvfs.client": ("client.request",),
    "network": ("net.wait", "net.xfer"),
    "pvfs.iod": ("iod.queue_wait", "iod.service"),
    "storage": ("disk.busy",),
}


class SimTotals:
    """Simulated-clock totals and counters over the clusters of a pass."""

    def __init__(self) -> None:
        self.counts: Dict[str, float] = defaultdict(float)
        #: span category -> summed simulated seconds
        self.span_s: Dict[str, float] = defaultdict(float)
        self.dropped_spans = 0

    def fold(self, cluster) -> None:
        c = self.counts
        c["clusters"] += 1
        c["events"] += cluster.sim.events_scheduled
        for key, value in cluster.counters.items():
            if key.startswith(("client.", "iod.")):
                key = key.split(".", 1)[0] + "." + key.rsplit(".", 1)[-1]
            c[key] += value
        for iod in cluster.iods:
            c["iod.requests_served"] += iod.requests_served
            c["iod.regions_served"] += iod.regions_served
            c["disk.positionings"] += iod.disk.positionings
            c["cache.hits"] += iod.disk.cache.stats.hits
            c["cache.accesses"] += iod.disk.cache.stats.accesses
        c["manager.ops"] += cluster.manager.ops_served
        for span in cluster.tracer.spans:
            self.span_s[span.category] += span.end - span.start
        self.dropped_spans += cluster.tracer.dropped

    def fault_span_s(self) -> float:
        return sum(v for k, v in self.span_s.items() if k.startswith("fault."))


class Recorder:
    """Host-clock span recorder plus the entry-point patcher."""

    def __init__(self) -> None:
        #: entry id -> (layer, qualified name)
        self.entries: List[Tuple[str, str]] = []
        self._entry_ids: Dict[Tuple[str, str], int] = {}
        # Spans, one slot per call or resumption (kept compact: a pass
        # records millions).
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.entry_of = array("q")
        self.point_of = array("q")
        self.self_s: List[float] = []
        self.calls: List[int] = []
        self._stack: List[int] = []
        self._child: List[float] = []
        #: Point id stamped on spans as they open.
        self.point = -1
        #: Layers with at least one resolved entry point / entries skipped.
        self.measured: set = {"bench"}
        self.missing: List[str] = []
        self._saved: List[Tuple[Any, str, Any]] = []
        #: Clusters built since the last :meth:`harvest`.
        self.clusters: List[Any] = []
        self.sim = SimTotals()
        self.bytestore_bytes = 0

    # -- spans ---------------------------------------------------------
    def entry(self, layer: str, name: str) -> int:
        key = (layer, name)
        eid = self._entry_ids.get(key)
        if eid is None:
            eid = self._entry_ids[key] = len(self.entries)
            self.entries.append(key)
            self.self_s.append(0.0)
            self.calls.append(0)
        return eid

    def open(self, eid: int) -> int:
        idx = len(self.starts)
        stack = self._stack
        self.parents.append(stack[-1] if stack else -1)
        self.entry_of.append(eid)
        self.point_of.append(self.point)
        self.ends.append(0.0)
        stack.append(idx)
        self._child.append(0.0)
        self.starts.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        top = self._stack.pop()
        child = self._child.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} was innermost")
        self.ends[idx] = end
        dur = end - self.starts[idx]
        eid = self.entry_of[idx]
        self.self_s[eid] += dur - child
        self.calls[eid] += 1
        if self._child:
            self._child[-1] += dur

    def drive(self, gen, eid: int):
        """Run ``gen`` with one span per resumption; forwards ``send``,
        ``throw`` and ``close`` and returns the generator's value."""
        value = None
        error: Optional[BaseException] = None
        while True:
            idx = self.open(eid)
            try:
                if error is None:
                    target = gen.send(value)
                else:
                    target = gen.throw(error)
            except StopIteration as stop:
                return stop.value
            finally:
                self.close(idx)
            error = None
            try:
                value = yield target
            except GeneratorExit:
                idx = self.open(eid)
                try:
                    gen.close()
                finally:
                    self.close(idx)
                raise
            except BaseException as exc:  # forwarded into the wrapped generator
                error = exc
                value = None

    # -- wrappers ------------------------------------------------------
    def wrap(self, fn: Callable, eid: int, after: Optional[Callable] = None) -> Callable:
        """A span-recording stand-in for ``fn``; ``after(args, result)``
        runs after the span closes."""
        rec = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return rec.drive(fn(*args, **kwargs), eid)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(eid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if after is not None:
                after(args, out)
            if type(out) is GeneratorType:
                return rec.drive(out, eid)
            return out

        return wrapper

    def _after_hook(self, layer: str, name: str) -> Optional[Callable]:
        if name == "Cluster.build":
            return self._track_cluster
        if layer == "storage.bytestore":
            return self._count_bytes
        return None

    def _track_cluster(self, _args, cluster) -> None:
        cluster.tracer.enabled = True
        self.clusters.append(cluster)

    def _count_bytes(self, args, _out) -> None:
        self.bytestore_bytes += int(args[2].total_bytes)

    # -- patching ------------------------------------------------------
    def install(self, entry_points=ENTRY_POINTS) -> None:
        """Patch every resolvable entry point; record the missing ones."""
        for layer, module_name, target in entry_points:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(f"{module_name} (module)")
                continue
            if "." in target:
                cls_name, names = target.split(".", 1)
                cls = getattr(module, cls_name, None)
                if not isinstance(cls, type):
                    self.missing.append(f"{module_name}.{cls_name}")
                    continue
                self._patch_class(layer, cls, names)
            elif target == "*":
                for name, fn in list(vars(module).items()):
                    if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                        self._patch_function(layer, fn, f"{module_name}.{name}")
            else:
                for name in target.split("|"):
                    fn = getattr(module, name, None)
                    if not inspect.isfunction(fn):
                        self.missing.append(f"{module_name}.{name}")
                        continue
                    self._patch_function(layer, fn, f"{module_name}.{name}")

    def _patch_class(self, layer: str, cls: type, names: str) -> None:
        own = vars(cls)
        if names == "*":
            wanted = [n for n in own if not (n.startswith("__") and n.endswith("__"))]
        else:
            wanted = names.split("|")
        for name in wanted:
            raw = own.get(name)
            qual = f"{cls.__name__}.{name}"
            if isinstance(raw, (staticmethod, classmethod)):
                fn, kind = raw.__func__, type(raw)
            elif inspect.isfunction(raw):
                fn, kind = raw, None
            else:
                # ``Class.*`` skips properties and other attributes; a
                # named method the class no longer defines is missing.
                if names != "*":
                    self.missing.append(qual)
                continue
            eid = self.entry(layer, qual)
            wrapped = self.wrap(fn, eid, self._after_hook(layer, qual))
            self._saved.append((cls, name, raw))
            setattr(cls, name, kind(wrapped) if kind else wrapped)
            self.measured.add(layer)

    def _patch_function(self, layer: str, fn: Callable, qual: str) -> None:
        eid = self.entry(layer, qual.rsplit(".", 1)[-1])
        wrapped = self.wrap(fn, eid, self._after_hook(layer, qual))
        for name, module in list(sys.modules.items()):
            if module is None or not name.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._saved.append((module, attr, fn))
                    setattr(module, attr, wrapped)
        self.measured.add(layer)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse patch order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- per point -----------------------------------------------------
    def harvest(self, obs=None) -> None:
        """Fold the clusters built since the last call into the simulated-
        clock totals and let them go (bounds the pass's memory)."""
        for cluster in self.clusters:
            self.sim.fold(cluster)
        self.clusters.clear()
        if obs is not None:
            obs.runs.clear()

    # -- reading -------------------------------------------------------
    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for (layer, _name), s in zip(self.entries, self.self_s):
            out[layer] = out.get(layer, 0.0) + s
        return out

    def layer_calls(self) -> Dict[str, int]:
        out = {layer: 0 for layer in LAYERS}
        for (layer, _name), n in zip(self.entries, self.calls):
            out[layer] = out.get(layer, 0) + n
        return out

    def entry_self(self, *names: str) -> float:
        return sum(s for (_layer, name), s in zip(self.entries, self.self_s) if name in names)

    @property
    def n_spans(self) -> int:
        return len(self.starts)

    def write_spans(self, path) -> None:
        """Write the spans as one tab-separated line each (gzip), times in
        seconds from the first span's start."""
        import gzip

        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tpoint\tlayer\tentry\tstart_s\tend_s\n")
            names = [f"{layer}\t{name}" for layer, name in self.entries]
            for i in range(len(self.starts)):
                fh.write(
                    f"{i}\t{self.parents[i]}\t{self.point_of[i]}\t{names[self.entry_of[i]]}"
                    f"\t{self.starts[i] - t0:.9f}\t{self.ends[i] - t0:.9f}\n"
                )
