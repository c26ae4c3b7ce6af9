"""``pvfs-sim serve`` — the HTTP/JSON simulation daemon.

Stdlib :class:`http.server.ThreadingHTTPServer` front, bounded worker
pool back.  Requests never run simulations: ``POST /v1/jobs`` validates
the payload, content-addresses it, and either enqueues a new job or
answers with the existing one (dedup); worker threads drain the queue
through :func:`repro.sweep.run_sweep` with the shared
:class:`~repro.sweep.ResultCache`, so a resubmitted spec is served
without recomputation at *two* levels — job dedup above, per-point
cache below.

Wire protocol (all JSON; see ``docs/service.md`` for examples):

====================================  =======================================
``GET  /v1/health``                   liveness + code fingerprint
``POST /v1/jobs``                     submit a job (``202``; ``200`` deduped)
``GET  /v1/jobs``                     list job summaries
``GET  /v1/jobs/<id>``                one job's state and progress
``GET  /v1/jobs/<id>/result``         points of a ``done`` job (``409`` else)
``GET  /v1/metrics``                  metrics registry snapshot
``POST /v1/shutdown``                 graceful stop
====================================  =======================================

Observability: every request is logged as one JSON line (method, path,
status, duration), and the registry carries
``service.jobs.{accepted,deduped,completed,failed}`` counters, a
``service.queue.depth`` gauge, and a ``service.job.wall_s`` histogram.
"""

from __future__ import annotations

import json
import queue
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..errors import ReproError
from ..obs.metrics import MetricsRegistry
from ..sweep.engine import run_sweep
from ..sweep.fingerprint import code_fingerprint
from .builders import build_job
from .jobs import JobStore, job_key
from .wire import SpecPayloadError

__all__ = ["ServiceDaemon", "DEFAULT_HOST", "DEFAULT_PORT"]

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Body size cap: a figure job is a few hundred bytes; even a raw sweep
#: of thousands of specs stays far below this.
_MAX_BODY = 16 * 1024 * 1024


class ServiceDaemon:
    """The long-lived service: HTTP front, job queue, worker pool.

    ``start()``/``stop()`` give tests an in-process daemon on an
    ephemeral port; ``serve_forever()`` is the CLI entry point.  All
    mutable job state is guarded by the store's lock; the metrics
    registry has its own (the engine itself never touches either).
    """

    def __init__(
        self,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        *,
        workers: int = 2,
        cache=None,
        metrics: Optional[MetricsRegistry] = None,
        log_stream=None,
    ) -> None:
        if workers < 1:
            raise ReproError("service needs at least one worker")
        self.host = host
        self.port = port
        self.n_workers = workers
        self.cache = cache
        self.metrics = metrics if metrics is not None else MetricsRegistry(label="service")
        self.store = JobStore()
        self.log_stream = log_stream if log_stream is not None else sys.stderr
        self.fingerprint = code_fingerprint()
        self._queue: "queue.Queue[str]" = queue.Queue()
        self._metrics_lock = threading.Lock()
        self._log_lock = threading.Lock()
        self._stopping = threading.Event()
        self._workers: List[threading.Thread] = []
        self._server: Optional[ThreadingHTTPServer] = None
        self._serve_thread: Optional[threading.Thread] = None

    # -- lifecycle -------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Bind, spawn workers, serve in a background thread.

        Returns the bound ``(host, port)`` — pass ``port=0`` for an
        ephemeral port (tests do).
        """
        daemon = self

        class Handler(_Handler):
            service = daemon

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self._server.daemon_threads = True
        self.port = self._server.server_address[1]
        for i in range(self.n_workers):
            t = threading.Thread(
                target=self._worker_loop, name=f"service-worker-{i + 1}", daemon=True
            )
            t.start()
            self._workers.append(t)
        self._serve_thread = threading.Thread(
            target=self._server.serve_forever, name="service-http", daemon=True
        )
        self._serve_thread.start()
        self._log(
            {
                "event": "start",
                "host": self.host,
                "port": self.port,
                "workers": self.n_workers,
                "cache": getattr(self.cache, "root", None) and str(self.cache.root),
            }
        )
        return self.host, self.port

    def stop(self) -> None:
        """Stop accepting requests and wind the workers down."""
        if self._stopping.is_set():
            return
        self._stopping.set()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
        for t in self._workers:
            t.join(timeout=5.0)
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=5.0)
        self._log({"event": "stop"})

    def serve_forever(self) -> None:
        """Blocking run (the ``pvfs-sim serve`` path); Ctrl-C stops."""
        self.start()
        try:
            while not self._stopping.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # -- workers ---------------------------------------------------------
    def _worker_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except queue.Empty:
                continue
            job = self.store.get(job_id)
            if job is not None:
                self._run_job(job)
            self._queue.task_done()
            self._set_queue_gauge()

    def _run_job(self, job) -> None:
        with self.store.lock:
            job.state = "running"
            job.started = time.time()

        def progress(_msg: str) -> None:
            with self.store.lock:
                job.completed += 1

        job_metrics = MetricsRegistry()
        try:
            results, stats = run_sweep(
                job.specs,
                jobs=1,
                cache=self.cache,
                metrics=job_metrics,
                label=job.label,
                progress=progress,
            )
        except Exception as exc:  # worker must survive any job failure
            with self.store.lock:
                job.state = "failed"
                job.error = f"{type(exc).__name__}: {exc}"
                job.finished = time.time()
            with self._metrics_lock:
                self.metrics.counter("service.jobs.failed").inc()
            self._log({"event": "job_failed", "job": job.id, "error": job.error})
            return
        with self.store.lock:
            job.results = results
            job.stats = stats
            job.state = "done"
            job.finished = time.time()
            wall = job.finished - job.started
        with self._metrics_lock:
            self.metrics.merge(job_metrics)
            self.metrics.counter("service.jobs.completed").inc()
            self.metrics.counter("service.points.completed").inc(len(results))
            self.metrics.counter("service.points.cache_hits").inc(stats.cache_hits)
            self.metrics.counter("service.points.executed").inc(stats.executed)
            self.metrics.histogram("service.job.wall_s").observe(wall)
        self._log(
            {
                "event": "job_done",
                "job": job.id,
                "points": len(results),
                "cache_hits": stats.cache_hits,
                "executed": stats.executed,
                "wall_s": round(wall, 6),
            }
        )

    # -- submission (called from HTTP handler threads) -------------------
    def submit(self, payload: Any) -> Tuple[Dict[str, Any], bool]:
        """Validate, dedup, and (if new) enqueue one job payload."""
        kind, specs, label = build_job(payload)
        key = job_key(kind, specs, self.fingerprint)
        job, deduped = self.store.submit(kind, specs, label, key)
        with self._metrics_lock:
            if deduped:
                self.metrics.counter("service.jobs.deduped").inc()
            else:
                self.metrics.counter("service.jobs.accepted").inc()
        if not deduped:
            self._queue.put(job.id)
            self._set_queue_gauge()
        with self.store.lock:
            summary = job.summary()
        return summary, deduped

    def result_payload(self, job) -> Dict[str, Any]:
        """The ``/result`` body: points serialized with the same
        ``result_to_json`` the cache and the direct CLI use, in spec
        order — byte-for-byte what a direct ``run_sweep`` would yield."""
        with self.store.lock:
            results = list(job.results or [])
            specs = list(job.specs)
            summary = job.summary()
        return {
            "job": summary,
            "points": [
                spec.result_to_json(result) for spec, result in zip(specs, results)
            ],
        }

    # -- bookkeeping -----------------------------------------------------
    def _set_queue_gauge(self) -> None:
        with self._metrics_lock:
            self.metrics.gauge("service.queue.depth").set(self.store.queue_depth())

    def metrics_snapshot(self) -> Dict[str, Any]:
        with self._metrics_lock:
            return self.metrics.snapshot()

    def _log(self, record: Dict[str, Any]) -> None:
        record = {"t": round(time.time(), 3), **record}
        line = json.dumps(record, sort_keys=True)
        with self._log_lock:
            try:
                self.log_stream.write(line + "\n")
                self.log_stream.flush()
            except (OSError, ValueError):
                pass  # a dead log stream must never kill the service


class _Handler(BaseHTTPRequestHandler):
    """Routes requests to the daemon; all responses are JSON."""

    service: ServiceDaemon  # overridden per daemon in start()
    protocol_version = "HTTP/1.1"

    # -- plumbing --------------------------------------------------------
    def log_message(self, fmt, *args):  # noqa: A003 - stdlib signature
        pass  # the daemon writes its own structured lines

    def _send(self, status: int, body: Dict[str, Any]) -> None:
        blob = json.dumps(body, sort_keys=True).encode()
        # Log and count the request before the client can read the reply,
        # so the client's next request (a metrics read, say) observes it.
        self.service._log(
            {
                "event": "request",
                "method": self.command,
                "path": self.path,
                "status": status,
                "dur_ms": round((time.perf_counter() - self._t0) * 1e3, 3),
            }
        )
        with self.service._metrics_lock:
            self.service.metrics.counter("service.http.requests").inc()
            if status >= 400:
                self.service.metrics.counter("service.http.errors").inc()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(blob)))
        self.end_headers()
        self.wfile.write(blob)

    def _error(self, status: int, err_type: str, message: str) -> None:
        self._send(status, {"error": {"type": err_type, "message": message}})

    def _read_json(self) -> Any:
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY:
            raise SpecPayloadError(f"request body exceeds {_MAX_BODY} bytes")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            raise SpecPayloadError("request body must be a JSON object")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise SpecPayloadError(f"request body is not valid JSON: {exc}") from None

    # -- routes ----------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._t0 = time.perf_counter()
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["v1", "health"]:
            self._send(
                200,
                {
                    "ok": True,
                    "service": "pvfs-sim",
                    "fingerprint": self.service.fingerprint,
                    "workers": self.service.n_workers,
                    "cache": self.service.cache is not None,
                },
            )
        elif parts == ["v1", "jobs"]:
            self._send(200, {"jobs": [j.summary() for j in self.service.store.list()]})
        elif parts == ["v1", "metrics"]:
            self._send(200, self.service.metrics_snapshot())
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            job = self.service.store.get(parts[2])
            if job is None:
                self._error(404, "UnknownJob", f"no such job {parts[2]!r}")
            else:
                self._send(200, {"job": job.summary()})
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            job = self.service.store.get(parts[2])
            if job is None:
                self._error(404, "UnknownJob", f"no such job {parts[2]!r}")
            elif job.state == "failed":
                self._error(409, "JobFailed", job.error or "job failed")
            elif job.state != "done":
                self._error(
                    409, "JobNotDone", f"job {job.id} is {job.state}; wait for 'done'"
                )
            else:
                self._send(200, self.service.result_payload(job))
        else:
            self._error(404, "UnknownRoute", f"no route for GET {self.path}")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._t0 = time.perf_counter()
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["v1", "jobs"]:
            try:
                payload = self._read_json()
                summary, deduped = self.service.submit(payload)
            except SpecPayloadError as exc:
                self._error(400, "SpecPayloadError", str(exc))
                return
            self._send(200 if deduped else 202, {"job": summary, "deduped": deduped})
        elif parts == ["v1", "shutdown"]:
            self._send(200, {"ok": True, "stopping": True})
            threading.Thread(target=self.service.stop, daemon=True).start()
        else:
            self._error(404, "UnknownRoute", f"no route for POST {self.path}")
