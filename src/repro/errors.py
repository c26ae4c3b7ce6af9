"""Exception hierarchy for pvfs-sim.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while letting
programming errors (``TypeError`` from bad call signatures, etc.) propagate.
"""

from __future__ import annotations

import builtins

__all__ = [
    "ReproError",
    "RegionError",
    "SimulationError",
    "DeadlockError",
    "NetworkError",
    "StorageError",
    "PVFSError",
    "FileNotOpenError",
    "NoSuchFileError",
    "FileExistsError_",
    "ProtocolError",
    "ConfigError",
    "PatternError",
    "ModelError",
    "BenchError",
    "SchemaMismatchError",
    "FaultError",
    "TimeoutError",
    "ServerCrashed",
    "ServerFenced",
    "RetryExhausted",
]


class ReproError(Exception):
    """Base class for every exception raised by pvfs-sim."""


class RegionError(ReproError):
    """Raised for invalid region lists (negative lengths, overflow, mismatched
    memory/file byte counts, ...)."""


class SimulationError(ReproError):
    """Raised for misuse of the discrete-event kernel (scheduling in the past,
    triggering an already-triggered event, running a finished simulation)."""


class DeadlockError(SimulationError):
    """Raised when :meth:`repro.simulate.Simulator.run` is asked to run to
    completion but live processes remain with no scheduled events."""


class NetworkError(ReproError):
    """Raised for invalid network operations (unknown node, zero-byte
    transfer to self, malformed message)."""


class StorageError(ReproError):
    """Raised by the disk / cache / byte-store substrate."""


class PVFSError(ReproError):
    """Base class for file-system level failures."""


class FileNotOpenError(PVFSError):
    """An operation was attempted on a closed file handle."""


class NoSuchFileError(PVFSError):
    """The named file does not exist on the manager."""


class FileExistsError_(PVFSError):
    """``create=True, exclusive=True`` open of an existing file."""


class ProtocolError(PVFSError):
    """A malformed request or response crossed the simulated wire."""


class ConfigError(ReproError):
    """Raised for invalid configuration (non-positive bandwidth, zero
    servers, stripe size that is not a positive integer, ...)."""


class PatternError(ReproError):
    """Raised by access-pattern generators for infeasible parameters
    (e.g. a block-block decomposition whose client count is not a square)."""


class ModelError(ReproError):
    """Raised by the analytic performance model."""


class BenchError(ReproError):
    """Raised by the benchmark-regression harness (:mod:`repro.bench`) for
    malformed result files, unknown scenarios, or in-run determinism
    violations."""


class SchemaMismatchError(BenchError):
    """A ``BENCH_*.json`` file was written under a different schema version
    than this code supports; regenerate it with ``pvfs-sim bench run``."""


class FaultError(ReproError):
    """Base class for injected-fault failures a robust client can retry or
    surface (see :mod:`repro.faults`)."""


class TimeoutError(FaultError, builtins.TimeoutError):
    """A request exceeded its per-request timeout budget.

    Also derives from the builtin ``TimeoutError`` so generic handlers work.
    """


class ServerCrashed(FaultError):
    """The I/O daemon holding the request crashed (or refused the
    connection while down) before acknowledging it."""


class ServerFenced(FaultError):
    """The I/O daemon was fenced by the manager (epoch-numbered fencing
    token) and refuses every request until it resyncs and rejoins.

    Unlike :class:`ServerCrashed`, a fenced refusal is *authoritative* —
    retrying the same daemon cannot succeed, so clients skip the backoff
    loop and fail over to a replica immediately.  ``epoch`` carries the
    fencing token so zombie restarts can never serve stale acks.
    """

    def __init__(self, message: str, epoch: int = 0) -> None:
        super().__init__(message)
        self.epoch = epoch


class RetryExhausted(FaultError):
    """The retry budget ran out before any attempt succeeded.

    ``last_error`` holds the failure of the final attempt; ``attempts`` the
    number of tries made (first attempt included).
    """

    def __init__(self, message: str, attempts: int = 0, last_error=None) -> None:
        super().__init__(message)
        self.attempts = attempts
        self.last_error = last_error
