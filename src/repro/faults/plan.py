"""Declarative fault schedules and client retry policy.

The paper's PVFS ships with no fault tolerance: "If an I/O server goes
down, the file system hangs with it."  This module is the *description*
half of the robustness subsystem grown on top of the reproduction — pure
data, no simulation imports — so a fault scenario can live on a frozen
:class:`~repro.config.ClusterConfig`, be hashed, compared, and replayed
bit-identically:

* :class:`IodCrash` / :class:`DiskStall` / :class:`LinkDown` /
  :class:`PacketLoss` / :class:`Straggler` — one scheduled fault each;
* :class:`FaultPlan` — a seeded, validated collection of faults;
* :class:`RetryPolicy` — the client-side survival knobs (per-request
  timeout, exponential backoff with seeded jitter, bounded retry budget);
* :class:`FaultConfig` — plan + policy, the field ``ClusterConfig.faults``
  carries.

The execution half is :class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple, Union

from ..errors import ConfigError

__all__ = [
    "IodCrash",
    "DiskStall",
    "LinkDown",
    "PacketLoss",
    "Straggler",
    "FaultPlan",
    "RetryPolicy",
    "FaultConfig",
    "parse_straggler_spec",
]


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ConfigError(what)


@dataclass(frozen=True)
class IodCrash:
    """I/O daemon ``iod`` crashes at ``at`` and restarts ``restart_after``
    seconds later (``None`` = never comes back).

    On crash the daemon's inbox is dropped, its in-flight request and
    response transmissions are interrupted, and every affected client gets
    :class:`~repro.errors.ServerCrashed`.  On restart the daemon comes back
    with a cold page cache and re-serves file contents from its byte store
    (acknowledged writes are durable; unacknowledged ones rely on client
    replay).
    """

    iod: int
    at: float
    restart_after: Optional[float] = None

    def __post_init__(self) -> None:
        _require(self.iod >= 0, "IodCrash.iod must be non-negative")
        _require(self.at >= 0, "IodCrash.at must be non-negative")
        if self.restart_after is not None:
            _require(self.restart_after > 0, "IodCrash.restart_after must be positive")


@dataclass(frozen=True)
class DiskStall:
    """The disk of I/O daemon ``iod`` serves ``factor`` times slower during
    ``[at, at + duration)`` (a failing drive retrying sectors, RAID rebuild,
    background scrub)."""

    iod: int
    at: float
    duration: float
    factor: float = 10.0

    def __post_init__(self) -> None:
        _require(self.iod >= 0, "DiskStall.iod must be non-negative")
        _require(self.at >= 0, "DiskStall.at must be non-negative")
        _require(self.duration > 0, "DiskStall.duration must be positive")
        _require(self.factor >= 1.0, "DiskStall.factor must be >= 1")


@dataclass(frozen=True)
class LinkDown:
    """Node ``node`` (a network node name such as ``"iod2"`` or
    ``"client0"``) loses its link during ``[at, at + duration)``.

    Messages touching the node during the window stall until the link comes
    back (TCP retransmission riding out a flap), then pay one reconnect
    delay."""

    node: str
    at: float
    duration: float

    def __post_init__(self) -> None:
        _require(bool(self.node), "LinkDown.node must be a node name")
        _require(self.at >= 0, "LinkDown.at must be non-negative")
        _require(self.duration > 0, "LinkDown.duration must be positive")


@dataclass(frozen=True)
class PacketLoss:
    """Node ``node`` drops each frame with probability ``rate`` during
    ``[at, at + duration)``; lost frames cost one TCP retransmission
    timeout each (seeded, deterministic draws)."""

    node: str
    at: float
    duration: float
    rate: float = 0.05

    def __post_init__(self) -> None:
        _require(bool(self.node), "PacketLoss.node must be a node name")
        _require(self.at >= 0, "PacketLoss.at must be non-negative")
        _require(self.duration > 0, "PacketLoss.duration must be positive")
        _require(0.0 < self.rate < 1.0, "PacketLoss.rate must be in (0, 1)")


@dataclass(frozen=True)
class Straggler:
    """I/O daemon ``iod`` serves every request ``scale`` times slower for
    the whole run (the degraded-node knob previously only reachable by
    poking ``IOD.service_scale`` directly)."""

    iod: int
    scale: float

    def __post_init__(self) -> None:
        _require(self.iod >= 0, "Straggler.iod must be non-negative")
        _require(self.scale > 0, "Straggler.scale must be positive")


Fault = Union[IodCrash, DiskStall, LinkDown, PacketLoss, Straggler]


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, declarative schedule of faults.

    ``faults`` is an ordered tuple; the injector executes each at its own
    simulated time.  Identical plan + identical cluster seed => bit-identical
    runs (the test suite enforces this).
    """

    faults: Tuple[Fault, ...] = ()

    def __post_init__(self) -> None:
        for f in self.faults:
            _require(
                isinstance(f, (IodCrash, DiskStall, LinkDown, PacketLoss, Straggler)),
                f"unknown fault record {f!r}",
            )

    def __len__(self) -> int:
        return len(self.faults)

    def stragglers(self) -> Tuple[Straggler, ...]:
        return tuple(f for f in self.faults if isinstance(f, Straggler))

    def scheduled(self) -> Tuple[Fault, ...]:
        """Every fault the injector must drive as a timed process
        (stragglers apply at build time instead)."""
        return tuple(f for f in self.faults if not isinstance(f, Straggler))

    def validate_against(self, n_iods: int, node_names) -> None:
        """Check every fault targets an existing daemon / node."""
        names = set(node_names)
        for f in self.faults:
            if isinstance(f, (IodCrash, DiskStall, Straggler)):
                _require(
                    f.iod < n_iods,
                    f"{type(f).__name__} targets iod {f.iod}, cluster has {n_iods}",
                )
            else:
                _require(
                    f.node in names,
                    f"{type(f).__name__} targets unknown node {f.node!r}",
                )


@dataclass(frozen=True)
class RetryPolicy:
    """Client-side robustness knobs.

    The default policy is *inert* — no timeout, no retries — so a plain
    cluster behaves bit-identically to the pre-fault-subsystem seed.  Enable
    robustness by setting ``request_timeout`` (and usually ``max_retries``).

    Backoff for attempt ``k`` (0-based count of *completed* failures) is::

        delay_k = min(backoff_cap, backoff_base * backoff_factor ** k)

    optionally dilated by up to ``+/- jitter`` (uniform, seeded from the
    cluster seed and the client index, so runs stay reproducible).
    """

    #: Seconds a single attempt may take before the client abandons it
    #: (``None`` disables timeouts — and with them the whole retry path).
    request_timeout: Optional[float] = None
    #: Retries after the first attempt (0 = fail on first error).
    max_retries: int = 0
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0
    #: Relative jitter on each backoff delay (0 = none; 0.1 = +/-10%).
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.request_timeout is not None:
            _require(self.request_timeout > 0, "request_timeout must be positive")
        _require(self.max_retries >= 0, "max_retries must be non-negative")
        _require(self.backoff_base >= 0, "backoff_base must be non-negative")
        _require(self.backoff_factor >= 1.0, "backoff_factor must be >= 1")
        _require(self.backoff_cap >= self.backoff_base, "backoff_cap must be >= backoff_base")
        _require(0.0 <= self.jitter < 1.0, "jitter must be in [0, 1)")

    @property
    def active(self) -> bool:
        """Whether the retry machinery engages at all."""
        return self.request_timeout is not None

    @property
    def budget(self) -> int:
        """Per-request attempt budget: the first attempt plus every retry.

        :class:`~repro.errors.RetryExhausted` carries this as ``attempts``
        once the budget runs out; the failover path spends one full budget
        per replica before moving down the chain.
        """
        return self.max_retries + 1

    def backoff(self, attempt: int, rng=None) -> float:
        """Backoff delay before retry number ``attempt + 1`` (attempt is the
        0-based index of the failure that triggered it)."""
        delay = min(self.backoff_cap, self.backoff_base * self.backoff_factor**attempt)
        if rng is not None and self.jitter > 0.0:
            delay *= 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
        return delay


@dataclass(frozen=True)
class FaultConfig:
    """What can go wrong (``plan``) and how clients survive it (``retry``)."""

    plan: FaultPlan = field(default_factory=FaultPlan)
    retry: RetryPolicy = field(default_factory=RetryPolicy)


def parse_straggler_spec(spec: str) -> Straggler:
    """Parse a CLI ``IDX:SCALE`` straggler spec (e.g. ``0:8``)."""
    try:
        idx_s, scale_s = spec.split(":", 1)
        return Straggler(iod=int(idx_s), scale=float(scale_s))
    except ConfigError:
        raise
    except ValueError:
        raise ConfigError(
            f"bad straggler spec {spec!r}: expected IDX:SCALE (e.g. 0:8)"
        ) from None
