"""Configuration dataclasses for the simulated cluster.

The defaults model the Chiba City configuration used in the paper's
evaluation (Section 4.1):

* 100 Mbit/s full-duplex Fast Ethernet, 1500-byte MTU,
* 9 GB Quantum Atlas IV SCSI disk per I/O node,
* 512 MB of RAM per node (of which a slice acts as buffer cache),
* 8 PVFS I/O daemons, one doubling as the metadata manager,
* default stripe size of 16,384 bytes,
* list I/O trailing data capped at 64 file regions so that a request fits
  in a single Ethernet frame (Section 3.3).

Every knob is overridable; :class:`ClusterConfig.chiba_city` returns the
paper configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError
from .faults.plan import FaultConfig
from .units import KiB, MiB, Mbit_per_s, msec, usec

__all__ = [
    "NetworkConfig",
    "DiskConfig",
    "CacheConfig",
    "CostModel",
    "StripeParams",
    "ClusterConfig",
    "FaultConfig",
    "DEFAULT_LIST_IO_MAX_REGIONS",
    "DEFAULT_SIEVE_BUFFER_SIZE",
]

#: Paper, Section 3.3: at most 64 file regions per list I/O request so that
#: the request plus trailing data fits one 1500-byte Ethernet packet.
DEFAULT_LIST_IO_MAX_REGIONS = 64

#: Paper, Section 3.2: "We chose to set the data sieving buffer at 32 MB".
DEFAULT_SIEVE_BUFFER_SIZE = 32 * MiB


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise ConfigError(what)


@dataclass(frozen=True)
class NetworkConfig:
    """Fast-Ethernet style network parameters.

    The wire model is frame-based: a payload of ``n`` bytes is carried in
    ``ceil(n / mtu_payload)`` frames, each adding ``frame_overhead`` bytes on
    the wire (Ethernet preamble + header + FCS + inter-frame gap + IP/TCP
    headers).  ``latency`` is the one-way propagation + stack traversal
    delay charged per message.
    """

    bandwidth: float = Mbit_per_s(100.0)  # bytes/second on the wire
    latency: float = usec(60.0)  # one-way per-message latency, seconds
    mtu: int = 1500  # Ethernet MTU in bytes
    ip_tcp_overhead: int = 40  # IPv4 + TCP headers inside the MTU
    frame_overhead: int = 38  # preamble(8)+eth hdr(14)+FCS(4)+IFG(12)
    #: TCP retransmission timeout charged per lost frame (and as the
    #: reconnect delay after a link-flap window) under fault injection —
    #: the Linux minimum RTO of the paper's era.  Irrelevant without faults.
    retransmit_timeout: float = msec(200.0)

    def __post_init__(self) -> None:
        _require(self.bandwidth > 0, "bandwidth must be positive")
        _require(self.latency >= 0, "latency must be non-negative")
        _require(self.mtu > self.ip_tcp_overhead, "mtu must exceed IP/TCP overhead")
        _require(self.frame_overhead >= 0, "frame_overhead must be non-negative")
        _require(self.retransmit_timeout >= 0, "retransmit_timeout must be non-negative")

    @property
    def mtu_payload(self) -> int:
        """Useful payload bytes per frame (MTU minus IP/TCP headers)."""
        return self.mtu - self.ip_tcp_overhead

    def frames_for(self, payload: int) -> int:
        """Number of frames needed to carry ``payload`` bytes (min 1)."""
        if payload <= 0:
            return 1
        return -(-payload // self.mtu_payload)

    def wire_bytes(self, payload: int) -> int:
        """Total bytes on the wire for ``payload`` bytes of application data."""
        frames = self.frames_for(payload)
        return max(payload, 0) + frames * (self.frame_overhead + self.ip_tcp_overhead)

    def transmit_time(self, payload: int) -> float:
        """Serialization time (seconds) for ``payload`` bytes, excluding latency."""
        return self.wire_bytes(payload) / self.bandwidth

    def describe(self, payload: int) -> dict:
        """Frame-level breakdown of one message, for trace annotation.

        Returns payload/wire byte counts, the frame count, and the
        latency/serialization split in seconds — the numbers an observer
        needs to tell "many tiny frames" from "few full frames" when
        reading a captured trace.
        """
        return {
            "payload_bytes": payload,
            "wire_bytes": self.wire_bytes(payload),
            "frames": self.frames_for(payload),
            "latency_s": self.latency,
            "serialization_s": self.transmit_time(payload),
        }


@dataclass(frozen=True)
class DiskConfig:
    """Single-disk performance model (Quantum Atlas IV class).

    A batch of accesses is charged ``seek_time + rotational_latency`` per
    *discontiguous run* plus ``bytes / transfer_rate`` for the data, i.e.
    sequential runs pay the mechanical positioning cost once.
    """

    seek_time: float = msec(6.9)  # average seek
    rotational_latency: float = msec(4.17)  # half revolution at 7200 rpm
    transfer_rate: float = 20.0e6  # sustained media rate, bytes/second
    capacity: int = 9 * 1000 * MiB  # ~9 GB

    def __post_init__(self) -> None:
        _require(self.seek_time >= 0, "seek_time must be non-negative")
        _require(self.rotational_latency >= 0, "rotational_latency must be non-negative")
        _require(self.transfer_rate > 0, "transfer_rate must be positive")
        _require(self.capacity > 0, "capacity must be positive")

    @property
    def positioning_time(self) -> float:
        """Mechanical cost of starting one discontiguous run."""
        return self.seek_time + self.rotational_latency


@dataclass(frozen=True)
class CacheConfig:
    """Server-side write-back buffer cache (models the Linux page cache on
    I/O nodes)."""

    capacity: int = 256 * MiB  # bytes of cache per I/O node
    block_size: int = 4 * KiB  # page size
    memory_copy_rate: float = 400.0e6  # bytes/second for cache hits
    #: Sequential readahead window fetched on a read miss (Linux readahead).
    readahead: int = 128 * KiB

    def __post_init__(self) -> None:
        _require(self.capacity >= 0, "cache capacity must be non-negative")
        _require(self.block_size > 0, "block_size must be positive")
        _require(self.memory_copy_rate > 0, "memory_copy_rate must be positive")
        _require(self.readahead >= 0, "readahead must be non-negative")

    @property
    def n_blocks(self) -> int:
        return self.capacity // self.block_size


@dataclass(frozen=True)
class CostModel:
    """CPU / software-path costs charged by the simulated daemons.

    These are the calibration constants described in DESIGN.md Section 8.
    They were chosen so that the paper's qualitative magnitudes hold (e.g.
    multiple I/O at hundreds of seconds for ~10^6-request read workloads,
    writes roughly two orders of magnitude above list I/O).
    """

    #: Server-side cost to parse and set up any I/O request.
    iod_request_cost: float = usec(250.0)
    #: Server-side cost per file region described in a request (list decode,
    #: per-region bookkeeping, iovec setup).
    iod_region_cost: float = usec(12.0)
    #: Client library cost to build and issue one request.
    client_request_cost: float = usec(120.0)
    #: Client-observed turnaround penalty per *write* request exchange.
    #: Models the small-write pathology of 2002 TCP stacks (Nagle +
    #: delayed-ACK interaction) plus synchronous iod acknowledgement —
    #: the mechanism that puts the paper's Figure 10/12 write times two
    #: orders of magnitude above list I/O.  Calibrated so multiple I/O
    #: writes land in the paper's measured decade.
    client_write_turnaround: float = msec(40.0)
    #: Client library cost per region placed in a request description.
    client_region_cost: float = usec(1.5)
    #: Manager metadata operation service time (open/close/create).
    manager_op_cost: float = usec(900.0)
    #: Per-write-request commit cost on the I/O server: the iod issues its
    #: write(2) and the local fs orders a journal/metadata update before the
    #: ack (observed PVFS 1.x behaviour; combined with the client-side
    #: turnaround below, this is what makes small-write request storms
    #: catastrophic in Figures 10/12).
    iod_write_commit_cost: float = msec(3.0)
    #: In-memory data movement rate for client-side scatter/gather and
    #: data-sieving extraction (bytes/second).
    memcpy_rate: float = 400.0e6

    def __post_init__(self) -> None:
        for name in (
            "iod_request_cost",
            "iod_region_cost",
            "client_request_cost",
            "client_write_turnaround",
            "client_region_cost",
            "manager_op_cost",
            "iod_write_commit_cost",
        ):
            _require(getattr(self, name) >= 0, f"{name} must be non-negative")
        _require(self.memcpy_rate > 0, "memcpy_rate must be positive")


@dataclass(frozen=True)
class StripeParams:
    """User-controlled PVFS striping parameters (paper Figure 2).

    ``base`` is the first I/O node used, ``pcount`` the number of I/O nodes
    the file is striped across (``None`` = all), ``stripe_size`` the size of
    each stripe unit in bytes.

    ``replicas`` extends the paper's layout with chain replication: every
    stripe keeps a primary copy plus ``replicas - 1`` mirrors on the
    following I/O nodes (see :func:`repro.pvfs.striping.replica_chain`).
    The paper's PVFS is ``replicas=1`` — no redundancy, which is the
    default and stays bit-identical to the original code path.
    """

    stripe_size: int = 16384  # paper default, Section 4.1
    base: int = 0
    pcount: Optional[int] = None
    #: Copies of every stripe (1 = no replication, the paper's layout).
    replicas: int = 1

    def __post_init__(self) -> None:
        _require(self.stripe_size > 0, "stripe_size must be positive")
        _require(self.base >= 0, "base must be non-negative")
        if self.pcount is not None:
            _require(self.pcount > 0, "pcount must be positive when given")
        _require(self.replicas >= 1, "replicas must be >= 1")

    def resolve_pcount(self, n_iods: int) -> int:
        """Number of servers actually used given a cluster with ``n_iods``."""
        # Called for every logical request, so the messages are formatted
        # only when a check fails.
        if n_iods <= 0:
            raise ConfigError("cluster must have at least one I/O server")
        pc = self.pcount if self.pcount is not None else n_iods
        if pc > n_iods:
            raise ConfigError(f"pcount {pc} exceeds available I/O servers {n_iods}")
        if self.base >= n_iods:
            raise ConfigError(f"base {self.base} out of range for {n_iods} servers")
        return pc

    def resolve_replicas(self, n_iods: int) -> int:
        """Copies per stripe given a cluster with ``n_iods`` (validated so
        two copies of a stripe can never co-locate on one daemon)."""
        _require(
            self.replicas <= n_iods,
            f"replicas {self.replicas} exceeds available I/O servers {n_iods}",
        )
        return self.replicas


@dataclass(frozen=True)
class ClusterConfig:
    """Complete description of a simulated PVFS deployment."""

    n_clients: int = 8
    n_iods: int = 8
    network: NetworkConfig = field(default_factory=NetworkConfig)
    disk: DiskConfig = field(default_factory=DiskConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    costs: CostModel = field(default_factory=CostModel)
    stripe: StripeParams = field(default_factory=StripeParams)
    #: Trailing-data cap per list I/O request (paper: 64).
    list_io_max_regions: int = DEFAULT_LIST_IO_MAX_REGIONS
    #: Client data-sieving buffer size (paper: 32 MB).
    sieve_buffer_size: int = DEFAULT_SIEVE_BUFFER_SIZE
    #: Write-acknowledgement policy under replication (``stripe.replicas``
    #: > 1): ``"primary"`` acks once the first live chain member committed
    #: (remaining copies complete in the background, joined at close/fsync);
    #: ``"quorum"`` waits for a majority of the chain.  Ignored without
    #: replication.
    ack_policy: str = "primary"
    #: RNG seed for the fault injector's frame-loss draws and the clients'
    #: retry backoff jitter (kept deterministic).
    seed: int = 0x5EED
    #: Fault schedule + client retry policy (see :mod:`repro.faults`).  The
    #: default is inert: empty plan, no timeouts, no retries — runs are
    #: bit-identical to a cluster with no fault subsystem at all.
    faults: FaultConfig = field(default_factory=FaultConfig)

    def __post_init__(self) -> None:
        _require(self.n_clients > 0, "n_clients must be positive")
        _require(self.n_iods > 0, "n_iods must be positive")
        _require(self.list_io_max_regions > 0, "list_io_max_regions must be positive")
        _require(self.sieve_buffer_size > 0, "sieve_buffer_size must be positive")
        # Trailing data must fit the design target: each region is described
        # by an (offset, length) pair of 8-byte integers.
        self.stripe.resolve_pcount(self.n_iods)
        self.stripe.resolve_replicas(self.n_iods)
        _require(
            self.ack_policy in ("primary", "quorum"),
            f"ack_policy must be 'primary' or 'quorum', got {self.ack_policy!r}",
        )

    def with_(self, **kwargs) -> "ClusterConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)

    @classmethod
    def chiba_city(cls, n_clients: int = 8, n_iods: int = 8, **kwargs) -> "ClusterConfig":
        """The paper's evaluation configuration (Section 4.1)."""
        return cls(n_clients=n_clients, n_iods=n_iods, **kwargs)
