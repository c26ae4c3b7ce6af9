"""Wire protocol records and byte accounting.

Clients and daemons exchange Python objects through the simulator, but every
message carries an explicit *wire size* so the network model charges the
right serialization time.  The sizes follow the paper's description:

* Every I/O request has a fixed header (file handle, operation, striping
  parameters, one offset/length pair) — :data:`REQUEST_HEADER_BYTES`.
* A *list* request additionally carries trailing data holding the file
  offsets and lengths of each described region
  (:data:`BYTES_PER_REGION` = two 8-byte integers per region).  With the
  64-region cap, header + trailing data fit one 1500-byte Ethernet frame —
  exactly the paper's design point (Section 3.3).
* Write requests carry their data in-band after the trailing data; read
  responses carry data after a small response header.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..errors import ProtocolError
from ..regions import RegionList
from ..simulate import Event

__all__ = [
    "REQUEST_HEADER_BYTES",
    "RESPONSE_HEADER_BYTES",
    "BYTES_PER_REGION",
    "MGMT_REQUEST_BYTES",
    "MGMT_RESPONSE_BYTES",
    "request_wire_bytes",
    "response_wire_bytes",
    "IORequest",
    "ManagerRequest",
]

#: Fixed I/O request header: handle, op code, flags, striping params, and
#: one inline (offset, length) pair for contiguous requests.
REQUEST_HEADER_BYTES = 64
#: Response header: status, error code, byte count.
RESPONSE_HEADER_BYTES = 40
#: Trailing data per described region: int64 offset + int64 length.
BYTES_PER_REGION = 16
#: Metadata operations are small fixed-size messages.
MGMT_REQUEST_BYTES = 256
MGMT_RESPONSE_BYTES = 256

_request_ids = itertools.count()


def request_wire_bytes(n_regions: int, data_bytes: int = 0) -> int:
    """Application payload of an I/O request.

    A contiguous request (``n_regions == 1``) describes its single region in
    the header; list requests add trailing data for every region.
    """
    if n_regions < 1:
        raise ProtocolError("a request must describe at least one region")
    if data_bytes < 0:
        raise ProtocolError("negative data_bytes")
    trailing = BYTES_PER_REGION * n_regions if n_regions > 1 else 0
    return REQUEST_HEADER_BYTES + trailing + data_bytes


def response_wire_bytes(data_bytes: int = 0) -> int:
    if data_bytes < 0:
        raise ProtocolError("negative data_bytes")
    return RESPONSE_HEADER_BYTES + data_bytes


@dataclass(slots=True)
class IORequest:
    """One request as received by an I/O daemon.

    ``regions`` are *physical* runs in the server's stripe file, in request
    stream order; the trailing data describes each of them (or fills
    ``wire_regions`` descriptor slots).  For writes, ``data`` is the in-band
    payload (or ``None`` when the run is timing-only).  ``response`` is the
    event the client waits on; the iod succeeds it with the read data /
    write ack.
    """

    kind: str  # "read" | "write"
    file_id: int
    regions: RegionList
    client_node: object  # network Node of the requesting client
    response: Event
    data: Optional[np.ndarray] = None
    #: When set, the trailing data describes the regions compactly in this
    #: many 16-byte descriptor slots (e.g. a vector datatype uses 2 slots
    #: regardless of region count) — the Section 5 "datatype request"
    #: extension.  ``None`` means one slot per region (plain list I/O).
    wire_regions: Optional[int] = None
    #: Replication: when set, this request targets the *replica copy* of
    #: the stripes whose primary is daemon ``replica_of``, stored on the
    #: receiving daemon under the ``(file_id, replica_of)`` key (see
    #: :attr:`store_key`).  ``None`` = the primary copy — the only case
    #: that exists without replication, keeping the paper path unchanged.
    replica_of: Optional[int] = None
    #: Clients and daemons draw this from their cluster's ``request_ids``;
    #: the process-wide default only numbers requests built by hand.
    request_id: int = field(default_factory=lambda: next(_request_ids))
    #: Simulation time the request entered the iod's inbox (set by the
    #: client; lets the tracer separate queue wait from service time).
    enqueued_at: Optional[float] = None

    _KINDS = ("read", "write", "fsync")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ProtocolError(f"unknown request kind {self.kind!r}")
        if self.wire_regions is not None and self.wire_regions < 1:
            raise ProtocolError("wire_regions must be >= 1 when given")
        if self.kind == "write" and self.data is not None:
            if self.data.size != self.regions.total_bytes:
                raise ProtocolError(
                    f"write payload {self.data.size} B != region volume "
                    f"{self.regions.total_bytes} B"
                )

    @property
    def store_key(self):
        """Byte-store / disk-model key on the receiving daemon: the bare
        ``file_id`` for primary copies, ``(file_id, primary)`` for replica
        copies — mirrors live at the same physical offsets as the primary
        stripes, so they need their own namespace on the host daemon."""
        if self.replica_of is None:
            return self.file_id
        return (self.file_id, self.replica_of)

    @property
    def data_bytes(self) -> int:
        """In-band data volume (writes carry data; reads carry none)."""
        return self.regions.total_bytes if self.kind == "write" else 0

    @property
    def wire_bytes(self) -> int:
        slots = self.wire_regions if self.wire_regions is not None else self.regions.count
        return request_wire_bytes(max(slots, 1), self.data_bytes)

    @property
    def response_bytes(self) -> int:
        data = self.regions.total_bytes if self.kind == "read" else 0
        return response_wire_bytes(data)


@dataclass
class ManagerRequest:
    """A metadata operation (open / close, and the fencing ops
    report_failure / rejoin); ``create`` makes an open create."""

    op: str
    path: Optional[str] = None
    file_id: Optional[int] = None
    client_node: object = None
    response: Event = None
    create: bool = False
    size_hint: int = 0
    #: User-controlled striping for create (paper Figure 2: "files in PVFS
    #: can be striped according to user parameters").  None = fs default.
    stripe: object = None
    #: Target daemon of a fencing operation (``report_failure`` names the
    #: unresponsive daemon; ``rejoin`` the resynced one asking back in).
    iod: Optional[int] = None

    _OPS = ("open", "close", "report_failure", "rejoin")

    def __post_init__(self) -> None:
        if self.op not in self._OPS:
            raise ProtocolError(f"unknown manager op {self.op!r}")

    @property
    def wire_bytes(self) -> int:
        return MGMT_REQUEST_BYTES

    @property
    def response_bytes(self) -> int:
        return MGMT_RESPONSE_BYTES
