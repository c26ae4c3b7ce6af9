"""Simulated PVFS: manager, I/O daemons, client library, and striping."""

from .client import PVFSClient, PVFSFile
from .cluster import Cluster, WorkloadResult
from .iod import IOD
from .manager import Manager
from .metadata import FileMetadata, Namespace
from .protocol import (
    BYTES_PER_REGION,
    REQUEST_HEADER_BYTES,
    RESPONSE_HEADER_BYTES,
    IORequest,
    ManagerRequest,
    request_wire_bytes,
    response_wire_bytes,
)
from .replication import DirtyRange, FenceView, ReplicationState
from .striping import ServerSlice, map_regions, replica_chain

__all__ = [
    "Cluster",
    "WorkloadResult",
    "PVFSClient",
    "PVFSFile",
    "IOD",
    "Manager",
    "FileMetadata",
    "Namespace",
    "IORequest",
    "ManagerRequest",
    "request_wire_bytes",
    "response_wire_bytes",
    "REQUEST_HEADER_BYTES",
    "RESPONSE_HEADER_BYTES",
    "BYTES_PER_REGION",
    "ServerSlice",
    "map_regions",
    "replica_chain",
    "ReplicationState",
    "FenceView",
    "DirtyRange",
]
