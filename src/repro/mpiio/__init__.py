"""MPI-IO on simulated PVFS: file views + two-phase collective I/O."""

from .file import MPIFile, MPIIOError, open_one
from .twophase import (
    Exchange,
    collective_read,
    collective_write,
    partition_file_domains,
    round_count,
    round_window,
    select_aggregators,
)
from .view import FileView

__all__ = [
    "MPIFile",
    "MPIIOError",
    "open_one",
    "FileView",
    "Exchange",
    "collective_read",
    "collective_write",
    "partition_file_domains",
    "round_count",
    "round_window",
    "select_aggregators",
]
