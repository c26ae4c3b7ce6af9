"""File metadata kept by the PVFS manager daemon.

The manager owns the namespace (path -> metadata) and the striping
parameters of every file; it never touches file data (paper Section 2: "The
manager does not participate in read/write operations").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional

from ..config import StripeParams
from ..errors import FileExistsError_, NoSuchFileError

__all__ = ["FileMetadata", "Namespace"]


@dataclass
class FileMetadata:
    """Everything the manager knows about one file."""

    path: str
    stripe: StripeParams
    file_id: int
    size: int = 0  # logical EOF (highest byte ever written + 1)
    open_count: int = 0

    def grow_to(self, end: int) -> None:
        if end > self.size:
            self.size = end


class Namespace:
    """The manager's path table."""

    def __init__(self, default_stripe: StripeParams) -> None:
        self.default_stripe = default_stripe
        #: File ids count from 1 per namespace, so they do not depend on
        #: what ran earlier in the process.
        self._file_ids = itertools.count(1)
        self._by_path: Dict[str, FileMetadata] = {}
        self._by_id: Dict[int, FileMetadata] = {}

    def create(
        self,
        path: str,
        stripe: Optional[StripeParams] = None,
        exclusive: bool = False,
    ) -> FileMetadata:
        if path in self._by_path:
            if exclusive:
                raise FileExistsError_(f"file exists: {path}")
            return self._by_path[path]
        meta = FileMetadata(
            path=path, stripe=stripe or self.default_stripe, file_id=next(self._file_ids)
        )
        self._by_path[path] = meta
        self._by_id[meta.file_id] = meta
        return meta

    def lookup(self, path: str) -> FileMetadata:
        try:
            return self._by_path[path]
        except KeyError:
            raise NoSuchFileError(f"no such file: {path}") from None

    def by_id(self, file_id: int) -> FileMetadata:
        try:
            return self._by_id[file_id]
        except KeyError:
            raise NoSuchFileError(f"no such file id: {file_id}") from None
