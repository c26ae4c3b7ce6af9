"""Storage substrate: byte stores, buffer cache, and the disk time model."""

from .bytestore import ByteStore
from .cache import BlockCache, CacheStats
from .disk import Disk

__all__ = ["ByteStore", "BlockCache", "CacheStats", "Disk"]
