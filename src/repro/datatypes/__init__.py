"""MPI-style derived datatypes (flattened to region lists, ROMIO-style)."""

from .base import BYTE, Contiguous, Datatype, DatatypeError, Predefined, Resized

__all__ = [
    "Datatype",
    "DatatypeError",
    "Predefined",
    "BYTE",
    "Contiguous",
    "Resized",
]
