"""Simulated MPI substrate (a barrier and the collective-call rendezvous)."""

from .comm import Communicator

__all__ = ["Communicator"]
