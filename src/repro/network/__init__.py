"""Switched Fast-Ethernet network model (see :mod:`repro.network.fabric`)."""

from .fabric import Network, Node

__all__ = ["Network", "Node"]
