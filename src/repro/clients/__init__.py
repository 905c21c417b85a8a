"""Simulated clients and the metadata operations they issue."""

from .client import Client, WorkloadOp, build_clients
from .ops import MetaRequest, OpKind

__all__ = [
    "Client",
    "MetaRequest",
    "OpKind",
    "WorkloadOp",
    "build_clients",
]
