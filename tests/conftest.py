"""Shared fixtures: small, fast cluster configurations for tests."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import pytest

from repro.clients.ops import MetaRequest, parse_op_path
from repro.config import ClusterConfig


@pytest.fixture
def small_config() -> ClusterConfig:
    """A cluster config scaled for unit/integration tests (fast runs)."""
    return ClusterConfig(
        num_mds=2,
        num_clients=2,
        num_osds=6,
        seed=42,
        dir_split_size=400,
        cache_capacity=50_000,
        heartbeat_interval=2.0,
        heartbeat_pack_time=0.010,
        rebalance_delay=0.08,
        decay_half_life=1.0,
    )


def make_config(**overrides) -> ClusterConfig:
    """Helper for tests that need variations of the small config."""
    base = dict(
        num_mds=2,
        num_clients=2,
        num_osds=6,
        seed=42,
        dir_split_size=400,
        cache_capacity=50_000,
        heartbeat_interval=2.0,
        heartbeat_pack_time=0.010,
        rebalance_delay=0.08,
        decay_half_life=1.0,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def parsed_request(kind, path) -> MetaRequest:
    """A request parsed the way ``Client._issue`` parses it."""
    dir_path, leaf = parse_op_path(kind, path)
    return MetaRequest(kind=kind, path=path, client_id=0,
                       dir_path=dir_path, leaf=leaf)


@dataclass
class Reply:
    """The arguments of one ``receive_reply`` call, and the request's
    forward count and latency (issue to arrival) when it arrived."""

    served_by: int
    error: Optional[str]
    result: Any
    dir_path: Optional[str]
    frag_map: Optional[tuple]
    forwards: int
    latency: float

    @property
    def ok(self) -> bool:
        return self.error is None


class ReplyCatcher:
    """A stand-in client for tests that drive MDS ranks directly.

    The MDS replies through ``req.client.receive_reply``, as to a real
    client; this one marks the request done and succeeds :attr:`replied`
    with a :class:`Reply` of the reply values.
    """

    def __init__(self, engine) -> None:
        self.engine = engine
        self.replied = engine.completion()

    def receive_reply(self, req, served_by, error, result, dir_path,
                      frag_map) -> None:
        if req.done:
            raise RuntimeError("op already completed")
        req.done = True
        self.replied.succeed(Reply(served_by, error, result, dir_path,
                                   frag_map, req.forwards,
                                   self.engine.now - req.issued_at))


def awaited_request(cluster, kind, path, client_id=0, dst=None):
    """``(req, replied)``: an unparsed request issued now, whose reply
    succeeds the completion *replied* with a :class:`Reply`."""
    catcher = ReplyCatcher(cluster.engine)
    req = MetaRequest(kind, path, client_id, catcher, cluster.engine.now, dst)
    return req, catcher.replied


def send_request(cluster, kind, path, rank=0, client_id=0, dst=None):
    """Send one request to *rank* and run until its reply arrives:
    ``(reply, req)``."""
    req, replied = awaited_request(cluster, kind, path, client_id, dst)
    cluster.network.deliver(cluster.mdss[rank].receive_request, req)
    return cluster.engine.run_until_complete(replied), req
