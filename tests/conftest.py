"""Shared fixtures: small, fast cluster configurations for tests."""

from __future__ import annotations

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
