"""The op streams equal the one-draw-per-op generators they replaced.

``CompileWorkload`` draws a chunk's header picks with one ``integers()``
call and ``ZipfWorkload`` walks its drawn arrays a chunk at a time; both
build paths from per-client tables.  The reference functions below are
the straight per-op generators (one scalar draw per pick, one f-string
per path) that the simulator's reports were recorded with, so every op,
and every RNG draw behind it, must come out the same.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clients.ops import OpKind
from repro.namespace.tree import Namespace
from repro.workloads import CompileWorkload, CreateWorkload, ZipfWorkload
from repro.workloads.compile import UNIT_CHUNK
from repro.workloads.patterns import OP_CHUNK, zipf_weights


def _client_rng(seed: int, client_id: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(client_id,)))


def reference_compile_ops(workload: CompileWorkload,
                          client_id: int) -> Iterator[tuple]:
    rng = _client_rng(workload.seed, client_id)
    root = workload.client_root(client_id)
    dirs = workload.tree_dirs()
    yield (OpKind.MKDIR, root)
    seen_tops: set[str] = set()
    source_files: list[tuple[str, float]] = []
    for rel, files, weight in dirs:
        top = rel.split("/")[0]
        if top not in seen_tops:
            seen_tops.add(top)
            yield (OpKind.MKDIR, f"{root}/{top}")
        yield (OpKind.MKDIR, f"{root}/{rel}")
        for index in range(files):
            path = f"{root}/{rel}/src{index:03d}.c"
            source_files.append((path, weight))
            yield (OpKind.CREATE, path)
    weights = np.asarray([w for _p, w in source_files], dtype=float)
    weights /= weights.sum()
    header_dirs = [rel for rel, _f, w in dirs if rel.startswith("include")]
    n_units = int(len(source_files) * workload.compile_passes)
    order = rng.choice(len(source_files), size=n_units, p=weights)
    for unit in order:
        path, _weight = source_files[unit]
        for _ in range(2):
            hdir = header_dirs[int(rng.integers(len(header_dirs)))]
            yield (OpKind.STAT,
                   f"{root}/{hdir}/src{int(rng.integers(4)):03d}.c")
        yield (OpKind.OPEN, path)
        yield (OpKind.CREATE, path.replace(".c", f".o{unit % 7}"))
    for _sweep in range(workload.link_passes):
        for rel, _files, _weight in dirs:
            yield (OpKind.READDIR, f"{root}/{rel}")
    yield (OpKind.CREATE, f"{root}/vmlinux")


def reference_zipf_ops(workload: ZipfWorkload,
                       client_id: int) -> Iterator[tuple]:
    rng = _client_rng(workload.seed, client_id)
    weights = zipf_weights(workload.num_files, workload.alpha)
    choices = rng.choice(workload.num_files, size=workload.ops_per_client,
                         p=weights)
    writes = rng.random(workload.ops_per_client) < workload.write_fraction
    base, num_dirs = workload.base, workload.num_dirs
    for op_index in range(workload.ops_per_client):
        index = int(choices[op_index])
        if writes[op_index]:
            yield (OpKind.CREATE, f"{base}/d{index % num_dirs:03d}/"
                                  f"new{client_id}_{op_index:07d}")
        else:
            yield (OpKind.STAT, f"{base}/d{index % num_dirs:03d}/"
                                f"f{index:07d}")


def reference_zipf_prepared(workload: ZipfWorkload) -> list[str]:
    return [f"{workload.base}/d{index % workload.num_dirs:03d}/f{index:07d}"
            for index in range(workload.num_files)]


def reference_create_ops(workload: CreateWorkload,
                         client_id: int) -> Iterator[tuple]:
    directory = workload.target_dir(client_id)
    if not workload.shared_dir:
        yield (OpKind.MKDIR, directory)
    for index in range(workload.files_per_client):
        path = f"{directory}/f{client_id}_{index:07d}"
        yield (OpKind.CREATE, path)
        if workload.stat_every and (index + 1) % workload.stat_every == 0:
            yield (OpKind.STAT, path)


def source_file_count(scale: float) -> int:
    return sum(files for _d, files, _w in
               CompileWorkload(1, scale=scale).tree_dirs())


def passes_for_units(scale: float, n_units: int) -> float:
    """A ``compile_passes`` that gives exactly *n_units* compile units."""
    passes = (n_units + 0.5) / source_file_count(scale)
    assert int(source_file_count(scale) * passes) == n_units
    return passes


def assert_same_streams(workload, reference) -> None:
    for client_id in range(workload.num_clients):
        assert (list(workload.client_ops(client_id))
                == list(reference(workload, client_id)))
    assert sum(1 for cid in range(workload.num_clients)
               for _op in workload.client_ops(cid)) == workload.total_ops()


class TestCompileStream:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           scale=st.floats(0.02, 0.5),
           passes=st.one_of(st.just(0.0), st.floats(0.05, 0.95),
                            st.floats(1.05, 2.5)),
           link_passes=st.integers(1, 4),
           num_clients=st.integers(1, 3))
    def test_equals_reference(self, seed, scale, passes, link_passes,
                              num_clients):
        workload = CompileWorkload(num_clients, scale=scale, seed=seed,
                                   compile_passes=passes,
                                   link_passes=link_passes)
        assert_same_streams(workload, reference_compile_ops)

    @pytest.mark.parametrize("n_units", [0, 1, UNIT_CHUNK - 1, UNIT_CHUNK,
                                         UNIT_CHUNK + 1])
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_chunk_edges_equal_reference(self, n_units, seed):
        passes = passes_for_units(0.5, n_units)
        workload = CompileWorkload(2, scale=0.5, seed=seed,
                                   compile_passes=passes)
        assert_same_streams(workload, reference_compile_ops)

    def test_full_size_equals_reference(self):
        # perfbench's compile workload: 5 clients at scale 2.0, seed 1.
        workload = CompileWorkload(5, scale=2.0, seed=1)
        assert_same_streams(workload, reference_compile_ops)


class TestZipfStream:
    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           ops=st.sampled_from([1, OP_CHUNK - 1, OP_CHUNK, OP_CHUNK + 1]),
           write_fraction=st.sampled_from([0.0, 0.3, 1.0]),
           num_dirs=st.sampled_from([1, 3, 16]))
    def test_equals_reference(self, seed, ops, write_fraction, num_dirs):
        workload = ZipfWorkload(num_clients=2, num_files=500,
                                ops_per_client=ops,
                                write_fraction=write_fraction,
                                num_dirs=num_dirs, seed=seed)
        assert_same_streams(workload, reference_zipf_ops)

    @pytest.mark.parametrize("num_dirs", [1, 16])
    def test_prepare_creates_reference_paths(self, num_dirs):
        workload = ZipfWorkload(num_clients=1, num_files=300,
                                ops_per_client=1, num_dirs=num_dirs)
        namespace = Namespace()
        workload.prepare(namespace)
        for path in reference_zipf_prepared(workload):
            assert namespace.exists(path)
        assert sum(namespace.resolve_dir(f"/data/d{d:03d}").entry_count()
                   for d in range(num_dirs)) == workload.num_files

    def test_full_size_equals_reference(self):
        # perfbench's zipf_read workload at seed 1.
        workload = ZipfWorkload(num_clients=4, num_files=40_000,
                                ops_per_client=20_000, alpha=1.1,
                                write_fraction=0.1, num_dirs=16, seed=1)
        assert_same_streams(workload, reference_zipf_ops)


class TestCreateStream:
    @settings(max_examples=30, deadline=None)
    @given(num_clients=st.integers(1, 3), files=st.integers(1, 60),
           shared=st.booleans(), stat_every=st.integers(0, 7))
    def test_equals_reference(self, num_clients, files, shared, stat_every):
        workload = CreateWorkload(num_clients, files_per_client=files,
                                  shared_dir=shared, stat_every=stat_every)
        assert_same_streams(workload, reference_create_ops)

    @pytest.mark.parametrize("num_clients,files,shared", [
        (4, 16_000, True),   # perfbench's create_shared
        (20, 3_000, False),  # perfbench's scale20
    ])
    def test_full_size_equals_reference(self, num_clients, files, shared):
        workload = CreateWorkload(num_clients, files_per_client=files,
                                  shared_dir=shared)
        assert_same_streams(workload, reference_create_ops)


class CountingGenerator:
    """A ``numpy`` Generator that records the name of every method call.

    cProfile sees no call into numpy's Cython methods, so this is the only
    way to count the draws an op stream makes."""

    def __init__(self, rng: np.random.Generator, calls: list[str]) -> None:
        self._rng = rng
        self._calls = calls

    def __getattr__(self, name: str):
        method = getattr(self._rng, name)

        def counted(*args, **kwargs):
            self._calls.append(name)
            return method(*args, **kwargs)
        return counted


@pytest.fixture
def generator_calls(monkeypatch) -> list[str]:
    calls: list[str] = []
    default_rng = np.random.default_rng
    monkeypatch.setattr(
        np.random, "default_rng",
        lambda *args, **kwargs: CountingGenerator(
            default_rng(*args, **kwargs), calls))
    return calls


class TestNoDrawPerOp:
    @pytest.mark.parametrize("scale,passes", [(0.25, 1.0), (2.0, 1.0),
                                              (0.5, 2.5)])
    def test_compile_draws_once_per_chunk(self, generator_calls, scale,
                                          passes):
        workload = CompileWorkload(1, scale=scale, seed=7,
                                   compile_passes=passes)
        n_units = int(source_file_count(scale) * passes)
        ops = sum(1 for _op in workload.client_ops(0))
        assert "choice" in generator_calls and "integers" in generator_calls
        assert len(generator_calls) <= 2 + math.ceil(n_units / UNIT_CHUNK)
        assert ops > 4 * n_units

    def test_zipf_draws_each_array_once(self, generator_calls):
        workload = ZipfWorkload(num_clients=1, num_files=2_000,
                                ops_per_client=3 * OP_CHUNK + 5)
        assert sum(1 for _op in workload.client_ops(0)) == 3 * OP_CHUNK + 5
        assert sorted(generator_calls) == ["choice", "random"]
