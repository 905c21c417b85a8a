"""Workload generators: create storms, compile jobs, zipf, traces."""

import numpy as np
import pytest

from repro.clients.ops import OpKind
from repro.namespace.tree import Namespace
from repro.workloads import (
    CompileWorkload,
    CreateWorkload,
    TraceWorkload,
    ZipfWorkload,
    zipf_weights,
)


class TestCreateWorkload:
    def test_private_dirs_start_with_mkdir(self):
        workload = CreateWorkload(num_clients=2, files_per_client=3)
        ops = list(workload.client_ops(0))
        assert ops[0] == (OpKind.MKDIR, "/work/client0")
        assert all(kind is OpKind.CREATE for kind, _p in ops[1:])
        assert len(ops) == 4

    def test_shared_dir_prepared_not_mkdired(self):
        workload = CreateWorkload(num_clients=2, files_per_client=3,
                                  shared_dir=True)
        namespace = Namespace()
        workload.prepare(namespace)
        assert namespace.exists("/work/shared")
        ops = list(workload.client_ops(1))
        assert all(kind is OpKind.CREATE for kind, _p in ops)

    def test_shared_names_unique_across_clients(self):
        workload = CreateWorkload(num_clients=3, files_per_client=5,
                                  shared_dir=True)
        paths = set()
        for cid in range(3):
            paths.update(p for _k, p in workload.client_ops(cid))
        assert len(paths) == 15

    def test_stat_every(self):
        workload = CreateWorkload(num_clients=1, files_per_client=10,
                                  stat_every=5)
        kinds = [k for k, _p in workload.client_ops(0)]
        assert kinds.count(OpKind.STAT) == 2

    def test_total_ops(self):
        workload = CreateWorkload(num_clients=2, files_per_client=10)
        assert workload.total_ops() == 22  # (10 creates + 1 mkdir) * 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CreateWorkload(num_clients=0, files_per_client=1)
        with pytest.raises(ValueError):
            CreateWorkload(num_clients=1, files_per_client=0)


class TestCompileWorkload:
    def test_phases_present(self):
        workload = CompileWorkload(num_clients=1, scale=0.5)
        ops = list(workload.client_ops(0))
        kinds = [k for k, _p in ops]
        assert OpKind.MKDIR in kinds
        assert OpKind.CREATE in kinds
        assert OpKind.STAT in kinds
        assert OpKind.OPEN in kinds
        assert OpKind.READDIR in kinds

    def test_untar_comes_before_link(self):
        workload = CompileWorkload(num_clients=1, scale=0.5)
        kinds = [k for k, _p in workload.client_ops(0)]
        assert kinds.index(OpKind.MKDIR) < kinds.index(OpKind.READDIR)

    def test_clients_use_separate_roots(self):
        workload = CompileWorkload(num_clients=2, scale=0.5)
        paths0 = {p for _k, p in workload.client_ops(0)}
        paths1 = {p for _k, p in workload.client_ops(1)}
        assert all(p.startswith("/src/client0") for p in paths0)
        assert all(p.startswith("/src/client1") for p in paths1)

    def test_deterministic_given_seed(self):
        a = list(CompileWorkload(1, scale=0.5, seed=3).client_ops(0))
        b = list(CompileWorkload(1, scale=0.5, seed=3).client_ops(0))
        assert a == b

    def test_different_seeds_differ(self):
        a = list(CompileWorkload(1, scale=0.5, seed=3).client_ops(0))
        b = list(CompileWorkload(1, scale=0.5, seed=4).client_ops(0))
        assert a != b

    def test_hotspots_concentrate_in_hot_dirs(self):
        """Fig 1: compile traffic concentrates in arch/kernel/fs/mm."""
        workload = CompileWorkload(num_clients=1, scale=1.0, seed=0)
        opens = [p for k, p in workload.client_ops(0) if k is OpKind.OPEN]
        hot = sum(1 for p in opens
                  if any(f"/client0/{d}/" in p
                         for d in ("arch", "kernel", "fs", "mm")))
        assert hot / len(opens) > 0.5

    def test_total_ops_matches_stream(self):
        workload = CompileWorkload(num_clients=2, scale=0.5, seed=1)
        actual = sum(len(list(workload.client_ops(cid))) for cid in range(2))
        assert workload.total_ops() == actual

    def test_link_passes_scale_readdirs(self):
        one = CompileWorkload(1, scale=0.5, link_passes=1)
        four = CompileWorkload(1, scale=0.5, link_passes=4)
        count = lambda w: sum(1 for k, _p in w.client_ops(0)
                              if k is OpKind.READDIR)
        assert count(four) == 4 * count(one)

    def test_object_files_keep_a_dotted_base(self):
        """Only a source's ".c" suffix becomes ".oN": a ".c" in the base
        path stays, so each object lands beside its source."""
        dotted = CompileWorkload(1, scale=0.05, base="/proj.c", seed=1)
        plain = CompileWorkload(1, scale=0.05, base="/src", seed=1)
        ops = list(dotted.client_ops(0))
        assert ops == [(kind, "/proj.c" + path[len("/src"):])
                       for kind, path in plain.client_ops(0)]
        made = {"/proj.c"} | {p for k, p in ops if k is OpKind.MKDIR}
        objects = [p for k, p in ops
                   if k is OpKind.CREATE and ".o" in p.rsplit("/", 1)[1]]
        assert len(objects) == 14
        for path in objects:
            directory, name = path.rsplit("/", 1)
            assert directory in made
            assert name[:-1].endswith(".o") and name[-1] in "0123456"

    def test_scale_controls_size(self):
        small = CompileWorkload(1, scale=0.5).total_ops()
        large = CompileWorkload(1, scale=2.0).total_ops()
        assert large > 2 * small


class TestZipf:
    def test_weights_normalised_and_decreasing(self):
        weights = zipf_weights(100, alpha=1.1)
        assert weights.sum() == pytest.approx(1.0)
        assert all(weights[i] >= weights[i + 1] for i in range(99))

    def test_prepare_creates_population(self):
        workload = ZipfWorkload(num_clients=1, num_files=50,
                                ops_per_client=10, num_dirs=4)
        namespace = Namespace()
        workload.prepare(namespace)
        assert namespace.inode_count >= 51

    def test_ops_reference_existing_files(self):
        workload = ZipfWorkload(num_clients=1, num_files=50,
                                ops_per_client=30, write_fraction=0.0)
        namespace = Namespace()
        workload.prepare(namespace)
        for kind, path in workload.client_ops(0):
            assert kind is OpKind.STAT
            assert namespace.exists(path)

    def test_write_fraction(self):
        workload = ZipfWorkload(num_clients=1, num_files=50,
                                ops_per_client=1000, write_fraction=0.3,
                                seed=1)
        kinds = [k for k, _p in workload.client_ops(0)]
        creates = kinds.count(OpKind.CREATE)
        assert creates == pytest.approx(300, rel=0.2)

    def test_skew_popularity(self):
        workload = ZipfWorkload(num_clients=1, num_files=1000,
                                ops_per_client=2000, alpha=1.2,
                                write_fraction=0.0, seed=2)
        paths = [p for _k, p in workload.client_ops(0)]
        top = max(paths.count(p) for p in set(paths))
        assert top > 2000 / 1000 * 10  # far above uniform


class TestTrace:
    def test_replay_exact(self):
        trace = {0: [(OpKind.MKDIR, "/t"), (OpKind.CREATE, "/t/f")]}
        workload = TraceWorkload(trace)
        assert list(workload.client_ops(0)) == trace[0]

    def test_prepare_creates_parents(self):
        workload = TraceWorkload({0: [(OpKind.CREATE, "/deep/nested/f")]})
        namespace = Namespace()
        workload.prepare(namespace)
        assert namespace.exists("/deep/nested")

    def test_client_ids_validated(self):
        with pytest.raises(ValueError):
            TraceWorkload({1: [(OpKind.STAT, "/x")]})
        with pytest.raises(ValueError):
            TraceWorkload({})

    def test_total_ops(self):
        workload = TraceWorkload({0: [(OpKind.STAT, "/x")] * 3,
                                  1: [(OpKind.STAT, "/y")] * 2})
        assert workload.total_ops() == 5
