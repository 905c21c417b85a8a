"""Rename: namespace semantics and the §4.1 cross-MDS session flush."""

import pytest

from repro.clients.ops import OpKind
from repro.cluster import SimulatedCluster, run_experiment
from repro.namespace.tree import Namespace
from repro.workloads import TraceWorkload
from tests.conftest import make_config, send_request


def issue(cluster, kind, path, rank=0, dst=None):
    return send_request(cluster, kind, path, rank, dst=dst)[0]


class TestNamespaceRename:
    def test_file_rename_same_dir(self):
        namespace = Namespace()
        namespace.mkdirs("/d")
        namespace.create("/d/old")
        inode = namespace.rename("/d/old", "/d/new")
        assert inode.name == "new"
        assert namespace.exists("/d/new")
        assert not namespace.exists("/d/old")

    def test_file_rename_across_dirs(self):
        namespace = Namespace()
        namespace.mkdirs("/a")
        namespace.mkdirs("/b")
        namespace.create("/a/f")
        namespace.rename("/a/f", "/b/f")
        assert namespace.exists("/b/f")
        assert namespace.resolve_dir("/a").entry_count() == 0

    def test_directory_rename_moves_subtree(self):
        namespace = Namespace()
        namespace.mkdirs("/a/sub")
        namespace.create("/a/sub/f")
        namespace.mkdirs("/b")
        namespace.rename("/a/sub", "/b/moved")
        assert namespace.exists("/b/moved/f")
        moved = namespace.resolve_dir("/b/moved")
        assert moved.parent is namespace.resolve_dir("/b")
        assert moved.path() == "/b/moved"

    def test_rename_preserves_inode_and_counts(self):
        namespace = Namespace()
        namespace.mkdirs("/d")
        inode = namespace.create("/d/f")
        before = (namespace.inode_count, namespace.dir_count)
        moved = namespace.rename("/d/f", "/d/g")
        assert moved is inode
        assert (namespace.inode_count, namespace.dir_count) == before

    def test_rename_missing_source(self):
        namespace = Namespace()
        namespace.mkdirs("/d")
        with pytest.raises(FileNotFoundError):
            namespace.rename("/d/ghost", "/d/x")

    def test_rename_onto_existing_target(self):
        namespace = Namespace()
        namespace.mkdirs("/d")
        namespace.create("/d/a")
        namespace.create("/d/b")
        with pytest.raises(FileExistsError):
            namespace.rename("/d/a", "/d/b")

    def test_rename_dir_under_itself_rejected(self):
        namespace = Namespace()
        namespace.mkdirs("/a/b")
        with pytest.raises(ValueError):
            namespace.rename("/a", "/a/b/a")

    def test_rename_updates_mtime(self):
        namespace = Namespace()
        namespace.mkdirs("/d")
        inode = namespace.create("/d/f", now=1.0)
        namespace.rename("/d/f", "/d/g", now=5.0)
        assert inode.mtime == 5.0


class TestMdsRename:
    def test_rename_served(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        cluster.namespace.create("/d/old")
        reply = issue(cluster, OpKind.RENAME, "/d/old", dst="/d/new")
        assert reply.ok
        assert cluster.namespace.exists("/d/new")

    def test_rename_without_dst_einval(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        cluster.namespace.create("/d/f")
        reply = issue(cluster, OpKind.RENAME, "/d/f")
        assert reply.error == "EINVAL"

    def test_rename_missing_src_enoent(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        reply = issue(cluster, OpKind.RENAME, "/d/ghost", dst="/d/x")
        assert reply.error == "ENOENT"

    def test_cross_mds_rename_flushes_sessions(self):
        """Paper §4.1: sessions are flushed when slave MDS nodes rename
        directories across ranks."""
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/src")
        cluster.namespace.mkdirs("/dstdir")
        cluster.namespace.create("/src/f")
        cluster.pin("/dstdir", 1)
        # A session with caps on the source directory.
        cluster.mdss[0].sessions.record_request(9, "/src", now=0.0)
        reply = issue(cluster, OpKind.RENAME, "/src/f", dst="/dstdir/f")
        assert reply.ok
        assert cluster.metrics.mds(0).session_flushes >= 1

    def test_same_rank_rename_does_not_flush(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        cluster.namespace.create("/d/a")
        cluster.mdss[0].sessions.record_request(9, "/d", now=0.0)
        reply = issue(cluster, OpKind.RENAME, "/d/a", dst="/d/b")
        assert reply.ok
        assert cluster.metrics.mds(0).session_flushes == 0

    def test_rename_in_trace_workload(self):
        trace = {0: [
            (OpKind.MKDIR, "/t"),
            (OpKind.CREATE, "/t/tmp"),
            (OpKind.RENAME, "/t/tmp", "/t/final"),
            (OpKind.STAT, "/t/final"),
        ]}
        report = run_experiment(make_config(num_mds=1),
                                TraceWorkload(trace))
        assert report.total_ops == 4
        assert report.metrics.latencies.all_latencies().size == 4

    def test_rename_counts_as_write_load(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        cluster.namespace.mkdirs("/d")
        cluster.namespace.create("/d/f")
        issue(cluster, OpKind.RENAME, "/d/f", dst="/d/g")
        d = cluster.namespace.resolve_dir("/d")
        assert d.load_snapshot(cluster.engine.now)["IWR"] > 0
