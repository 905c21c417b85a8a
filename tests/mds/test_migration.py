"""Two-phase-commit migration: freezing, journalling, authority flips."""

import pytest

from repro.clients.ops import OpKind
from repro.cluster import SimulatedCluster
from repro.mds.migration import ExportUnit
from tests.conftest import make_config, send_request


def build_cluster(num_mds=2, files=20):
    cluster = SimulatedCluster(make_config(num_mds=num_mds))
    cluster.namespace.mkdirs("/d/sub")
    for i in range(files):
        cluster.namespace.create(f"/d/f{i}")
        cluster.namespace.create(f"/d/sub/g{i}")
    return cluster


class TestExportUnit:
    def test_subtree_unit(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        unit = ExportUnit(d)
        assert unit.is_subtree
        assert unit.path() == "/d"
        # 20 files + sub dir + 20 files in sub + the directory itself.
        assert unit.inode_count() == 42

    def test_dirfrag_unit(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        frag = next(iter(d.frags.values()))
        unit = ExportUnit(frag)
        assert not unit.is_subtree
        assert unit.dir_path() == "/d"
        assert unit.inode_count() == 21  # 20 files + 'sub'

    def test_freeze_unfreeze(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        unit = ExportUnit(d)
        unit.freeze()
        assert all(f.frozen for f in unit.frags())
        unit.unfreeze()
        assert not any(f.frozen for f in unit.frags())

    def test_subtree_freeze_covers_descendants(self):
        cluster = build_cluster()
        unit = ExportUnit(cluster.namespace.resolve_dir("/d"))
        unit.freeze()
        sub = cluster.namespace.resolve_dir("/d/sub")
        assert all(f.frozen for f in sub.frags.values())
        unit.unfreeze()

    def test_set_auth_flips_subtree(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        ExportUnit(d).set_auth(1)
        assert d.authority() == 1
        assert cluster.namespace.resolve_dir("/d/sub").authority() == 1

    def test_load_uses_metaload_fn(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        cluster.namespace.record_hit(d, "f1", "IWR", now=0.0)
        unit = ExportUnit(d)
        assert unit.load(lambda s: s["IWR"], now=0.0) == pytest.approx(1.0)


class TestMigrator:
    def test_export_flips_authority(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        exporter = cluster.mdss[0]
        process = exporter.migrator.export(ExportUnit(d), 1)
        cluster.engine.run_until_complete(process.completion)
        assert d.authority() == 1
        assert exporter.migrator.exports_completed == 1
        assert cluster.metrics.mds(0).migrations == 1
        assert cluster.metrics.mds(1).imports == 1

    def test_export_takes_time_and_journals(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        exporter = cluster.mdss[0]
        importer = cluster.mdss[1]
        before = (exporter.journal.segments_flushed,
                  importer.journal.segments_flushed)
        process = exporter.migrator.export(ExportUnit(d), 1)
        cluster.engine.run_until_complete(process.completion)
        assert cluster.engine.now >= cluster.config.migration_base_time
        assert exporter.journal.segments_flushed > before[0]  # EExport
        assert importer.journal.segments_flushed > before[1]  # EImport

    def test_unit_unfrozen_after_export(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        unit = ExportUnit(d)
        process = cluster.mdss[0].migrator.export(unit, 1)
        cluster.engine.run_until_complete(process.completion)
        assert not any(f.frozen for f in unit.frags())

    def test_sessions_flushed_on_export(self):
        cluster = build_cluster()
        exporter = cluster.mdss[0]
        exporter.sessions.record_request(7, "/d", now=0.0)
        d = cluster.namespace.resolve_dir("/d")
        process = exporter.migrator.export(ExportUnit(d), 1)
        cluster.engine.run_until_complete(process.completion)
        assert cluster.metrics.mds(0).session_flushes == 1

    def test_export_to_self_rejected(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        with pytest.raises(ValueError):
            cluster.mdss[0].migrator.export(ExportUnit(d), 0)

    def test_export_to_unknown_rank_rejected(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        with pytest.raises(ValueError):
            cluster.mdss[0].migrator.export(ExportUnit(d), 7)

    def test_double_export_rejected_while_frozen(self):
        cluster = build_cluster(num_mds=3)
        d = cluster.namespace.resolve_dir("/d")
        cluster.mdss[0].migrator.export(ExportUnit(d), 1)
        cluster.engine.run_until(0.001)  # let the freeze happen
        with pytest.raises(RuntimeError):
            cluster.mdss[0].migrator.export(ExportUnit(d), 2)

    def test_requests_stall_during_migration(self):
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        process = cluster.mdss[0].migrator.export(ExportUnit(d), 1)
        cluster.engine.run_until(0.001)
        reply, _req = send_request(cluster, OpKind.CREATE, "/d/new")
        assert reply.ok
        # Served only after the two-phase commit finished, by the importer.
        assert process.completion.done
        assert reply.served_by == 1

    def test_inodes_exported_counted(self):
        cluster = build_cluster(files=10)
        d = cluster.namespace.resolve_dir("/d")
        process = cluster.mdss[0].migrator.export(ExportUnit(d), 1)
        cluster.engine.run_until_complete(process.completion)
        assert cluster.mdss[0].migrator.inodes_exported == 22

    def test_export_to_crashed_rank_rolls_back(self):
        # The balancer can still pick a rank that died inside the beacon
        # grace; the export must not hand that rank authority.
        cluster = build_cluster()
        d = cluster.namespace.resolve_dir("/d")
        d.fragment(extra_bits=1)
        frag = next(iter(d.frags.values()))
        exporter = cluster.mdss[0]
        cluster.mdss[1].crash()
        process = exporter.migrator.export(ExportUnit(frag), 1)
        cluster.engine.run_until_complete(process.completion)
        assert frag.authority() == 0
        assert all(f.authority() == 0 for f in d.frags.values())
        assert not any(f.frozen for f in d.frags.values())
        assert exporter.migrator.exports_aborted == 1
        assert exporter.migrator.exports_completed == 0
