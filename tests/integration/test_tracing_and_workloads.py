"""Trace recording/replay, the checkpoint workload, hash partitioning."""

import pytest

from repro.cluster import SimulatedCluster, run_experiment
from repro.clients.ops import OpKind
from repro.core.policies import STOCK_POLICIES
from repro.metrics.tracing import (load_ops, record_run, replay_workload,
                                   save_ops)
from repro.workloads import CheckpointWorkload, CreateWorkload
from tests.conftest import make_config
from tests.integration.test_golden_digests import (GOLDEN, report_digest,
                                                    scenario)


class TestTraceRecording:
    def run_recorded(self, files=200):
        cluster = SimulatedCluster(make_config(num_mds=1))
        workload = CreateWorkload(num_clients=2, files_per_client=files)
        return record_run(cluster, workload)

    def test_records_every_op(self):
        report = self.run_recorded()
        ops = report.ops
        assert len(ops) == report.total_ops
        assert {op.client_id for op in ops} == {0, 1}
        assert all(op.error is None for op in ops)
        assert sum(op.latency for op in ops) / len(ops) > 0

    def test_latency_is_the_one_the_client_observed(self):
        """The record stops the clock where the report does: when the
        reply reaches the client, not when the MDS applies the op."""
        cluster = SimulatedCluster(make_config(num_mds=2))
        workload = CreateWorkload(num_clients=2, files_per_client=500)
        report = record_run(cluster, workload)
        latencies = report.metrics.latencies
        ops = report.ops
        assert sum(op.latency for op in ops) / len(ops) == pytest.approx(
            latencies.mean(), abs=1e-6)
        for client_id in (0, 1):
            assert [op.latency for op in ops if op.client_id == client_id] \
                == latencies.client_latencies(client_id).tolist()

    def test_events_are_time_ordered_per_client(self):
        ops = self.run_recorded().ops
        for client_id in (0, 1):
            times = [op.time for op in ops if op.client_id == client_id]
            assert times == sorted(times)

    def test_save_and_load_roundtrip(self, tmp_path):
        ops = self.run_recorded(files=50).ops
        path = save_ops(ops, tmp_path / "run.jsonl")
        assert load_ops(path) == ops

    def test_replay_against_another_balancer(self):
        """The paper's methodology: same ops, different strategy."""
        original = self.run_recorded(files=300)

        from repro.core.policies import greedy_spill_policy
        replay = run_experiment(
            make_config(num_mds=2, seed=99),
            replay_workload(original.ops),
            policy=greedy_spill_policy(),
        )
        assert replay.total_ops == original.total_ops

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            replay_workload([])

    def test_plain_run_after_recording_records_nothing(self):
        """Recording is per cluster and per run: a plain run afterwards
        records no ops and matches its golden digest."""
        recorded_report = self.run_recorded(files=20)
        assert not recorded_report.metrics.record_ops
        recorded = len(recorded_report.ops)
        config, workload, policy = scenario("create_shared")
        cluster = SimulatedCluster(config,
                                   policy=STOCK_POLICIES[policy]())
        report = cluster.run_workload(workload)
        assert not cluster.metrics.record_ops
        assert report.ops == []
        assert len(recorded_report.ops) == recorded
        assert report_digest(report) == GOLDEN["create_shared"]

    @pytest.mark.parametrize("think_time", [0.0, 0.001])
    def test_one_reply_recorded_per_completed_op(self, think_time):
        """Each reply is recorded exactly once, whether the next op is
        issued from the reply itself or after a think-time event."""
        cluster = SimulatedCluster(make_config(
            num_mds=2, client_pipeline=2, client_think_time=think_time))
        workload = CreateWorkload(num_clients=3, files_per_client=150)
        report = record_run(cluster, workload)
        assert sum(client.ops_completed
                   for client in cluster.clients) == workload.total_ops()
        for client in cluster.clients:
            ops = [op for op in report.ops
                   if op.client_id == client.client_id]
            assert len(ops) == client.ops_completed
            assert sorted(op.path for op in ops) == sorted(
                path for _kind, path in workload.client_ops(client.client_id))
        if think_time > 0:
            # A worker retires only after its last op's think time.
            last = max(op.time for op in report.ops)
            assert report.makespan >= last + think_time


class TestCheckpointWorkload:
    def test_op_structure(self):
        workload = CheckpointWorkload(num_clients=2, rounds=3,
                                      files_per_round=50)
        ops = list(workload.client_ops(0))
        kinds = [k for k, _p in ops]
        assert kinds.count(OpKind.CREATE) == 150
        assert OpKind.STAT in kinds  # verification of earlier rounds
        assert len(ops) == workload.total_ops() // 2

    def test_round_directories_shared_across_clients(self):
        workload = CheckpointWorkload(num_clients=3, rounds=2,
                                      files_per_round=10)
        dirs0 = {p.rsplit("/", 1)[0] for k, p in workload.client_ops(0)
                 if k is OpKind.CREATE}
        dirs1 = {p.rsplit("/", 1)[0] for k, p in workload.client_ops(1)
                 if k is OpKind.CREATE}
        assert dirs0 == dirs1  # everyone checkpoints into the same dirs

    def test_verification_reads_previous_round(self):
        workload = CheckpointWorkload(num_clients=1, rounds=2,
                                      files_per_round=20)
        ops = list(workload.client_ops(0))
        stats = [p for k, p in ops if k is OpKind.STAT]
        assert all("round0000" in p for p in stats)

    def test_runs_end_to_end(self):
        workload = CheckpointWorkload(num_clients=2, rounds=2,
                                      files_per_round=100)
        report = run_experiment(make_config(num_mds=2), workload)
        assert report.total_ops == workload.total_ops()

    def test_no_verify_mode(self):
        workload = CheckpointWorkload(num_clients=1, rounds=2,
                                      files_per_round=10, verify=False)
        kinds = {k for k, _p in workload.client_ops(0)}
        assert kinds == {OpKind.CREATE}

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CheckpointWorkload(num_clients=0)
        with pytest.raises(ValueError):
            CheckpointWorkload(num_clients=1, rounds=0)


class TestHashPartition:
    def test_pins_every_top_level_dir(self):
        cluster = SimulatedCluster(make_config(num_mds=3))
        for name in ("a", "b", "c", "d", "e"):
            cluster.namespace.mkdirs(f"/{name}")
        pinned = cluster.hash_partition(depth=1)
        assert pinned == 5
        auths = {cluster.namespace.resolve_dir(f"/{n}").authority()
                 for n in "abcde"}
        assert len(auths) >= 2  # actually spread

    def test_deterministic(self):
        def auth_map():
            cluster = SimulatedCluster(make_config(num_mds=3))
            for name in ("a", "b", "c"):
                cluster.namespace.mkdirs(f"/{name}")
            cluster.hash_partition(depth=1)
            return {n: cluster.namespace.resolve_dir(f"/{n}").authority()
                    for n in "abc"}

        assert auth_map() == auth_map()

    def test_hashing_destroys_locality_for_one_client(self):
        """The paper's §2.1/§5 argument: hashing balances but a single
        client's traffic now crosses ranks."""
        config = make_config(num_mds=3, num_clients=1)
        workload = CreateWorkload(num_clients=1, files_per_client=100)

        local = SimulatedCluster(config)
        local_report = local.run_workload(workload)

        hashed = SimulatedCluster(make_config(num_mds=3, num_clients=1))
        # Pre-create the client dir so it can be hash-pinned.
        hashed.namespace.mkdirs("/work/client0")
        hashed.hash_partition(depth=2)
        hashed_report = hashed.run_workload(
            CreateWorkload(num_clients=1, files_per_client=100))
        served_ranks = {rank for rank, ops in
                        hashed_report.per_mds_ops().items() if ops > 0}
        # With hashing the single client may land anywhere; with subtree
        # locality it stays on rank 0.
        local_ranks = {rank for rank, ops in
                       local_report.per_mds_ops().items() if ops > 0}
        assert local_ranks == {0}
        assert served_ranks  # sanity
