"""Client behaviour: op streams, subtree/fragtree learning, pipelining."""

import pytest

from repro.clients.client import Client
from repro.clients.ops import OpKind
from repro.cluster import SimulatedCluster
from tests.conftest import make_config, parsed_request


def run_client(cluster, ops, client_id=0, pipeline=1):
    client = Client(cluster.engine, client_id, cluster.network,
                    cluster.mdss, cluster.metrics, iter(ops),
                    pipeline=pipeline)
    client.start()
    cluster.engine.run_until_complete(client.done)
    return client


class TestBasicFlow:
    def test_ops_complete_in_order(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        ops = [(OpKind.MKDIR, "/d")] + [
            (OpKind.CREATE, f"/d/f{i}") for i in range(10)
        ]
        client = run_client(cluster, ops)
        assert client.ops_completed == 11
        assert client.errors == 0
        assert cluster.namespace.exists("/d/f9")

    def test_latencies_recorded(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        run_client(cluster, [(OpKind.MKDIR, "/d")])
        latencies = cluster.metrics.latencies.client_latencies(0)
        assert len(latencies) == 1
        assert latencies[0] > 0

    def test_finish_time_recorded(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        run_client(cluster, [(OpKind.MKDIR, "/d")])
        assert cluster.metrics.client_finish_times[0] > 0
        assert cluster.metrics.client_op_counts[0] == 1

    def test_errors_counted_but_not_fatal(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        client = run_client(cluster, [(OpKind.STAT, "/ghost"),
                                      (OpKind.MKDIR, "/d")])
        assert client.errors == 1
        assert client.ops_completed == 2

    def test_second_reply_to_a_completed_request_raises(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        client = Client(cluster.engine, 0, cluster.network, cluster.mdss,
                        cluster.metrics, iter([]))
        req = client._issue(OpKind.MKDIR, "/d")
        assert req.client is client and not req.done
        cluster.engine.run()
        assert req.done and client.ops_completed == 1
        with pytest.raises(RuntimeError, match="op already completed"):
            client.receive_reply(req, 0, None, None, "/", ((0, 0, 0),))
        assert client.ops_completed == 1
        assert len(cluster.metrics.latencies.client_latencies(0)) == 1

    def test_empty_op_stream_finishes_immediately(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        client = run_client(cluster, [])
        assert client.ops_completed == 0


class TestPipelining:
    def test_pipeline_overlaps_requests(self):
        ops = [(OpKind.CREATE, f"/f{i}") for i in range(200)]
        slow = SimulatedCluster(make_config(num_mds=1, seed=5))
        run_client(slow, list(ops), pipeline=1)
        serial_time = slow.engine.now

        fast = SimulatedCluster(make_config(num_mds=1, seed=5))
        run_client(fast, list(ops), pipeline=4)
        assert fast.engine.now < serial_time

    def test_pipeline_completes_all_ops(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        ops = [(OpKind.CREATE, f"/f{i}") for i in range(57)]
        client = run_client(cluster, ops, pipeline=3)
        assert client.ops_completed == 57


class TestLearning:
    def test_client_learns_serving_rank(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        cluster.pin("/d", 1)
        client = run_client(cluster, [(OpKind.CREATE, "/d/a"),
                                      (OpKind.CREATE, "/d/b")])
        # First op was forwarded; the second should go straight to rank 1.
        assert client.mds_map["/d"] == 1
        assert cluster.metrics.mds(0).forwards == 1

    def test_client_learns_frag_map(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        cluster.namespace.mkdirs("/d")
        d = cluster.namespace.resolve_dir("/d")
        for i in range(8):
            cluster.namespace.create(f"/d/f{i}")
        d.fragment(extra_bits=1)
        frags = list(d.frags.values())
        frags[1].set_auth(1)
        client = run_client(
            cluster, [(OpKind.STAT, f"/d/f{i}") for i in range(8)] * 2
        )
        assert "/d" in client.frag_maps
        # Second pass should route directly: forwards only from pass one.
        total_forwards = sum(m.forwards
                             for m in cluster.metrics.per_mds.values())
        assert total_forwards <= 8

    def test_guess_uses_most_specific_prefix(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        client = Client(cluster.engine, 0, cluster.network, cluster.mdss,
                        cluster.metrics, iter([]))
        client.mds_map["/"] = 0
        client.mds_map["/a/b"] = 1
        assert client._guess(
            parsed_request(OpKind.CREATE, "/a/b/file")) == 1
        assert client._guess(
            parsed_request(OpKind.CREATE, "/a/other")) == 0

    def test_guess_defaults_to_rank0(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        client = Client(cluster.engine, 0, cluster.network, cluster.mdss,
                        cluster.metrics, iter([]))
        assert client._guess(
            parsed_request(OpKind.CREATE, "/anything")) == 0

    def test_readdir_maps_on_directory_itself(self):
        cluster = SimulatedCluster(make_config(num_mds=2))
        client = Client(cluster.engine, 0, cluster.network, cluster.mdss,
                        cluster.metrics, iter([]))
        client.mds_map["/d"] = 1
        assert client._guess(
            parsed_request(OpKind.READDIR, "/d")) == 1


class TestStartDelay:
    def test_start_delay_respected(self):
        cluster = SimulatedCluster(make_config(num_mds=1))
        client = Client(cluster.engine, 0, cluster.network, cluster.mdss,
                        cluster.metrics, iter([(OpKind.MKDIR, "/d")]),
                        start_delay=2.5)
        client.start()
        cluster.engine.run_until_complete(client.done)
        assert client.started_at == pytest.approx(2.5)
