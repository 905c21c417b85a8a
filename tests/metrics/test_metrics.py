"""Metrics: timelines, latencies, stats helpers, heat sampling."""

import pickle

import numpy as np
import pytest

from repro.metrics.collectors import (
    ClusterMetrics,
    LatencyRecorder,
    MdsMetrics,
    Timeline,
)
from repro.metrics.heatmap import HeatSampler
from repro.metrics.stats import (
    Summary,
    coefficient_of_variation,
    speedup,
    summarize,
)
from repro.namespace.tree import Namespace
from repro.sim.engine import SimEngine


class TestTimeline:
    def test_bucketing(self):
        timeline = Timeline(bucket=1.0)
        timeline.record(0, 0.5)
        timeline.record(0, 0.9)
        timeline.record(0, 1.5)
        series = timeline.series(0)
        assert series[0] == 2.0
        assert series[1] == 1.0

    def test_rate_normalised_by_bucket(self):
        timeline = Timeline(bucket=0.5)
        timeline.record(0, 0.1)
        assert timeline.series(0)[0] == 2.0  # 1 op / 0.5 s

    def test_per_rank_series(self):
        timeline = Timeline()
        timeline.record(0, 0.1)
        timeline.record(1, 0.2)
        timeline.record(1, 0.3)
        assert timeline.ranks() == [0, 1]
        assert timeline.series(1)[0] == 2.0

    def test_total_series_sums_ranks(self):
        timeline = Timeline()
        timeline.record(0, 0.1)
        timeline.record(1, 0.1)
        assert timeline.total_series()[0] == 2.0

    def test_total_ops(self):
        timeline = Timeline()
        for t in (0.1, 1.1, 2.2):
            timeline.record(0, t)
        assert timeline.total_ops() == 3

    def test_until_extends_series(self):
        timeline = Timeline()
        timeline.record(0, 1.0)
        assert len(timeline.series(0, until=10.0)) == 11

    def test_invalid_bucket(self):
        with pytest.raises(ValueError):
            Timeline(bucket=0)


class TestTimelinePickle:
    def test_round_trip_preserves_series(self):
        # SimReports cross process and cache boundaries; the timeline's
        # nested defaultdicts must survive pickling.
        timeline = Timeline(bucket=1.0)
        timeline.record(0, 0.4)
        timeline.record(0, 3.2, amount=5)
        timeline.record(1, 2.8)
        clone = pickle.loads(pickle.dumps(timeline))
        assert clone.ranks() == timeline.ranks()
        for rank in timeline.ranks():
            assert clone.series(rank).tolist() \
                == timeline.series(rank).tolist()
        # The restored defaultdicts still accept new records.
        clone.record(2, 9.9)
        assert clone.ranks() == [0, 1, 2]


class TestLatencyRecorder:
    def test_per_client_and_aggregate(self):
        recorder = LatencyRecorder()
        recorder.record(0, 0.001)
        recorder.record(0, 0.003)
        recorder.record(1, 0.002)
        assert len(recorder.client_latencies(0)) == 2
        assert recorder.mean() == pytest.approx(0.002)

    def test_percentile(self):
        recorder = LatencyRecorder()
        for value in range(1, 101):
            recorder.record(0, value / 1000)
        assert recorder.percentile(50) == pytest.approx(0.0505, rel=0.01)

    def test_empty(self):
        recorder = LatencyRecorder()
        assert recorder.mean() == 0.0
        assert recorder.std() == 0.0
        assert recorder.all_latencies().size == 0


class TestClusterMetrics:
    def test_mds_accessor_creates(self):
        metrics = ClusterMetrics()
        metrics.mds(2).ops_served += 5
        assert metrics.total_ops == 5
        assert metrics.mds(2) is metrics.per_mds[2]

    def test_aggregates(self):
        metrics = ClusterMetrics()
        metrics.mds(0).forwards = 3
        metrics.mds(1).forwards = 4
        metrics.mds(0).traversal_hits = 10
        metrics.mds(1).migrations = 2
        metrics.mds(0).session_flushes = 7
        assert metrics.total_forwards == 7
        assert metrics.total_hits == 10
        assert metrics.total_migrations == 2
        assert metrics.total_session_flushes == 7

    def test_makespan(self):
        metrics = ClusterMetrics()
        metrics.client_finish_times[0] = 5.0
        metrics.client_finish_times[1] = 9.0
        assert metrics.makespan() == 9.0
        assert ClusterMetrics().makespan() == 0.0

    def test_request_rate_window(self):
        m = MdsMetrics(rank=0)
        m.reqs_in_window = 500
        assert m.take_request_rate(10.0) == 50.0
        assert m.reqs_in_window == 0


class TestStats:
    def test_summarize(self):
        summary = summarize([1.0, 2.0, 3.0, 4.0])
        assert summary.count == 4
        assert summary.mean == pytest.approx(2.5)
        assert summary.minimum == 1.0
        assert summary.maximum == 4.0

    def test_summarize_empty(self):
        assert summarize([]) == Summary(0, 0, 0, 0, 0, 0, 0, 0)

    def test_speedup_sign_convention(self):
        assert speedup(baseline=10.0, measured=9.0) == pytest.approx(1 / 9)
        assert speedup(baseline=10.0, measured=12.5) == pytest.approx(-0.2)

    def test_speedup_invalid(self):
        with pytest.raises(ValueError):
            speedup(1.0, 0.0)

    def test_cv(self):
        assert coefficient_of_variation([5, 5, 5]) == 0.0
        assert coefficient_of_variation([1]) == 0.0
        assert coefficient_of_variation([1, 3]) > 0


class TestHeatSampler:
    def make_sampled_namespace(self):
        engine = SimEngine()
        namespace = Namespace(half_life=5.0)
        hot = namespace.mkdirs("/hot")
        namespace.mkdirs("/cold")
        sampler = HeatSampler(engine, namespace, interval=1.0)

        def hits():
            namespace.record_hit(hot, None, "IWR", engine.now)

        engine.every(0.1, hits)
        engine.run_until(3.5)
        sampler.stop()
        return sampler

    def test_samples_collected(self):
        sampler = self.make_sampled_namespace()
        assert len(sampler.samples) == 3
        assert sampler.times == [1.0, 2.0, 3.0]

    def test_matrix_shape(self):
        sampler = self.make_sampled_namespace()
        times, dirs, heat = sampler.matrix()
        assert heat.shape == (3, len(dirs))
        assert "/hot" in dirs

    def test_hot_directory_ranks_first(self):
        sampler = self.make_sampled_namespace()
        hottest = sampler.hottest(-1, top=2)
        names = [name for name, _v in hottest]
        assert names[0] in ("/hot", "/")  # root aggregates children

    def test_ascii_rendering(self):
        sampler = self.make_sampled_namespace()
        art = sampler.render_ascii()
        assert "/hot" in art
        assert "#" in art
