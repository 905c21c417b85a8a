"""The forked grid runner and the result cache must be invisible.

The grid runner (``repro.perf.grid``) forks cells that differ only in
policy off one simulation advanced to the first heartbeat; the result
cache skips cells entirely.  Both must return records *byte-identical*
to cold, unsplit runs (``execute_spec``) -- same summary lines, same
latency percentiles bit-for-bit -- and the cache must miss whenever
anything sim-visible changes (sources, policy text, seed).
"""

import json
import subprocess
import sys
import time

import pytest

from repro.cluster import SimulatedCluster
from repro.core.policies import STOCK_POLICIES
from repro.perf import sweep
from repro.perf.cache import ResultCache, cache_disabled, open_cache
from repro.perf.fingerprint import spec_fingerprint, sources_digest
from repro.perf.grid import fork_supported
from repro.perf.sweep import (
    build_specs,
    execute_spec,
    format_report,
    run_sweep,
    run_sweep_cached,
)

needs_fork = pytest.mark.skipif(not fork_supported(),
                                reason="requires os.fork")

#: Outlives the first heartbeat at 1 s: greedy-spill migrates, so the
#: cells forked after the shared prefix really diverge.
GRID = dict(files_per_client=3000, dir_split_size=500,
            heartbeat_interval=1.0)
SMALL = dict(files_per_client=300, dir_split_size=200)


def grid_specs():
    return build_specs([0, 1], ["none", "greedy-spill", "fill-and-spill"],
                       **GRID)


def small_specs():
    return build_specs([0, 1], ["none", "greedy-spill", "fill-and-spill"],
                       **SMALL)


def cold(specs):
    return [execute_spec(spec) for spec in specs]


def exact(records):
    """Full precision: every float, every per-rank counter."""
    return json.dumps(records, sort_keys=True, default=repr)


@pytest.fixture(scope="module")
def grid_cold():
    return cold(grid_specs())


@needs_fork
def test_sweep_parallel_matches_serial():
    specs = build_specs([0, 1], ["greedy-spill"], **SMALL)
    assert run_sweep(specs, jobs=2) == run_sweep(specs, jobs=1) \
        == cold(specs)


# ---------------------------------------------------------------------------
# Forked runner equivalence.
# ---------------------------------------------------------------------------

@needs_fork
class TestGridEquivalence:
    def test_policies_diverge_after_the_barrier(self, grid_cold):
        # Otherwise the forked path would only ever be compared on runs
        # the policy cannot touch.
        for seed in (0, 1):
            cells = {record["policy"]: record for record in grid_cold
                     if record["seed"] == seed}
            assert len({exact(cell) for cell in cells.values()}) == 3
            assert cells["greedy-spill"]["migrations"] > 0
            assert cells["none"]["makespan"] > 1.0

    def test_forked_records_match_cold_exactly(self, grid_cold):
        assert exact(run_sweep(grid_specs(), jobs=1)) == exact(grid_cold)

    def test_forked_parallel_matches_cold(self, grid_cold):
        assert exact(run_sweep(grid_specs(), jobs=4)) == exact(grid_cold)

    def test_formatted_report_byte_identical(self, grid_cold):
        # CI diffs sweep stdout against a recorded transcript.
        assert format_report(run_sweep(grid_specs(), jobs=2)) \
            == format_report(grid_cold)

    def test_zipf_grid_matches_cold(self):
        specs = build_specs([3, 4], ["none", "greedy-spill"],
                            workload="zipf", files_per_client=800,
                            ops_per_client=400)
        assert exact(run_sweep(specs, jobs=2)) == exact(cold(specs))

    def test_single_cell_runs_cold(self):
        specs = build_specs([5], ["greedy-spill"], **SMALL)
        assert run_sweep(specs) == cold(specs)

    def test_without_fork_runs_cold_pool(self, monkeypatch):
        # Platforms without os.fork run execute_spec over a process pool.
        monkeypatch.setattr(sweep, "fork_supported", lambda: False)
        specs = small_specs()[:2]
        assert run_sweep(specs, jobs=2) == cold(specs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_failure_reraises_its_traceback(self, monkeypatch, jobs):
        # Both cells are forked off one shared prefix: one after the
        # other at jobs=1, side by side at jobs=2.
        def broken():
            raise ValueError("boom in a forked cell")

        monkeypatch.setitem(STOCK_POLICIES, "fill-and-spill", broken)
        specs = build_specs([0], ["greedy-spill", "fill-and-spill"],
                            **SMALL)
        with pytest.raises(RuntimeError, match="boom in a forked cell"):
            run_sweep(specs, jobs=jobs)

    def test_cell_failure_stops_its_running_sibling(self, monkeypatch):
        def broken():
            raise ValueError("boom in a forked cell")

        def stalled():
            time.sleep(60)

        monkeypatch.setitem(STOCK_POLICIES, "greedy-spill", stalled)
        monkeypatch.setitem(STOCK_POLICIES, "fill-and-spill", broken)
        specs = build_specs([0], ["greedy-spill", "fill-and-spill"],
                            **SMALL)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="boom in a forked cell"):
            run_sweep(specs, jobs=2)
        assert time.monotonic() - start < 30

    def test_other_children_keep_their_exit_status(self):
        # The runner reaps only its own children.
        other = subprocess.Popen([sys.executable, "-c", "exit(3)"])
        run_sweep(small_specs()[:2], jobs=2)
        assert other.wait() == 3

    @pytest.mark.parametrize("seeds,jobs", [([0, 1], 2), ([0], 3)],
                             ids=["two-groups", "one-group"])
    def test_at_most_jobs_simulations_run_at_once(self, tmp_path,
                                                  monkeypatch, seeds,
                                                  jobs):
        # Two groups of three cells at jobs=2; one group at jobs=3, whose
        # cells then run side by side off its prefix.
        log = tmp_path / "runs.log"

        def logged(original):
            def run(cluster, *args):
                start = time.monotonic()
                result = original(cluster, *args)
                with open(log, "a") as out:
                    out.write(f"{start!r} {time.monotonic()!r}\n")
                return result
            return run

        # Forked children inherit the patches.
        for name in ("run_shared_prefix", "finish_workload"):
            monkeypatch.setattr(SimulatedCluster, name,
                                logged(getattr(SimulatedCluster, name)))
        specs = build_specs(seeds, ["none", "greedy-spill",
                                    "fill-and-spill"], **GRID)
        run_sweep(specs, jobs=jobs)
        edges = []
        for line in log.read_text().splitlines():
            start, end = map(float, line.split())
            edges += [(start, 1), (end, -1)]
        assert len(edges) == 2 * (len(specs) + len(seeds))
        running = peak = 0
        for _when, step in sorted(edges):  # an end sorts before a start
            running += step
            peak = max(peak, running)
        assert peak <= jobs


# ---------------------------------------------------------------------------
# Result cache.
# ---------------------------------------------------------------------------

class TestResultCache:
    def test_hit_returns_identical_record(self, tmp_path):
        specs = small_specs()[:3]
        cache = ResultCache(tmp_path)
        first, hits, misses = run_sweep_cached(specs, cache=cache)
        assert (hits, misses) == (0, 3)
        second, hits, misses = run_sweep_cached(specs, cache=cache)
        assert (hits, misses) == (3, 0)
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True) \
            == json.dumps(cold(specs), sort_keys=True)
        # per_mds_ops ranks survive the JSON round trip as ints.
        assert all(isinstance(rank, int)
                   for rank in second[0]["per_mds_ops"])

    def test_partial_hits_fill_only_the_gaps(self, tmp_path):
        specs = small_specs()
        cache = ResultCache(tmp_path)
        run_sweep_cached(specs[:2], cache=cache)
        records, hits, misses = run_sweep_cached(specs, cache=cache)
        assert (hits, misses) == (2, len(specs) - 2)
        assert records == cold(specs)

    def test_disabled_cache_runs_everything(self, tmp_path):
        specs = small_specs()[:2]
        records, hits, misses = run_sweep_cached(specs, cache=None)
        assert (hits, misses) == (0, 2)
        assert records == cold(specs)

    def test_no_cache_env_kills_open_cache(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert open_cache() is not None
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert cache_disabled()
        assert open_cache() is None

    def test_stats_and_clear(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_sweep_cached(small_specs()[:2], cache=cache)
        stats = cache.stats()
        assert stats["records"] == 2 and stats["bytes"] > 0
        assert cache.clear() == 2
        assert cache.stats()["entries"] == 0

    def test_rejects_non_hex_keys(self, tmp_path):
        cache = ResultCache(tmp_path)
        with pytest.raises(ValueError):
            cache.put_record("../escape", {})


# ---------------------------------------------------------------------------
# Fingerprint invalidation.
# ---------------------------------------------------------------------------

class TestFingerprintInvalidation:
    def test_seed_and_policy_change_the_key(self):
        specs = build_specs([0, 1], ["greedy-spill", "fill-and-spill"],
                            **SMALL)
        keys = {spec_fingerprint(spec) for spec in specs}
        assert len(keys) == len(specs)

    def test_policy_text_edit_is_a_miss(self, monkeypatch):
        # Same policy *name*, different Lua body -> different key.
        from dataclasses import replace

        spec = build_specs([0], ["greedy-spill"], **SMALL)[0]
        before = spec_fingerprint(spec)
        original = STOCK_POLICIES["greedy-spill"]

        def edited():
            policy = original()
            return replace(policy, when="return false")

        monkeypatch.setitem(STOCK_POLICIES, "greedy-spill", edited)
        assert spec_fingerprint(spec) != before

    def test_sources_digest_is_stable_within_process(self):
        assert sources_digest() == sources_digest()
        assert len(sources_digest()) == 64
