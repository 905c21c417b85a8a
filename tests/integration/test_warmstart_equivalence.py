"""Parallel sweeps, warm starts and the result cache must be invisible.

Worker processes run cells independently; the fork-based cell server
shares namespace construction and the policy-independent simulation
prefix across grid cells; the result cache skips cells entirely.  All
three must return records *byte-identical* to a serial cold run -- same
summary lines, same latency percentiles bit-for-bit -- and the cache must
miss whenever anything sim-visible changes (sources, policy text, seed).
"""

import json

import pytest

from repro.perf.cache import ResultCache, cache_disabled, open_cache
from repro.perf.fingerprint import spec_fingerprint, sources_digest
from repro.perf.sweep import (
    build_specs,
    format_report,
    run_sweep,
    run_sweep_cached,
)
from repro.perf.warmstart import fork_supported

pytestmark = pytest.mark.skipif(not fork_supported(),
                                reason="requires os.fork")

SMALL = dict(files_per_client=300, dir_split_size=200)


def small_specs():
    return build_specs([0, 1], ["none", "greedy-spill", "fill-and-spill"],
                       **SMALL)


def test_sweep_parallel_matches_serial():
    specs = build_specs([0, 1], ["greedy-spill"], **SMALL)
    assert run_sweep(specs, jobs=2) == run_sweep(specs, jobs=1)


# ---------------------------------------------------------------------------
# Warm-start equivalence.
# ---------------------------------------------------------------------------

class TestWarmStartEquivalence:
    def test_warm_records_match_cold_exactly(self):
        specs = small_specs()
        cold = run_sweep(specs)
        warm = run_sweep(specs, warm=True)
        # Full-precision equality: every float, every per-rank counter.
        assert json.dumps(cold, sort_keys=True, default=repr) \
            == json.dumps(warm, sort_keys=True, default=repr)

    def test_warm_parallel_matches_cold(self):
        specs = small_specs()
        assert run_sweep(specs, jobs=4, warm=True) == run_sweep(specs)

    def test_zipf_shares_construction_across_seeds(self):
        # Different seeds share the population build; results must still
        # match per-seed cold runs exactly.
        specs = build_specs([3, 4], ["none", "greedy-spill"],
                            workload="zipf", files_per_client=800,
                            ops_per_client=400)
        assert run_sweep(specs, warm=True) == run_sweep(specs)

    def test_formatted_report_byte_identical(self):
        # The CI determinism check diffs sweep stdout; the warm path and
        # any --jobs value must format to the same bytes.
        specs = small_specs()
        cold = format_report(run_sweep(specs, jobs=1))
        assert format_report(run_sweep(specs, jobs=2)) == cold
        assert format_report(run_sweep(specs, warm=True)) == cold
        assert format_report(run_sweep(specs, jobs=2, warm=True)) == cold

    def test_single_cell_falls_back_to_cold_path(self):
        specs = build_specs([5], ["greedy-spill"], **SMALL)
        assert run_sweep(specs, warm=True) == run_sweep(specs)

    def test_warm_flag_without_fork_support(self, monkeypatch):
        # Platforms without os.fork must silently take the cold path.
        from repro.perf import warmstart
        monkeypatch.setattr(warmstart, "fork_supported", lambda: False)
        specs = small_specs()[:2]
        assert run_sweep(specs, warm=True) == run_sweep(specs)


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
        cold = run_sweep(specs)
        assert json.dumps(first, sort_keys=True) \
            == json.dumps(second, sort_keys=True) \
            == json.dumps(cold, sort_keys=True)
        # per_mds_ops ranks survive the JSON round trip as ints.
        assert all(isinstance(rank, int)
                   for rank in second[0]["per_mds_ops"])

    def test_partial_hits_fill_only_the_gaps(self, tmp_path):
        specs = small_specs()
        cache = ResultCache(tmp_path)
        run_sweep_cached(specs[:2], cache=cache)
        records, hits, misses = run_sweep_cached(specs, warm=True,
                                                 cache=cache)
        assert (hits, misses) == (2, len(specs) - 2)
        assert records == run_sweep(specs)

    def test_disabled_cache_runs_everything(self, tmp_path):
        specs = small_specs()[:2]
        records, hits, misses = run_sweep_cached(specs, cache=None)
        assert (hits, misses) == (0, 2)
        assert records == run_sweep(specs)

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

        from repro.core.policies import STOCK_POLICIES
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
