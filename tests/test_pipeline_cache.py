"""Content fingerprints and the on-disk result cache."""

from __future__ import annotations

import json

import pytest

from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.solvers import SolverConfig, available_solvers, get_solver
from repro.pipeline.cache import CACHE_ENV_VAR, ResultCache, default_cache
from repro.pipeline.fingerprint import (
    result_key,
    solver_fingerprint,
    topology_fingerprint,
    traffic_fingerprint,
)
from repro.topology.random_regular import random_regular_topology
from repro.traffic.permutation import random_permutation_traffic
from repro.traffic.stride import stride_traffic
from repro.util.hashing import stable_digest


@pytest.fixture
def instance():
    topo = random_regular_topology(10, 4, servers_per_switch=2, seed=3)
    traffic = random_permutation_traffic(topo, seed=4)
    return topo, traffic


class TestFingerprints:
    def test_topology_fingerprint_stable(self, instance):
        topo, _ = instance
        assert topology_fingerprint(topo) == topology_fingerprint(topo)

    def test_same_content_same_fingerprint(self):
        a = random_regular_topology(10, 4, servers_per_switch=2, seed=3)
        b = random_regular_topology(10, 4, servers_per_switch=2, seed=3)
        assert topology_fingerprint(a) == topology_fingerprint(b)

    def test_name_excluded(self):
        a = random_regular_topology(10, 4, seed=3, name="alpha")
        b = random_regular_topology(10, 4, seed=3, name="beta")
        assert topology_fingerprint(a) == topology_fingerprint(b)

    def test_different_graph_different_fingerprint(self):
        a = random_regular_topology(10, 4, seed=3)
        b = random_regular_topology(10, 4, seed=4)
        assert topology_fingerprint(a) != topology_fingerprint(b)

    def test_capacity_matters(self, instance):
        topo, _ = instance
        before = topology_fingerprint(topo)
        link = topo.links[0]
        topo.remove_link(link.u, link.v)
        topo.add_link(link.u, link.v, capacity=2.5)
        assert topology_fingerprint(topo) != before

    def test_traffic_fingerprint(self, instance):
        topo, traffic = instance
        same = random_permutation_traffic(topo, seed=4)
        other = random_permutation_traffic(topo, seed=5)
        assert traffic_fingerprint(traffic) == traffic_fingerprint(same)
        assert traffic_fingerprint(traffic) != traffic_fingerprint(other)

    def test_traffic_name_excluded(self, instance):
        topo, _ = instance
        a = stride_traffic(topo, stride=1, name="x")
        b = stride_traffic(topo, stride=1, name="y")
        assert traffic_fingerprint(a) == traffic_fingerprint(b)

    def test_solver_fingerprint_includes_options(self):
        a = solver_fingerprint(SolverConfig.make("path_lp", k=4))
        b = solver_fingerprint(SolverConfig.make("path_lp", k=8))
        c = solver_fingerprint(SolverConfig.make("path_lp", k=4))
        assert a != b
        assert a == c

    def test_revision_zero_fingerprint_is_name_and_options(self):
        """Revision-0 backends keep the key they had before revisions."""
        for name in available_solvers():
            if get_solver(name).revision:
                continue
            config = SolverConfig(name)
            assert solver_fingerprint(config) == stable_digest(config.to_dict())
        config = SolverConfig.make("path_lp", k=4)
        assert solver_fingerprint(config) == stable_digest(config.to_dict())

    @pytest.mark.parametrize(
        "name",
        [
            "ecmp",
            "edge_lp",
            "estimate_cut",
            "estimate_sampled_lp",
            "estimate_spectral",
        ],
    )
    def test_revised_backend_gets_a_new_key(self, name):
        assert get_solver(name).revision == 1
        for config in (SolverConfig(name), SolverConfig.make(name, seed=3)):
            assert solver_fingerprint(config) != stable_digest(config.to_dict())
            assert solver_fingerprint(config) == stable_digest(
                {**config.to_dict(), "revision": 1}
            )

    def test_result_key_composition(self):
        key = result_key("t" * 64, "m" * 64, "s" * 64)
        assert len(key) == 64
        assert key != result_key("t" * 64, "m" * 64, "x" * 64)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        assert cache.get(key) is None
        result = max_concurrent_flow(topo, traffic)
        cache.put(key, result, meta={"note": "test"})
        assert key in cache
        restored = cache.get(key)
        assert restored is not None
        assert restored.throughput == result.throughput
        assert restored.arc_capacities == result.arc_capacities
        assert cache.hits == 1
        assert cache.misses == 1

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        from repro.flow.result import ThroughputResult

        cache.put("aa" + "0" * 62, ThroughputResult(throughput=1.0))
        cache.put("bb" + "0" * 62, ThroughputResult(throughput=2.0))
        assert len(cache) == 2

    def test_corrupt_entry_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cc" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None

    def test_schema_mismatch_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "dd" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema_version": -1, "result": {}}), encoding="utf-8"
        )
        assert cache.get(key) is None

    def test_valid_json_wrong_shape_is_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ee" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema_version": 1, "unexpected": True}),
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert cache.misses == 1

    def test_default_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(CACHE_ENV_VAR, raising=False)
        assert default_cache() is None
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        cache = default_cache()
        assert cache is not None
        assert cache.root == tmp_path

    def test_default_cache_memoized_per_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path))
        assert default_cache() is default_cache()


class TestStaleEntryEviction:
    """Unreadable/mismatched entries are deleted at read time: a miss
    whose recompute never gets ``put`` (worker crash) must not leave the
    stale file behind to be re-parsed forever."""

    def test_corrupt_entry_deleted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ff" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()

    def test_schema_mismatch_deleted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema_version": -1, "result": {}}), encoding="utf-8"
        )
        assert cache.get(key) is None
        assert not path.exists()
        assert key not in cache

    def test_wrong_shape_deleted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(
            json.dumps({"schema_version": 1, "unexpected": True}),
            encoding="utf-8",
        )
        assert cache.get(key) is None
        assert not path.exists()

    def test_plain_miss_leaves_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ef" + "0" * 62
        assert cache.get(key) is None
        assert not cache._path(key).exists()

    def test_good_entry_survives_read(self, tmp_path):
        from repro.flow.result import ThroughputResult

        cache = ResultCache(tmp_path)
        key = "aa" + "1" * 62
        cache.put(key, ThroughputResult(throughput=1.5))
        assert cache.get(key) is not None
        assert cache._path(key).exists()

    def test_non_utf8_entry_deleted_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ba" + "0" * 62
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(b"\xff\xfe not utf-8")
        assert cache.get(key) is None
        assert not path.exists()


class TestLruCap:
    """Opt-in ``max_entries`` bound: puts beyond the cap evict the
    least-recently-used entries; the default stays unbounded."""

    @staticmethod
    def _key(index: int) -> str:
        return f"{index:02x}" * 32

    @staticmethod
    def _age(cache, key, seconds):
        """Backdate an entry's mtime so recency ordering is deterministic
        (sub-second writes can otherwise tie)."""
        import os
        import time

        path = cache._path(key)
        stamp = time.time() - seconds
        os.utime(path, (stamp, stamp))

    def _fill(self, cache, count):
        from repro.flow.result import ThroughputResult

        for index in range(count):
            cache.put(self._key(index), ThroughputResult(throughput=index))
            self._age(cache, self._key(index), seconds=100 - index)

    def test_default_stays_unbounded(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.max_entries is None
        self._fill(cache, 5)
        assert len(cache) == 5
        assert cache.evictions == 0

    def test_put_evicts_oldest_beyond_cap(self, tmp_path):
        from repro.flow.result import ThroughputResult

        cache = ResultCache(tmp_path, max_entries=2)
        self._fill(cache, 2)
        cache.put(self._key(2), ThroughputResult(throughput=2.0))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert cache.get(self._key(0)) is None  # the oldest went
        assert cache.get(self._key(1)) is not None
        assert cache.get(self._key(2)) is not None

    def test_get_refreshes_recency(self, tmp_path):
        from repro.flow.result import ThroughputResult

        cache = ResultCache(tmp_path, max_entries=2)
        self._fill(cache, 2)
        assert cache.get(self._key(0)) is not None  # touch the oldest
        cache.put(self._key(2), ThroughputResult(throughput=2.0))
        # Entry 1 is now the least recently used, not entry 0.
        assert cache.get(self._key(0)) is not None
        assert cache.get(self._key(1)) is None

    def test_overfull_pre_existing_dir_trimmed(self, tmp_path):
        from repro.flow.result import ThroughputResult

        unbounded = ResultCache(tmp_path)
        self._fill(unbounded, 4)
        bounded = ResultCache(tmp_path, max_entries=2)
        bounded.put(self._key(4), ThroughputResult(throughput=4.0))
        assert len(bounded) == 2
        assert bounded.evictions == 3
        assert bounded.get(self._key(4)) is not None

    def test_bounded_cache_still_round_trips(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path, max_entries=8)
        result = max_concurrent_flow(topo, traffic)
        key = self._key(7)
        cache.put(key, result)
        restored = cache.get(key)
        assert restored is not None
        assert restored.throughput == result.throughput

    def test_rejects_non_positive_cap(self, tmp_path):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(tmp_path, max_entries=0)


class TestInProcessMemo:
    """The LRU memo fronting the disk store: hit accounting, mutation
    safety, and the ``memo_size`` knob."""

    @staticmethod
    def _key(index: int) -> str:
        return f"{index:02x}" * 32

    def test_second_get_is_a_memo_hit(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path)
        result = max_concurrent_flow(topo, traffic)
        cache.put(self._key(0), result)
        first = cache.get(self._key(0))
        second = cache.get(self._key(0))
        assert first.throughput == second.throughput == result.throughput
        stats = cache.stats()
        # put() memoizes, so neither get touched the disk.
        assert stats["memo_hits"] == 2
        assert stats["disk_hits"] == 0
        assert stats["hits"] == 2

    def test_fresh_instance_promotes_disk_hit_to_memo(self, tmp_path, instance):
        topo, traffic = instance
        writer = ResultCache(tmp_path)
        writer.put(self._key(0), max_concurrent_flow(topo, traffic))
        reader = ResultCache(tmp_path)
        reader.get(self._key(0))
        reader.get(self._key(0))
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["memo_hits"] == 1

    def test_memoized_results_are_mutation_safe(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path)
        cache.put(self._key(0), max_concurrent_flow(topo, traffic))
        first = cache.get(self._key(0))
        first.arc_flows.clear()
        second = cache.get(self._key(0))
        assert second.arc_flows  # fresh containers per get

    def test_memo_size_zero_disables_memo(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path, memo_size=0)
        cache.put(self._key(0), max_concurrent_flow(topo, traffic))
        cache.get(self._key(0))
        cache.get(self._key(0))
        stats = cache.stats()
        assert stats["memo_hits"] == 0
        assert stats["disk_hits"] == 2
        assert stats["memo_entries"] == 0

    def test_memo_evicts_least_recently_used(self, tmp_path, instance):
        topo, traffic = instance
        cache = ResultCache(tmp_path, memo_size=2)
        result = max_concurrent_flow(topo, traffic)
        for index in range(3):
            cache.put(self._key(index), result)
        assert cache.stats()["memo_entries"] == 2
        cache.get(self._key(0))  # evicted from memo, still on disk
        assert cache.stats()["disk_hits"] == 1

    def test_payload_memo_respects_kind(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put_payload(self._key(0), "routes", {"value": 1})
        assert cache.get_payload(self._key(0), kind="routes") == {"value": 1}
        assert cache.stats()["memo_hits"] == 1
        # A kind mismatch must not serve the memoized payload.
        assert cache.get_payload(self._key(0), kind="other") is None

    def test_negative_memo_size_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="memo_size"):
            ResultCache(tmp_path, memo_size=-1)
