"""Content fingerprints and the on-disk result cache."""

from __future__ import annotations

import json

import pytest

import repro.pipeline.cache as cache_module
import repro.pipeline.engine as engine
from repro.fidelity.routes import (
    ROUTE_SET_KIND,
    RouteSet,
    reset_route_stats,
    route_set_for,
)
from repro.flow.edge_lp import max_concurrent_flow
from repro.flow.result import ThroughputResult
from repro.flow.solvers import SolverConfig, available_solvers, get_solver
from repro.pipeline.cache import CACHE_ENV_VAR, ResultCache, default_cache
from repro.pipeline.engine import (
    INSTANCE_KIND,
    InstanceRecord,
    cached_solve,
    evaluate_batch,
    group_cells,
)
from repro.pipeline.fingerprint import (
    result_key,
    solver_fingerprint,
    topology_fingerprint,
    traffic_fingerprint,
)
from repro.pipeline.scenario import ScenarioGrid, TopologySpec, TrafficSpec
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


class TestInProcessMemo:
    """The LRU memo fronting the disk store: hit accounting, mutation
    safety, and its bound."""

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

    def test_memo_evicts_least_recently_used(self, tmp_path, instance, monkeypatch):
        topo, traffic = instance
        monkeypatch.setattr(cache_module, "MEMO_MAX_DEFAULT", 2)
        cache = ResultCache(tmp_path)
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


def _result_entry(cache):
    """Solve one instance through ``cached_solve``: (key, result dict)."""
    topo = random_regular_topology(10, 4, servers_per_switch=2, seed=3)
    traffic = random_permutation_traffic(topo, seed=4)
    config = SolverConfig.make("edge_lp")
    key = result_key(
        topology_fingerprint(topo),
        traffic_fingerprint(traffic),
        solver_fingerprint(config),
    )
    return key, cached_solve(topo, traffic, config, cache, key=key)[0].to_dict()


def _instance_entry(cache):
    """Run one work item through ``evaluate_batch``: (index key, record)."""
    grid = ScenarioGrid(
        name="bad-entry",
        topologies=(
            TopologySpec.make("rrg", network_degree=4, servers_per_switch=2),
        ),
        traffics=(TrafficSpec.make("permutation"),),
        solvers=(SolverConfig("estimate_bound"),),
        sizes=(10,),
    )
    item = [scenario for _, scenario in group_cells(grid.cells())[0]]
    key = engine._index_keys(item)[None]
    evaluate_batch(item, cache)
    return key, cache.get_payload(key, INSTANCE_KIND, InstanceRecord.from_payload)


def _route_entry(cache):
    """Route three pairs through ``route_set_for``: (key, route set)."""
    topo = random_regular_topology(10, 4, servers_per_switch=2, seed=3)
    reset_route_stats()  # past the in-process route memo, to the cache
    routes = route_set_for(
        topo, [(0, 5), (1, 7), (2, 9)], mode="ksp", k=3, method="yen",
        cache=cache,
    )
    return routes.key, routes


class TestBadEntryPolicy:
    """One policy for every entry kind: a garbage file, an entry of
    another kind, and a valid envelope whose body the decoder rejects
    each read as a counted miss, are deleted on read, and come back as
    a recompute equal to the original, byte for byte."""

    #: kind -> (its production get-or-compute path, the decoding read,
    #: what another kind's entry is, how to spoil the body).
    KINDS = {
        "result": (
            _result_entry,
            ResultCache.get,
            INSTANCE_KIND,
            lambda entry: entry["result"].pop("throughput"),
        ),
        INSTANCE_KIND: (
            _instance_entry,
            lambda cache, key: cache.get_payload(
                key, INSTANCE_KIND, InstanceRecord.from_payload
            ),
            ROUTE_SET_KIND,
            lambda entry: entry["payload"].pop("num_servers"),
        ),
        ROUTE_SET_KIND: (
            _route_entry,
            lambda cache, key: cache.get_payload(
                key, ROUTE_SET_KIND, RouteSet.from_payload
            ),
            None,
            lambda entry: entry["payload"].update(schema_version=-1),
        ),
    }

    @pytest.mark.parametrize("damage", ["garbage", "other_kind", "rejected_body"])
    @pytest.mark.parametrize("kind", list(KINDS))
    def test_bad_entry_is_a_deleted_miss_then_recomputed(
        self, tmp_path, kind, damage
    ):
        compute, read, other_kind, spoil = self.KINDS[kind]
        key, original = compute(ResultCache(tmp_path))
        path = ResultCache(tmp_path)._path(key)
        good = path.read_bytes()
        entry = json.loads(good)
        if damage == "garbage":
            path.write_bytes(b"\xff\x00 not json")
        elif damage == "other_kind":
            body = entry["result" if kind == "result" else "payload"]
            if other_kind is None:
                ResultCache(tmp_path).put(key, ThroughputResult(throughput=1.0))
            else:
                ResultCache(tmp_path).put_payload(key, other_kind, body)
        else:
            spoil(entry)
            path.write_text(json.dumps(entry), encoding="utf-8")
        reader = ResultCache(tmp_path)
        assert read(reader, key) is None
        assert (reader.hits, reader.misses) == (0, 1)
        assert not path.exists()
        assert compute(ResultCache(tmp_path)) == (key, original)
        assert path.read_bytes() == good

    def test_memoized_body_the_decoder_rejects_is_a_deleted_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "ab" + "2" * 62
        cache.put_payload(key, INSTANCE_KIND, {"topology_fp": "only"})
        read = cache.get_payload(key, INSTANCE_KIND, InstanceRecord.from_payload)
        assert read is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["memo_entries"] == 0
        assert key not in cache
