"""Tests for the content-addressed result cache."""

from __future__ import annotations

import json
import sys
import threading
from pathlib import Path

import pytest

from repro.congest.engine.base import available_engines
from repro.service import GraphSpec, ResultCache, RunSpec, SimulationService
from repro.service.cache import cache_key, semantic_key

pytestmark = pytest.mark.service


def sssp_spec(**overrides) -> RunSpec:
    fields = dict(
        protocol="bellman-ford-sssp",
        graph=GraphSpec(generator="yao_spanner", params={"num_nodes": 24, "seed": 7}),
        params={"source": 0},
    )
    fields.update(overrides)
    return RunSpec(**fields)


def _document(outputs) -> str:
    """A disk document with every field, whose ``result`` holds ``outputs``."""
    report = {"rounds": 1, "protocol": "x"}
    return json.dumps(
        {"key": "x", "semantic_key": "y", "result": {"outputs": outputs, "report": report}}
    )


class TestKeys:
    def test_exact_key_depends_on_engine(self):
        digest = "ab" * 32
        a = cache_key(sssp_spec(engine="sparse"), digest)
        b = cache_key(sssp_spec(engine="dense"), digest)
        assert a != b

    def test_semantic_key_ignores_execution_fields(self):
        digest = "ab" * 32
        a = semantic_key(sssp_spec(engine="sparse", backend="python"), digest)
        b = semantic_key(sssp_spec(engine="dense"), digest)
        assert a == b

    def test_semantic_key_still_sees_protocol_params(self):
        digest = "ab" * 32
        a = semantic_key(sssp_spec(params={"source": 0}), digest)
        b = semantic_key(sssp_spec(params={"source": 1}), digest)
        assert a != b

    def test_key_depends_on_graph_digest(self):
        spec = sssp_spec()
        assert cache_key(spec, "00" * 32) != cache_key(spec, "11" * 32)

    def test_key_depends_on_bandwidth_config(self):
        digest = "ab" * 32
        assert cache_key(sssp_spec(), digest) != cache_key(
            sssp_spec(bandwidth_words=4), digest
        )

    def test_key_depends_on_the_codec_version(self, monkeypatch):
        # An entry written in an older result format must miss.
        digest = "ab" * 32
        before = (cache_key(sssp_spec(), digest), semantic_key(sssp_spec(), digest))
        monkeypatch.setattr("repro.service.cache.RESULT_CODEC_VERSION", 1)
        after = (cache_key(sssp_spec(), digest), semantic_key(sssp_spec(), digest))
        assert before[0] != after[0] and before[1] != after[1]

    def test_graph_mutation_changes_the_key(self):
        # The full chain: mutate a graph -> content_digest changes -> the
        # cache key for an identical spec changes.
        graph = GraphSpec(edges=((0, 1, 2), (1, 2, 3))).build()
        spec = sssp_spec()
        before = cache_key(spec, graph.content_digest())
        graph.add_edge(0, 2, 9)
        assert cache_key(spec, graph.content_digest()) != before


class TestWarmHitsEqualFreshRuns:
    @pytest.mark.parametrize("engine", available_engines())
    def test_warm_hit_equals_fresh_run(self, engine):
        spec = sssp_spec(engine=engine)
        cold_service = SimulationService(max_workers=1)
        fresh = cold_service.run(spec)
        cold_service.close()

        warm_service = SimulationService(max_workers=1)
        first = warm_service.run(spec)
        second = warm_service.run(spec)
        assert first == fresh
        assert second == fresh
        assert warm_service.cache.stats.hits == 1
        assert warm_service.cache.stats.misses == 1
        warm_service.close()

    def test_cached_result_not_aliased(self):
        service = SimulationService(max_workers=1)
        spec = sssp_spec()
        first = service.run(spec)
        first.outputs[0]["poisoned"] = True
        second = service.run(spec)
        assert "poisoned" not in second.outputs[0]
        service.close()


class TestCrossEngine:
    def test_default_never_serves_cross_engine(self):
        service = SimulationService(max_workers=1)
        a = service.run(sssp_spec(engine="sparse"))
        b = service.run(sssp_spec(engine="symbolic"))
        assert a == b  # engine invariance: equal results...
        assert service.cache.stats.hits == 0  # ...but both computed
        assert service.cache.stats.misses == 2
        service.close()

    def test_opt_in_serves_cross_engine(self):
        service = SimulationService(max_workers=1, allow_cross_engine=True)
        a = service.run(sssp_spec(engine="sparse"))
        b = service.run(sssp_spec(engine="symbolic"))
        assert a == b
        assert service.cache.stats.hits == 1
        assert service.cache.stats.cross_engine_hits == 1
        service.close()

    def test_non_invariant_protocol_never_cross_served(self):
        # Same semantic request, different engine, but the protocol does
        # *not* declare engine invariance: the cache must miss even though
        # the caller opted in.
        cache = ResultCache()
        spec = sssp_spec(engine="sparse")
        digest = "cd" * 32
        from repro.congest.engine.types import RoundReport, SimulationResult

        cache.store(
            spec,
            digest,
            SimulationResult(
                outputs={}, report=RoundReport(1, 0, 0, 0, 0, "x"), contexts={}
            ),
        )
        other = spec.with_engine("symbolic")
        assert (
            cache.lookup(other, digest, allow_cross_engine=True, engine_invariant=False)
            is None
        )
        assert (
            cache.lookup(other, digest, allow_cross_engine=True, engine_invariant=True)
            is not None
        )


class TestLruAndDiskTier:
    def test_lru_evicts_oldest(self):
        cache = ResultCache(max_entries=2)
        service = SimulationService(max_workers=1, cache=cache)
        specs = [
            sssp_spec(params={"source": s}) for s in (0, 1, 2)
        ]
        for spec in specs:
            service.run(spec)
        assert len(cache) == 2
        assert cache.stats.evictions == 1
        # The evicted (oldest) entry must re-run; the newest still hits.
        service.run(specs[2])
        assert cache.stats.hits == 1
        service.run(specs[0])
        assert cache.stats.misses == 4
        service.close()

    def test_disk_tier_survives_processes(self, tmp_path):
        spec = sssp_spec(engine="sparse")
        first = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        fresh = first.run(spec)
        first.close()

        files = list(tmp_path.glob("*.json"))
        assert len(files) == 1
        document = json.loads(files[0].read_text())
        assert document["protocol"] == "bellman-ford-sssp"
        assert document["engine"] == "sparse"

        # A brand-new service (fresh LRU) with the same directory hits disk.
        second = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        warm = second.run(spec)
        assert warm == fresh
        assert second.cache.stats.disk_hits == 1
        assert second.cache.stats.hits == 1
        second.close()

    def test_disk_tier_cross_engine_scan(self, tmp_path):
        spec = sssp_spec(engine="sparse")
        first = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        fresh = first.run(spec)
        first.close()

        second = SimulationService(
            max_workers=1,
            cache=ResultCache(directory=tmp_path),
            allow_cross_engine=True,
        )
        warm = second.run(spec.with_engine("symbolic"))
        assert warm == fresh
        assert second.cache.stats.cross_engine_hits == 1
        second.close()

    def test_cross_engine_disk_lookup_reads_only_donors(self, tmp_path, monkeypatch):
        # The semantic key is in each file name, so a cross-engine lookup
        # opens only the documents that can serve it.
        writer = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        for source in range(4):
            writer.run(sssp_spec(engine="sparse", params={"source": source}))
        writer.close()
        reads = []
        read_text = Path.read_text

        def counting_read_text(path, *args, **kwargs):
            reads.append(path.name)
            return read_text(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", counting_read_text)
        digest = sssp_spec().graph.build().content_digest()
        cache = ResultCache(directory=tmp_path)
        missing = sssp_spec(engine="symbolic", params={"source": 5})
        assert cache.lookup(missing, digest, allow_cross_engine=True) is None
        assert reads == []
        donor = sssp_spec(engine="symbolic", params={"source": 2})
        assert cache.lookup(donor, digest, allow_cross_engine=True) is not None
        assert reads == [
            f"{cache_key(donor.with_engine('sparse'), digest)}."
            f"{semantic_key(donor, digest)}.json"
        ]
        assert cache.stats.cross_engine_hits == 1

    @pytest.mark.parametrize(
        "payload",
        [
            "{not json",
            "[]",
            "{}",
            '{"key": "x"}',
            _document({"__repro__": "bogus", "v": []}),
            _document({"__repro__": "dict", "k": [0, 1], "v": [0]}),
            _document([0, 1]),
        ],
        ids=[
            "not-json",
            "list",
            "empty-object",
            "key-only",
            "unknown-tag",
            "column-lengths-differ",
            "outputs-not-a-dict",
        ],
    )
    def test_corrupt_disk_entry_is_a_miss(self, tmp_path, payload):
        spec = sssp_spec()
        service = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        service.run(spec)
        service.close()
        for path in tmp_path.glob("*.json"):
            path.write_text(payload)
        again = SimulationService(max_workers=1, cache=ResultCache(directory=tmp_path))
        again.run(spec)
        assert again.cache.stats.misses == 1
        assert again.cache.stats.hits == 0
        assert again.cache.stats.corrupt == 1
        assert again.cache.snapshot()["corrupt"] == 1
        again.close()

    def test_clear_drops_memory_not_disk(self, tmp_path):
        cache = ResultCache(directory=tmp_path)
        service = SimulationService(max_workers=1, cache=cache)
        spec = sssp_spec()
        service.run(spec)
        cache.clear()
        assert len(cache) == 0
        service.run(spec)
        assert cache.stats.disk_hits == 1
        service.close()

    def test_concurrent_stores_of_one_key_do_not_collide(self, tmp_path):
        # Two misses on one spec store the same key at once: each writer must
        # go through its own temp file, or one truncates the other's and the
        # loser's rename fails with FileNotFoundError.
        from repro.congest.engine.types import RoundReport, SimulationResult

        cache = ResultCache(directory=tmp_path)
        spec = sssp_spec()
        digest = "ef" * 32
        result = SimulationResult(
            outputs={node: list(range(50)) for node in range(50)},
            report=RoundReport(1, 0, 0, 0, 0, "x"),
            contexts={},
        )
        barrier = threading.Barrier(2, timeout=30)
        errors = []

        def writer():
            try:
                for _ in range(40):
                    barrier.wait()
                    cache.store(spec, digest, result)
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
                barrier.abort()

        threads = [threading.Thread(target=writer) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        key = cache_key(spec, digest)
        semantic = semantic_key(spec, digest)
        assert sorted(path.name for path in tmp_path.iterdir()) == [f"{key}.{semantic}.json"]
        fresh = ResultCache(directory=tmp_path)
        assert fresh.lookup(spec, digest) is not None

    def test_bad_max_entries_rejected(self):
        with pytest.raises(ValueError, match="max_entries"):
            ResultCache(max_entries=0)
