"""Cache hits are structural copies of one decoded result.

The LRU keeps each entry's result decoded once; every hit (the cold
request's own result included) is a copy with fresh dicts, lists, sets and
report.  These tests mutate hits every way a caller can and check that no
later hit, from memory or from disk, sees it.
"""

from __future__ import annotations

import math

import pytest

from repro.congest.engine.types import RoundReport, SimulationResult
from repro.service import GraphSpec, ResultCache, RunSpec

pytestmark = pytest.mark.service

DIGEST = "ab" * 32
SPEC = RunSpec(
    protocol="bellman-ford-sssp",
    graph=GraphSpec(generator="yao_spanner", params={"num_nodes": 24, "seed": 7}),
    params={"source": 0},
)


def _result() -> SimulationResult:
    outputs = {
        0: {"dist": {1: 2, 2: math.inf}, "path": [1, 2, [3, 4]], "seen": {1, 2}},
        1: {"pair": (1, 2.5), "frozen": frozenset({(1, 2), 3}), "mixed": ([1], {"a": 2})},
        2: [math.inf, -0.0, None, "x", True],
        3: 7,
    }
    return SimulationResult(outputs=outputs, report=RoundReport(3, 4, 5, 6, 7, "bf"))


def _mutable_ids(value, found=None):
    """``id``s of every dict, list and set reachable from ``value``."""
    found = set() if found is None else found
    if isinstance(value, (dict, list, set)):
        found.add(id(value))
    items = value.values() if isinstance(value, dict) else value
    if isinstance(value, (dict, list, set, tuple, frozenset)):
        for item in items:
            _mutable_ids(item, found)
    return found


def _hit(cache: ResultCache) -> SimulationResult:
    result = cache.lookup(SPEC, DIGEST)
    assert result is not None
    return result


def _mutate(result: SimulationResult) -> None:
    result.outputs[9] = "outer"
    result.outputs[0]["dist"][5] = 1
    result.outputs[0]["path"][2].append(5)
    result.outputs[0]["seen"].add(3)
    result.outputs[1]["mixed"][0].append(2)
    result.outputs[1]["mixed"][1]["b"] = 3
    result.report.rounds += 100
    result.report.protocol = "poisoned"


def test_mutated_hits_never_reach_later_hits(tmp_path):
    cache = ResultCache(directory=tmp_path)
    cold = cache.store(SPEC, DIGEST, _result())
    assert cold == _result()
    _mutate(cold)
    first = _hit(cache)
    assert first == _result()
    _mutate(first)
    assert _hit(cache) == _result()
    assert cache.stats.hits == 2
    revived = ResultCache(directory=tmp_path)
    from_disk = _hit(revived)
    assert revived.stats.disk_hits == 1
    assert from_disk == _result()
    _mutate(from_disk)
    assert _hit(revived) == _result()
    assert revived.stats.disk_hits == 1  # the second hit came from memory


def test_hits_share_no_mutable_container(tmp_path):
    cache = ResultCache(directory=tmp_path)
    results = [cache.store(SPEC, DIGEST, _result()), _hit(cache), _hit(cache)]
    revived = ResultCache(directory=tmp_path)
    results += [_hit(revived), _hit(revived)]
    seen = set()
    for result in results:
        ids = _mutable_ids(result.outputs) | {id(result.report)}
        assert len(ids) == len(_mutable_ids(result.outputs)) + 1
        assert not ids & seen
        seen |= ids


def test_tuples_frozensets_and_inf_round_trip(tmp_path):
    cache = ResultCache(directory=tmp_path)
    cache.store(SPEC, DIGEST, _result())
    for hit in (_hit(cache), _hit(ResultCache(directory=tmp_path))):
        assert hit == _result()
        assert hit.contexts == {}
        node = hit.outputs[1]
        assert type(node["pair"]) is tuple and type(node["frozen"]) is frozenset
        assert type(node["mixed"]) is tuple and type(node["mixed"][0]) is list
        assert hit.outputs[0]["dist"][2] == math.inf
        assert math.copysign(1.0, hit.outputs[2][1]) == -1.0


def test_corrupt_disk_entry_never_enters_the_lru(tmp_path):
    ResultCache(directory=tmp_path).store(SPEC, DIGEST, _result())
    (path,) = tmp_path.glob("*.json")
    path.write_text('{"key": "x", "result": {"outputs": [1]}}')
    cache = ResultCache(directory=tmp_path)
    for expected_corrupt in (1, 2):
        assert cache.lookup(SPEC, DIGEST) is None
        assert cache.stats.corrupt == expected_corrupt
        assert len(cache) == 0
    assert cache.stats.misses == 2 and cache.stats.hits == 0
