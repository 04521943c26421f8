"""Copy plans: a cache entry's shape, worked out once, copies every hit.

``copy_by_plan(copy_plan(v), v)`` must make exactly the copy that the
type-checking walk below (``copy_result_value``, the copy every hit made
before plans) makes: equal values with the same type at every level, the
same objects shared with the source, and no dict, list or set shared with
the source or with another copy.  The plan the decoder derives while it
decodes must equal ``copy_plan`` of what it decoded, and uniform items
collapse to one plan, so the weighted-APSP table's plan has a fixed size.
"""

from __future__ import annotations

import copy
import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.engine.types import (
    SimulationResult,
    copy_by_plan,
    copy_plan,
    decode_result_planned,
    encode_result_value,
)
from repro.service import GraphSpec, RunSpec, SimulationService

pytestmark = pytest.mark.service

_ATOMS = frozenset({int, str, bool, float, type(None)})


def copy_result_value(value):
    """The reference copy: every dict, list and set is new, while atoms,
    all-atom tuples and frozensets are shared; each container's item types
    are checked on every call."""
    kind = type(value)
    if kind is dict:
        if set(map(type, value.values())) <= _ATOMS:
            return dict(value)
        return {key: copy_result_value(item) for key, item in value.items()}
    if kind is list:
        if set(map(type, value)) <= _ATOMS:
            return list(value)
        return list(map(copy_result_value, value))
    if kind is set:
        return set(value)
    if kind is tuple and not set(map(type, value)) <= _ATOMS:
        return tuple(map(copy_result_value, value))
    return value


def _items(value):
    return list(value.values()) if type(value) is dict else list(value)


def _assert_same_copy(got, want, source):
    """``got`` and ``want`` (two copies of ``source``) agree on type, value
    and which of their objects are ``source``'s own, at every level."""
    assert type(got) is type(want) is type(source)
    assert (got is source) == (want is source), (got, source)
    if type(source) is float and math.isnan(source):
        assert math.isnan(got) and math.isnan(want)
        return
    assert got == want == source
    if type(source) is dict:
        assert list(got) == list(want) == list(source)
        assert all(a is b for a, b in zip(got, source))
    if type(source) in (set, frozenset):
        # Set items are hashable, hence shared by both copies.
        assert all(any(item is other for other in source) for item in got)
        return
    if type(source) in (dict, list, tuple):
        for item in zip(_items(got), _items(want), _items(source)):
            _assert_same_copy(*item)


def _mutable_ids(value, found):
    """``id``s of every dict, list and set reachable from ``value``, once
    per place it is reached."""
    if type(value) in (dict, list, set):
        found.append(id(value))
    if type(value) in (dict, list, tuple):
        for item in _items(value):
            _mutable_ids(item, found)
    return found


def _plan_size(plan):
    if type(plan) is not tuple:
        return 1
    inner = plan[1]
    return 1 + (sum(map(_plan_size, inner)) if type(inner) is list else _plan_size(inner))


_ints = st.integers(min_value=-(2**80), max_value=2**80)
_atoms = st.one_of(
    st.none(),
    st.booleans(),
    _ints,
    st.floats(),
    st.sampled_from([math.inf, -math.inf, -0.0, math.nan, 1, True, 2**63, -(2**64)]),
    st.text(max_size=4),
)
_hashables = st.one_of(
    _atoms.filter(lambda x: not (type(x) is float and math.isnan(x))),
    st.tuples(_ints, st.text(max_size=2)),
    st.frozensets(_ints, max_size=3),
)


def _containers(children):
    """Mixed containers of ``children``, and uniform ones whose items are
    fresh copies of one generated item (so their plans collapse)."""
    uniform = st.tuples(children, st.integers(min_value=1, max_value=4)).map(
        lambda pair: [copy.deepcopy(pair[0]) for _ in range(pair[1])]
    )
    return st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_hashables, children, max_size=5),
        st.sets(_hashables, max_size=4),
        st.frozensets(_hashables, max_size=4),
        uniform,
        uniform.map(tuple),
        uniform.map(lambda items: dict(enumerate(items))),
    )


_values = st.recursive(_atoms, _containers, max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_values)
def test_plan_copy_matches_the_reference(value):
    plan = copy_plan(value)
    got, second = copy_by_plan(plan, value), copy_by_plan(plan, value)
    _assert_same_copy(got, copy_result_value(value), value)
    source_ids = _mutable_ids(value, [])
    got_ids, second_ids = _mutable_ids(got, []), _mutable_ids(second, [])
    assert len(set(got_ids)) == len(got_ids) == len(second_ids) == len(source_ids)
    assert not {*got_ids} & {*source_ids} and not {*second_ids} & {*source_ids}
    assert not {*got_ids} & {*second_ids}


@settings(max_examples=300, deadline=None)
@given(_values)
def test_decoding_derives_the_copy_plan(value):
    decoded, plan = decode_result_planned(json.loads(json.dumps(encode_result_value(value))))
    assert plan == copy_plan(decoded)
    _assert_same_copy(copy_by_plan(plan, decoded), copy_result_value(decoded), decoded)


def test_uniform_items_collapse_to_one_plan():
    assert copy_plan({0: {1: 2.5}, 1: {}}) == (dict, dict)
    assert copy_plan([(1, [2]), (3, [4, 5])]) == (list, (tuple, [None, list]))
    assert copy_plan(((1, 2), frozenset({3}))) == (tuple, None)
    assert copy_plan({0: [1], 1: {2: 3}, 2: 4}) == (dict, [list, dict, None])
    assert copy_plan((1, "a", None)) is None and copy_plan(frozenset({(1, 2)})) is None
    assert copy_plan({5, 6}) is set and copy_plan([]) is list and copy_plan(()) is None


def test_a_dict_decoding_a_repeated_key_is_rejected():
    with pytest.raises(ValueError, match="repeats a key"):
        decode_result_planned({"__repro__": "dict", "k": [1, True], "v": [[1], 2]})


def test_weighted_apsp_plans_do_not_grow_with_the_table():
    service = SimulationService()
    plans = []
    for n in (12, 40):
        spec = RunSpec(
            protocol="weighted-apsp",
            graph=GraphSpec(generator="yao_spanner", params={"num_nodes": n, "seed": 3}),
        )
        result = service.run(spec)
        assert len(result.outputs) == n
        decoded, plan = SimulationResult.from_json_planned(result.to_json())
        assert plan == copy_plan(decoded.outputs) == copy_plan(result.outputs)
        plans.append(plan)
    assert plans[0] == plans[1] == (dict, dict)
    assert _plan_size(plans[1]) == 2
