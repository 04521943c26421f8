"""The deferred-result contract of the closed-form engines.

``symbolic`` (and ``dense_tree`` under it) hand back results whose per-node
outputs and contexts are built on their first read.  A Theorem 1.1 run
reads none of them; whatever is read, in either order, equals what the
eager ``sparse`` engine builds, and changes the caller makes after ``run()``
do not leak into it.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest

from repro.congest import Network, Simulator
from repro.congest.engine import force_engine
from repro.congest.primitives import (
    _TreeBroadcastAlgorithm,
    _TreeGatherAlgorithm,
    build_bfs_tree,
)
from repro.core.diameter_radius import quantum_weighted_diameter
from repro.graphs import random_weighted_graph, yao_spanner_graph
from repro.nanongkai.multi_source import MultiSourceBoundedHopAlgorithm

pytestmark = pytest.mark.engines


def _network() -> Network:
    return Network(random_weighted_graph(12, max_weight=9, seed=4))


def _algorithms(network: Network):
    tree, _ = build_bfs_tree(network, min(network.nodes))
    records = {node: [node] for node in network.nodes if node % 3 == 0}
    return {
        "multi-source": MultiSourceBoundedHopAlgorithm([0, 5, 5], 4, 0.5, 3, [2, 0, 1]),
        "broadcast": _TreeBroadcastAlgorithm(tree, ["a", "b", "c"]),
        "gather": _TreeGatherAlgorithm(tree, records),
    }


def test_theorem11_op_builds_no_unread_outputs(monkeypatch):
    """A forced-symbolic Theorem 1.1 run never runs Algorithm 3's
    ``finalize`` nor a tree broadcast's ``output``: nobody reads them."""
    calls = Counter()
    schema_of = MultiSourceBoundedHopAlgorithm.message_schema
    output_of = _TreeBroadcastAlgorithm.output
    init_of = _TreeBroadcastAlgorithm.__init__

    def counting_schema(self):
        calls["schema"] += 1
        schema = schema_of(self)

        def finalize(node, row):
            calls["finalize"] += 1
            return schema.finalize(node, row)

        return dataclasses.replace(schema, finalize=finalize)

    def counting_output(self, ctx):
        calls["output"] += 1
        return output_of(self, ctx)

    def counting_init(self, *args):
        calls["broadcasts"] += 1
        init_of(self, *args)

    monkeypatch.setattr(MultiSourceBoundedHopAlgorithm, "message_schema", counting_schema)
    monkeypatch.setattr(_TreeBroadcastAlgorithm, "output", counting_output)
    monkeypatch.setattr(_TreeBroadcastAlgorithm, "__init__", counting_init)
    network = Network(yao_spanner_graph(64, seed=0))
    with force_engine("symbolic"):
        result = quantum_weighted_diameter(network, seed=1)
    assert result.total_rounds > 0
    assert calls["schema"] > 0 and calls["broadcasts"] > 0
    assert calls["finalize"] == 0 and calls["output"] == 0

    # The hooks do count once something reads the outputs.
    with force_engine("symbolic"):
        run = Simulator(network).run(MultiSourceBoundedHopAlgorithm([0, 9], 4, 0.5, 2, [0, 1]))
    assert calls["finalize"] == 0
    assert len(run.outputs) == network.num_nodes == calls["finalize"]


@pytest.mark.parametrize("name", ["multi-source", "broadcast", "gather"])
@pytest.mark.parametrize("first", ["outputs", "contexts"])
def test_either_read_order_matches_the_eager_engine(name, first):
    network = _network()
    algorithm = _algorithms(network)[name]
    eager = Simulator(network).run(algorithm, engine="sparse")
    deferred = Simulator(network).run(algorithm, engine="symbolic")
    read = {first: getattr(deferred, first)}
    for field in ("outputs", "contexts"):
        read.setdefault(field, getattr(deferred, field))
    assert read["outputs"] == eager.outputs
    assert read["contexts"] == eager.contexts
    assert deferred.outputs is read["outputs"] and deferred.contexts is read["contexts"]
    assert deferred == eager
    assert repr(deferred) == repr(eager)
    assert deferred.to_json() == eager.to_json()


@pytest.mark.parametrize("name", ["multi-source", "broadcast", "gather"])
def test_changes_after_run_do_not_leak_into_the_first_read(name):
    network = _network()
    algorithm = _algorithms(network)[name]
    eager = Simulator(network).run(algorithm, engine="symbolic")
    expected = (repr(eager.outputs), repr({n: c.memory for n, c in eager.contexts.items()}))
    deferred = Simulator(network).run(algorithm, engine="symbolic")
    # Mutate the topology and the supplied tree before anything is read.
    network.graph.add_edge(0, 100, 3)
    if name != "multi-source":
        tree = algorithm._tree
        tree.children[tree.root].append(100)
        tree.parent[100] = tree.root
        tree.depth[100] = 1
    got = (repr(deferred.outputs), repr({n: c.memory for n, c in deferred.contexts.items()}))
    assert got == expected
    assert 100 not in deferred.outputs
