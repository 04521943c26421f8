"""Golden numbers for Theorem 1.1 on a bounded-degree spanner.

Pins the estimate, the charged round count and the guarantee flag of the
quantum weighted diameter (even seeds) and radius (odd seeds) on one
``yao_spanner_graph``.  The run uses whichever engine the environment
selects (``REPRO_ENGINE`` or ``auto``), so the same table holds on every
engine: a change of the default engine or of an engine's internals that
moves any of these numbers fails here.
"""

from __future__ import annotations

import pytest

from repro.congest import Network
from repro.core import quantum_weighted_diameter, quantum_weighted_radius
from repro.graphs import yao_spanner_graph

#: seed -> (repr(value), total_rounds, within_guarantee)
GOLDEN = {
    0: ("1404.7830687830688", 190384, True),
    1: ("720.5925925925926", 184343, True),
    2: ("1417.4814814814813", 111151, True),
    3: ("720.5925925925926", 123324, True),
}


@pytest.fixture(scope="module")
def spanner_network():
    return Network(yao_spanner_graph(64, seed=0))


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_theorem11_golden_numbers(spanner_network, seed):
    run = quantum_weighted_diameter if seed % 2 == 0 else quantum_weighted_radius
    result = run(spanner_network, seed=seed)
    assert (
        repr(result.value),
        result.total_rounds,
        result.within_guarantee,
    ) == GOLDEN[seed]
