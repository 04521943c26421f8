"""Golden numbers for Theorem 1.1 on a bounded-degree spanner.

Pins the estimate, the charged round count, the guarantee flag and the
chosen skeleton set (its index and members) of the quantum weighted
diameter (even seeds) and radius (odd seeds) on one ``yao_spanner_graph``.
The run uses whichever engine and kernel backend the environment selects
(``REPRO_ENGINE`` / ``REPRO_BACKEND`` or ``auto``), so the same table holds
on every engine and backend: a change of the default engine, of an engine's
internals or of the skeleton sampler's random stream that moves any of
these numbers fails here.

The quantum search draws its measurements from NumPy's ``default_rng`` and,
without NumPy, from a seeded ``random.Random`` (see
``core.diameter_radius._search_rng``), so each stream has its own table.
The skeleton sampler's stream is the same in both.
"""

from __future__ import annotations

import random

import pytest

from repro.congest import Network
from repro.core import quantum_weighted_diameter, quantum_weighted_radius
from repro.core.parameters import AlgorithmParameters
from repro.graphs import yao_spanner_graph
from repro.nanongkai import sample_skeleton_sets

try:
    import numpy  # noqa: F401
except ImportError:
    HAVE_NUMPY = False
else:
    HAVE_NUMPY = True

#: seed -> (repr(value), total_rounds, within_guarantee, chosen_set_index,
#: chosen_skeleton), with NumPy's search stream.
GOLDEN = {
    0: ("1404.7830687830688", 190384, True, 23, [5, 8, 39, 52, 57]),
    1: ("720.5925925925926", 184343, True, 56, [9, 32, 41, 51, 61]),
    2: ("1417.4814814814813", 111151, True, 4, [10, 62]),
    3: ("720.5925925925926", 123324, True, 12, [12, 32, 41]),
}

#: The same runs with the ``random.Random`` search stream used without NumPy.
GOLDEN_WITHOUT_NUMPY = {
    0: ("1404.7830687830688", 190384, True, 23, [5, 8, 39, 52, 57]),
    1: ("720.5925925925926", 120510, True, 35, [2, 32, 53]),
    2: ("1071.4074074074074", 111424, False, 7, [36, 37]),
    3: ("720.5925925925926", 123709, True, 46, [0, 14, 32]),
}


@pytest.fixture(scope="module")
def spanner_network():
    return Network(yao_spanner_graph(64, seed=0))


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_theorem11_golden_numbers(spanner_network, seed):
    run = quantum_weighted_diameter if seed % 2 == 0 else quantum_weighted_radius
    result = run(spanner_network, seed=seed)
    golden = GOLDEN if HAVE_NUMPY else GOLDEN_WITHOUT_NUMPY
    assert (
        repr(result.value),
        result.total_rounds,
        result.within_guarantee,
        result.chosen_set_index,
        result.chosen_skeleton,
    ) == golden[seed]


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_both_tables_pin_one_sampler_stream(spanner_network, seed):
    """Every pinned skeleton is the sampled set at its pinned index, in
    either table: the sampler's stream does not depend on NumPy."""
    parameters = AlgorithmParameters.for_network(spanner_network)
    sets = sample_skeleton_sets(
        spanner_network.nodes,
        expected_size=parameters.skeleton_size,
        num_sets=parameters.num_sets,
        seed=random.Random(seed).randrange(2**31),  # as the Theorem 1.1 driver derives it
    )
    for golden in (GOLDEN, GOLDEN_WITHOUT_NUMPY):
        index, skeleton = golden[seed][3:]
        assert sets[index] == skeleton
