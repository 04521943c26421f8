"""Differential tests for the skeleton sampler behind Theorem 1.1.

``KernelBackend.skeleton_sets`` (the base-class loop) is the reference:
every registered backend must draw exactly its sets from the same seed and
leave the random stream at the same position, so the outer search sees the
same skeletons whichever backend runs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import KernelBackend, available_backends, force_backend
from repro.nanongkai import sample_skeleton_sets

pytestmark = pytest.mark.kernels

REFERENCE = KernelBackend()


def _probability(nodes, expected_size):
    return min(1.0, expected_size / max(1, len(nodes)))


@st.composite
def sampler_inputs(draw):
    n = draw(st.integers(min_value=1, max_value=300))
    if draw(st.booleans()):
        nodes = list(range(n))
    else:
        # Unsorted, non-contiguous (possibly negative) node ids.
        nodes = draw(
            st.lists(
                st.integers(min_value=-(10**6), max_value=10**6),
                min_size=n,
                max_size=n,
                unique=True,
            )
        )
    size_kind = draw(st.sampled_from(["tiny", "moderate", "saturated"]))
    if size_kind == "tiny":
        # Far below 1: most sets come out empty and take the patch path.
        expected_size = draw(st.floats(min_value=1e-6, max_value=0.05))
    elif size_kind == "moderate":
        expected_size = draw(st.floats(min_value=0.5, max_value=30.0))
    else:
        expected_size = draw(st.floats(min_value=n, max_value=4.0 * n))
    num_sets = draw(st.integers(min_value=1, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    ensure_nonempty = draw(st.booleans())
    return nodes, expected_size, num_sets, seed, ensure_nonempty


@settings(max_examples=60, deadline=None)
@given(sampler_inputs())
def test_every_backend_draws_the_reference_sets(inputs):
    nodes, expected_size, num_sets, seed, ensure_nonempty = inputs
    probability = _probability(nodes, expected_size)
    reference_rng = random.Random(seed)
    expected = REFERENCE.skeleton_sets(
        nodes, probability, num_sets, reference_rng, ensure_nonempty
    )
    for name in available_backends():
        with force_backend(name) as backend:
            rng = random.Random(seed)
            assert (
                backend.skeleton_sets(nodes, probability, num_sets, rng, ensure_nonempty)
                == expected
            ), name
            # The stream is left where the reference leaves it.
            assert rng.getstate() == reference_rng.getstate(), name
            assert (
                sample_skeleton_sets(
                    nodes, expected_size, num_sets, seed=seed, ensure_nonempty=ensure_nonempty
                )
                == expected
            ), name


@pytest.mark.parametrize("name", available_backends())
def test_patched_sets_match_the_reference(name):
    nodes = [17, 3, 42, 8, 99, 25]
    expected_size, num_sets, seed = 0.05, 40, 11
    unpatched = sample_skeleton_sets(
        nodes, expected_size, num_sets, seed=seed, ensure_nonempty=False
    )
    assert [] in unpatched  # the reference patches at least one set
    expected = REFERENCE.skeleton_sets(
        nodes, _probability(nodes, expected_size), num_sets, random.Random(seed), True
    )
    assert all(len(members) >= 1 for members in expected)
    with force_backend(name):
        assert sample_skeleton_sets(nodes, expected_size, num_sets, seed=seed) == expected
