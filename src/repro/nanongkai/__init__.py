"""Nanongkai's approximate shortest-path toolkit (Appendix A of the paper).

The paper's upper bound quantises the classical machinery of
[Nanongkai, STOC 2014] for approximating weighted shortest paths in CONGEST
networks.  Appendix A of the paper restates the five algorithms that
machinery consists of; this subpackage implements each of them as a genuine
message-passing protocol on the CONGEST simulator, so that their round costs
are measured rather than assumed:

=============  =====================================================  ======================
Algorithm      Module                                                  Stated round bound
=============  =====================================================  ======================
Algorithm 2    :mod:`repro.nanongkai.bounded_distance_sssp`            ``O(L)``
Algorithm 1    :mod:`repro.nanongkai.bounded_hop_sssp`                 ``Õ(ℓ/ε)``
Algorithm 3    :mod:`repro.nanongkai.multi_source`                     ``Õ(D + ℓ/ε + |S|)``
Algorithm 4    :mod:`repro.nanongkai.overlay` (embedding)              ``Õ(D + |S|k)``
Algorithm 5    :mod:`repro.nanongkai.overlay` (overlay SSSP)           ``Õ(|S|D/(εk) + |S|)``
=============  =====================================================  ======================

On top of these, :mod:`repro.nanongkai.skeleton` provides the skeleton-set
sampling and the approximate distances / eccentricities of Lemma 3.3 and
Section 3.1 (``d̃_{G,w,S}`` and ``ẽ_{G,w,i}``), which are exactly the
quantities the quantum search of Section 3.2 optimises over.
"""

from repro.nanongkai.bounded_distance_sssp import (
    bounded_distance_sssp_protocol,
)
from repro.nanongkai.bounded_hop_sssp import (
    bounded_hop_sssp_protocol,
    bounded_hop_sssp_oracle,
)
from repro.nanongkai.multi_source import (
    multi_source_bounded_hop_protocol,
    multi_source_bounded_hop_oracle,
)
from repro.nanongkai.overlay import (
    OverlayGraph,
    embed_overlay_network,
    overlay_sssp_protocol,
    OverlayEmbedding,
)
from repro.nanongkai.skeleton import (
    sample_skeleton_sets,
    SkeletonApproximator,
)

__all__ = [
    "bounded_distance_sssp_protocol",
    "bounded_hop_sssp_protocol",
    "bounded_hop_sssp_oracle",
    "multi_source_bounded_hop_protocol",
    "multi_source_bounded_hop_oracle",
    "OverlayGraph",
    "OverlayEmbedding",
    "embed_overlay_network",
    "overlay_sssp_protocol",
    "sample_skeleton_sets",
    "SkeletonApproximator",
]
