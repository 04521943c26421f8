"""repro -- reproduction of Wu & Yao, "Quantum Complexity of Weighted Diameter
and Radius in CONGEST Networks" (PODC 2022).

The library is organised in layers (README.md describes the kernel, quantum,
engine, service and lint layers in detail):

* :mod:`repro.graphs` -- weighted-graph substrate and sequential ground truth.
* :mod:`repro.kernels` -- CSR snapshots of the graph plus batched
  shortest-path kernels with pluggable (SciPy/NumPy/pure-Python) backends;
  the performance substrate under every sequential oracle.
* :mod:`repro.congest` -- the classical CONGEST model: synchronous simulator,
  round accounting, classical distance protocols.
* :mod:`repro.quantum` -- Grover search on the exact two-class state and
  Durr-Hoyer minimum/maximum finding.
* :mod:`repro.quantum_congest` -- the quantum CONGEST cost model and the
  distributed quantum optimization framework (Lemma 3.1).
* :mod:`repro.nanongkai` -- Nanongkai's approximate shortest-path toolkit
  (Appendix A, Algorithms 1-5).
* :mod:`repro.core` -- the paper's contribution: the quantum
  ``(1 + o(1))``-approximation of weighted diameter and radius
  (Theorem 1.1) and its classical/quantum baselines.
* :mod:`repro.lower_bounds` -- the Section 4 machinery: Server model, gadget
  graphs, read-once formulas, approximate degree, and the
  ``Omega~(n^{2/3})`` reduction (Theorems 4.2 and 4.8).
* :mod:`repro.analysis` -- complexity formulas, scaling fits and the
  renderers that regenerate Table 1/2 and the figures.
* :mod:`repro.runtime` -- the unified run-configuration entry point
  (``configure(engine=..., backend=...)``).
* :mod:`repro.service` -- simulation-as-a-service: ``RunSpec`` batch jobs
  over a thread pool, a content-addressed result cache, and
  Prometheus-text metrics (``python -m repro.service``).

Quickstart
----------
>>> from repro import quantum_weighted_diameter
>>> from repro.graphs import random_weighted_graph
>>> from repro.congest import Network
>>> graph = random_weighted_graph(num_nodes=40, max_weight=50, seed=1)
>>> network = Network(graph)
>>> estimate = quantum_weighted_diameter(network, seed=1)
>>> estimate.value >= 1
True
"""

from repro._version import __version__

__all__ = [
    "__version__",
    "configure",
    "quantum_weighted_diameter",
    "quantum_weighted_radius",
]


def __getattr__(name):
    """Lazily expose the top-level convenience entry points.

    The core algorithm pulls in every layer of the library; importing it
    lazily keeps ``import repro`` cheap for users who only need a single
    subpackage.
    """
    if name in ("quantum_weighted_diameter", "quantum_weighted_radius"):
        from repro.core import diameter_radius

        return getattr(diameter_radius, name)
    if name == "configure":
        from repro.runtime import configure

        return configure
    raise AttributeError(f"module 'repro' has no attribute {name!r}")
