"""Array-based (CSR) shortest-path kernels with pluggable backends.

This subpackage is the performance substrate under every sequential oracle in
the library: a frozen :class:`~repro.kernels.csr.CSRGraph` snapshot of
:class:`~repro.graphs.weighted_graph.WeightedGraph` plus batched kernels that
the :mod:`repro.graphs`, :mod:`repro.core`, :mod:`repro.nanongkai` and
:mod:`repro.analysis` layers all consume.

Backends are pluggable through a small registry (:mod:`repro.kernels.backend`):
the SciPy backend is registered when its imports succeed, and the pure-Python
base class :class:`KernelBackend`, whose methods are the references it
overrides, is always available as ``"python"``.  Set
``REPRO_BACKEND=python`` (or use :func:`force_backend`) to pin it, e.g. when
bisecting a suspected kernel bug.
"""

from repro.kernels.csr import CSRGraph
from repro.kernels.backend import (
    BACKEND_ENV_VAR,
    KernelBackend,
    available_backends,
    force_backend,
    get_backend,
    register_backend,
)

# Register the accelerated backend when its imports succeed (the
# environment may legitimately lack NumPy and SciPy); "python" registers
# with the base.
try:  # pragma: no cover - exercised via the backend-matrix CI job
    from repro.kernels import scipy_backend as _scipy_backend  # noqa: F401
except ImportError:  # pragma: no cover
    pass

from repro.kernels.api import (
    all_pairs_distances_csr,
    batched_bellman_ford,
    diameter_csr,
    dijkstra_csr,
    eccentricities_csr,
    extremal_eccentricity_csr,
    multi_source_dijkstra,
    radius_csr,
)

__all__ = [
    "CSRGraph",
    "KernelBackend",
    "BACKEND_ENV_VAR",
    "available_backends",
    "force_backend",
    "get_backend",
    "register_backend",
    "dijkstra_csr",
    "multi_source_dijkstra",
    "batched_bellman_ford",
    "all_pairs_distances_csr",
    "eccentricities_csr",
    "extremal_eccentricity_csr",
    "diameter_csr",
    "radius_csr",
]
