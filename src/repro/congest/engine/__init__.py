"""Pluggable execution engines for the CONGEST simulator.

See :mod:`repro.congest.engine.base` for the registry contract and
:mod:`repro.congest.engine.schema` for the message-schema hook that makes a
protocol eligible for the schema-driven engines (the vectorized ``dense``
engine and the closed-form ``symbolic`` engine).  Importing this package
registers the bundled engines (``sparse``, ``symbolic``, and -- when NumPy
and SciPy are importable -- ``dense``).
"""

from repro.congest.engine.types import (
    RoundLimitExceeded,
    RoundReport,
    SimulationResult,
)
from repro.congest.engine.base import (
    ENGINE_ENV_VAR,
    ExecutionEngine,
    PreparedRun,
    ResolvedRun,
    available_engines,
    force_engine,
    get_engine,
    register_engine,
    resolve_engine,
)
from repro.congest.engine.schema import (
    BroadcastReplaySchema,
    MinPlusSchema,
    TreeSchema,
)

# Engine registration happens at import time, mirroring the kernel backends.
from repro.congest.engine import sparse as _sparse  # noqa: F401  (registers)
from repro.congest.engine import symbolic as _symbolic  # noqa: F401  (registers)

try:  # The dense engine needs NumPy and SciPy; the rest must work without them.
    from repro.congest.engine import dense as _dense  # noqa: F401  (registers)
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    pass

__all__ = [
    "RoundLimitExceeded",
    "RoundReport",
    "SimulationResult",
    "ENGINE_ENV_VAR",
    "ExecutionEngine",
    "PreparedRun",
    "ResolvedRun",
    "available_engines",
    "force_engine",
    "get_engine",
    "register_engine",
    "resolve_engine",
    "BroadcastReplaySchema",
    "MinPlusSchema",
    "TreeSchema",
]
