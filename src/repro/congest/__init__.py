"""The classical CONGEST model: a synchronous message-passing simulator.

The CONGEST model (Section 2.2 of the paper) is a synchronous network of
``n`` processors.  In every round each node may send one message of at most
``B = O(log n)`` bits to each neighbor, then perform unlimited local
computation.  The complexity measure is the number of rounds.

This subpackage provides:

* :class:`~repro.congest.network.Network` -- the communication topology plus
  bandwidth configuration.
* :class:`~repro.congest.algorithm.NodeAlgorithm` -- the per-node program
  interface (initialize / receive / send).
* :class:`~repro.congest.simulator.Simulator` -- the synchronous round
  scheduler with full round / message / bandwidth accounting.  It is a thin
  facade over the pluggable execution engines in
  :mod:`repro.congest.engine` (``sparse`` / ``dense`` / ``symbolic``,
  selected per run or via ``REPRO_ENGINE``); every engine produces
  bit-identical round reports.
* Building-block protocols used throughout the paper's constructions:
  broadcast, convergecast, BFS-tree construction and leader election in
  :mod:`repro.congest.primitives`.
* Classical distance-computation baselines (distributed BFS APSP, distributed
  Bellman-Ford SSSP/APSP, eccentricity/diameter/radius protocols) in
  :mod:`repro.congest.apsp` and :mod:`repro.congest.sssp` -- these populate
  the classical rows of Table 1.
"""

from repro.congest.network import Network, CongestConfig
from repro.congest.message import Message, message_size_bits, encode_value
from repro.congest.algorithm import NodeAlgorithm, NodeContext
from repro.congest.simulator import Simulator, RoundReport, SimulationResult
from repro.congest.engine import (
    ENGINE_ENV_VAR,
    ExecutionEngine,
    MinPlusSchema,
    TreeSchema,
    available_engines,
    force_engine,
    get_engine,
    register_engine,
)
from repro.congest.primitives import (
    build_bfs_tree,
    broadcast_from,
    convergecast_max,
    convergecast_min,
    convergecast_sum,
    elect_leader,
    BfsTree,
)
from repro.congest.sssp import (
    distributed_bellman_ford,
    distributed_bfs,
    distributed_weighted_sssp,
)
from repro.congest.apsp import (
    distributed_unweighted_apsp,
    distributed_weighted_apsp,
    classical_diameter_protocol,
    classical_radius_protocol,
    classical_eccentricity_protocol,
)

__all__ = [
    "Network",
    "CongestConfig",
    "Message",
    "message_size_bits",
    "encode_value",
    "NodeAlgorithm",
    "NodeContext",
    "Simulator",
    "RoundReport",
    "SimulationResult",
    "ENGINE_ENV_VAR",
    "ExecutionEngine",
    "MinPlusSchema",
    "TreeSchema",
    "available_engines",
    "force_engine",
    "get_engine",
    "register_engine",
    "build_bfs_tree",
    "broadcast_from",
    "convergecast_max",
    "convergecast_min",
    "convergecast_sum",
    "elect_leader",
    "BfsTree",
    "distributed_bellman_ford",
    "distributed_bfs",
    "distributed_weighted_sssp",
    "distributed_unweighted_apsp",
    "distributed_weighted_apsp",
    "classical_diameter_protocol",
    "classical_radius_protocol",
    "classical_eccentricity_protocol",
]
