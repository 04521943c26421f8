"""Result types shared by every CONGEST execution engine.

These used to live in :mod:`repro.congest.simulator`; they moved here when
the simulator grew pluggable engines so that engine implementations can
import them without importing the facade.  The facade re-exports them, so
``from repro.congest.simulator import RoundReport`` keeps working.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.congest.algorithm import NodeContext

__all__ = [
    "RoundReport",
    "SimulationResult",
    "RoundLimitExceeded",
    "encode_result_value",
    "decode_result_value",
    "copy_result_value",
    "RESULT_CODEC_VERSION",
]


# --------------------------------------------------------------------------- #
# Value codec for result serialization.
#
# Protocol outputs are plain Python values (ints, floats including ``inf``,
# strings, tuples, lists, dicts keyed by node ids), but JSON cannot carry
# them faithfully: object keys must be strings, ``Infinity`` is not valid
# JSON, arrays erase the list/tuple distinction.  The codec below wraps the
# ambiguous cases in small tagged objects so that
# ``decode(json.loads(json.dumps(encode(v)))) == v`` holds *bit-identically*
# -- the contract the service-layer result cache relies on.
#
# The format is columnar: a dict encodes as two flat lists,
# ``{"__repro__": "dict", "k": [keys], "v": [values]}``, and a list, tuple
# or set as one.  A column whose items are all atoms (int, str, bool, None
# and finite floats, exact types only) is copied as is on both sides, so an
# APSP table costs a few C-level passes rather than one Python call per
# entry.  Finite floats are bare JSON numbers (``json`` writes their
# shortest repr, so they round-trip exactly, ``-0.0`` included); only
# ``inf``/``nan`` keep the ``float`` tag.  The service cache folds
# ``RESULT_CODEC_VERSION`` into every key, so entries written in an older
# format miss rather than being misread.
# --------------------------------------------------------------------------- #

_TAG = "__repro__"

#: Bumped whenever the encoded form of a value changes.
RESULT_CODEC_VERSION = 2

_ATOMS = frozenset({int, str, bool, float, type(None)})
_SEQUENCES = {"tuple": tuple, "set": set, "frozenset": frozenset}


class _Unencodable(TypeError):
    """An unserializable leaf; ``segments`` collects its path on unwinding."""

    def __init__(self, value: Any) -> None:
        self.value, self.segments = value, []


def _atoms(column: List[Any]) -> bool:
    """True when every item of ``column`` encodes (and decodes) as itself."""
    types = set(map(type, column))
    if float not in types:
        return types <= _ATOMS
    if not types <= _ATOMS:
        return False
    floats = column if len(types) == 1 else [x for x in column if type(x) is float]
    return all(map(math.isfinite, floats))


def _encode_column(items: Iterable[Any], segment: Callable[[int], str]) -> List[Any]:
    """Encode ``items`` into a new list; ``segment(i)`` names item ``i``'s
    path step, read only when that item cannot be encoded."""
    column = list(items)
    if _atoms(column):
        return column
    encoded: List[Any] = []
    try:
        for item in column:
            encoded.append(_encode(item))
    except _Unencodable as exc:
        exc.segments.append(segment(len(encoded)))
        raise
    return encoded


def _encode(value: Any) -> Any:
    if value is None or isinstance(value, (str, int)):
        return value
    if isinstance(value, float):
        if math.isfinite(value):
            return float(value)
        return {_TAG: "float", "v": repr(float(value))}
    if isinstance(value, list):
        return _encode_column(value, "[{}]".format)
    if isinstance(value, tuple):
        return {_TAG: "tuple", "v": _encode_column(value, "[{}]".format)}
    if isinstance(value, dict):
        keys = list(value)
        return {
            _TAG: "dict",
            "k": _encode_column(keys, lambda i: ".key"),
            "v": _encode_column(value.values(), lambda i: f"[{keys[i]!r}]"),
        }
    if isinstance(value, (set, frozenset)):
        tag = "frozenset" if isinstance(value, frozenset) else "set"
        column = _encode_column(value, lambda i: "")
        column.sort(key=repr)
        return {_TAG: tag, "v": column}
    raise _Unencodable(value)


def encode_result_value(value: Any, path: str = "$") -> Any:
    """Encode ``value`` into JSON-safe structures (see module comment)."""
    try:
        return _encode(value)
    except _Unencodable as exc:
        where = path + "".join(reversed(exc.segments))
        raise TypeError(
            f"cannot serialize {type(exc.value).__name__} at {where}: simulation "
            f"results must be built from None/bool/int/float/str/tuple/list/"
            f"dict/set values to round-trip through the result cache"
        ) from None


def _decode_column(column: Any) -> Iterable[Any]:
    """The decoded items of ``column``: the list itself when it holds only
    atoms, else a lazy item-by-item decode."""
    if type(column) is not list:
        raise ValueError(f"a serialized column must be a list, got {type(column).__name__}")
    if set(map(type, column)) <= _ATOMS:
        return column
    return map(decode_result_value, column)


def decode_result_value(payload: Any) -> Any:
    """Inverse of :func:`encode_result_value`."""
    if type(payload) is list:
        return list(_decode_column(payload))
    if isinstance(payload, dict):
        tag = payload.get(_TAG)
        if tag == "dict":
            return dict(
                zip(_decode_column(payload.get("k")), _decode_column(payload.get("v")), strict=True)
            )
        if tag == "float":
            return float(payload["v"])
        if tag not in _SEQUENCES:
            raise ValueError(f"unknown serialization tag {tag!r}")
        return _SEQUENCES[tag](_decode_column(payload.get("v")))
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    raise ValueError(f"cannot decode serialized payload of type {type(payload).__name__}")


def copy_result_value(value: Any) -> Any:
    """A structural copy of a decoded value: every dict, list and set is
    new, while atoms, all-atom tuples and frozensets (immutable throughout)
    are shared.  An all-atom column is copied in one C-level pass."""
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


def _values_equal(a: Any, b: Any) -> bool:
    """``a == b`` coerced to a plain bool.

    Outputs are arbitrary protocol values; some (numpy arrays) overload
    ``__eq__`` element-wise, where boolean coercion -- or the comparison
    itself, e.g. on mismatched shapes -- raises.  Such values count as equal
    only when the comparison succeeds and every element agrees; a raising
    comparison is a disagreement, never an escaping error.
    """
    try:
        result = a == b
    except Exception:
        return False
    if isinstance(result, bool):
        return result
    try:
        return bool(result)
    except (TypeError, ValueError):
        all_equal = getattr(result, "all", None)
        if all_equal is None:
            return False
        try:
            return bool(all_equal())
        except Exception:
            return False


class RoundLimitExceeded(RuntimeError):
    """Raised when a protocol does not terminate within the round limit."""


@dataclass
class RoundReport:
    """Accounting of a single protocol execution.

    Attributes
    ----------
    rounds:
        Number of synchronous rounds executed (messages delivered).
    congested_rounds:
        Round count adjusted for bandwidth: each round is charged
        ``max_edge ceil(bits / B)`` sub-rounds (at least 1 if any message was
        sent, and 1 for an idle round that still advanced the clock).
    total_messages:
        Total number of messages delivered over the whole execution.
    total_bits:
        Total number of payload bits delivered.
    max_message_bits:
        Largest single message observed.
    protocol:
        Name of the protocol that produced this report.

    Every execution engine must produce *bit-identical* reports for the same
    protocol on the same network -- the differential tests in
    ``tests/congest/test_engine_differential.py`` enforce this, because all
    round-complexity numbers quoted in the benchmarks are read off these
    reports.
    """

    rounds: int = 0
    congested_rounds: int = 0
    total_messages: int = 0
    total_bits: int = 0
    max_message_bits: int = 0
    protocol: str = ""

    def merge_sequential(self, other: "RoundReport") -> "RoundReport":
        """Combine with a report of a protocol run *after* this one."""
        return RoundReport(
            rounds=self.rounds + other.rounds,
            congested_rounds=self.congested_rounds + other.congested_rounds,
            total_messages=self.total_messages + other.total_messages,
            total_bits=self.total_bits + other.total_bits,
            max_message_bits=max(self.max_message_bits, other.max_message_bits),
            protocol=f"{self.protocol}+{other.protocol}" if self.protocol else other.protocol,
        )

    @staticmethod
    def sequential(reports: List["RoundReport"]) -> "RoundReport":
        """Combine a list of reports run one after another."""
        combined = RoundReport()
        for report in reports:
            combined = combined.merge_sequential(report)
        return combined

    def to_json(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_json` restores bit-identically."""
        return {
            "rounds": self.rounds,
            "congested_rounds": self.congested_rounds,
            "total_messages": self.total_messages,
            "total_bits": self.total_bits,
            "max_message_bits": self.max_message_bits,
            "protocol": self.protocol,
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RoundReport":
        """Restore a report produced by :meth:`to_json`."""
        if not isinstance(payload, dict):
            raise ValueError(
                f"RoundReport.from_json expects a dict, got {type(payload).__name__}"
            )
        fields = {}
        for name in ("rounds", "congested_rounds", "total_messages", "total_bits", "max_message_bits"):
            value = payload.get(name, 0)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"RoundReport field {name!r} must be an int, got {value!r}")
            fields[name] = value
        protocol = payload.get("protocol", "")
        if not isinstance(protocol, str):
            raise ValueError(f"RoundReport field 'protocol' must be a str, got {protocol!r}")
        return cls(protocol=protocol, **fields)


class SimulationResult:
    """Outputs of all nodes plus the execution's round report.

    An engine passes ``outputs`` and ``contexts``, or a snapshot of the
    network's ``nodes`` and a ``build(node) -> (output, context)`` that
    makes one node's final state on demand (it must not raise and must not
    read state the caller can still change).  :meth:`output_of` builds only
    the node it reads; the first full read of ``outputs`` or ``contexts``
    runs ``build`` over every node, reusing those already built, and is
    cached.  ``table`` is the
    closed-form engine's final min-plus table (one row per node, one value
    per schema column), else ``None``; it takes no part in equality,
    ``repr`` or serialization, which behave as for a dataclass of
    ``outputs``, ``report`` and ``contexts``.
    """

    def __init__(
        self,
        outputs: Optional[Dict[int, Any]],
        report: RoundReport,
        contexts: Optional[Dict[int, NodeContext]] = None,
        table: Any = None,
        build: Optional[Callable[[int], Tuple[Any, NodeContext]]] = None,
        nodes: Sequence[int] = (),
    ) -> None:
        self.report = report
        self.table = table
        self._build = build
        self._nodes = nodes
        self._built: Dict[int, Tuple[Any, NodeContext]] = {}
        if build is None:
            self._state = (outputs, {} if contexts is None else contexts)

    @functools.cached_property
    def _state(self) -> Tuple[Dict[int, Any], Dict[int, NodeContext]]:
        outputs: Dict[int, Any] = {}
        contexts: Dict[int, NodeContext] = {}
        built, build = self._built, self._build
        for node in self._nodes:
            outputs[node], contexts[node] = built[node] if node in built else build(node)
        self._build = None
        self._built = {}
        return outputs, contexts

    outputs = property(lambda self: self._state[0])
    contexts = property(lambda self: self._state[1])

    def _fields(self) -> Tuple[Dict[int, Any], RoundReport, Dict[int, NodeContext]]:
        return self.outputs, self.report, self.contexts

    def __eq__(self, other: Any) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return "SimulationResult(outputs={!r}, report={!r}, contexts={!r})".format(
            *self._fields()
        )

    def output_of(self, node: int) -> Any:
        """A single node's output, building only that node's state while
        the others are unread."""
        if self._build is None or node not in self._nodes:
            return self.outputs[node]
        if node not in self._built:
            self._built[node] = self._build(node)
        return self._built[node][0]

    def unique_output(self) -> Any:
        """Return the common output when all nodes agree; raise otherwise.

        Matches the paper's success criterion: "we say an algorithm computes
        the diameter/radius if all nodes output the correct answer".

        Agreement is decided by *equality* of the outputs, not by their
        ``repr``: two distinct values can share a repr (two objects whose
        ``__repr__`` collide) and equal values can have distinct reprs
        (``1`` vs ``True``), so deduplicating on ``repr`` mis-groups both.
        """
        distinct: List[Any] = []
        for value in self.outputs.values():
            if not any(_values_equal(value, seen) for seen in distinct):
                distinct.append(value)
        if len(distinct) != 1:
            raise ValueError(
                f"nodes disagree on the output ({len(distinct)} distinct values)"
            )
        return distinct[0]

    def to_json(self) -> Dict[str, Any]:
        """A JSON-safe dict that :meth:`from_json` restores bit-identically.

        Only ``outputs`` and ``report`` are serialized: ``contexts`` hold
        live :class:`NodeContext` objects (per-node memory plus simulator
        plumbing) and intentionally do not round-trip -- a deserialized
        result carries empty contexts.  The service layer therefore returns
        context-free results on *every* path, cold or cached, so cache hits
        are indistinguishable from fresh runs.
        """
        return {
            "outputs": encode_result_value(self.outputs, "$.outputs"),
            "report": self.report.to_json(),
        }

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "SimulationResult":
        """Restore a result produced by :meth:`to_json` (empty contexts)."""
        if not isinstance(payload, dict) or "outputs" not in payload or "report" not in payload:
            raise ValueError(
                "SimulationResult.from_json expects a dict with 'outputs' and 'report'"
            )
        outputs = decode_result_value(payload["outputs"])
        if not isinstance(outputs, dict):
            raise ValueError(
                f"serialized outputs must decode to a dict, got {type(outputs).__name__}"
            )
        return cls(outputs=outputs, report=RoundReport.from_json(payload["report"]))
