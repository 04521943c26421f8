"""Messages and bandwidth accounting for the CONGEST simulator.

The CONGEST model restricts each per-edge, per-round message to
``B = O(log n)`` bits.  The simulator therefore needs a notion of *message
size in bits*.  We charge sizes as a real CONGEST algorithm designer would:

* a node identifier costs ``ceil(log2 n)`` bits,
* an integer value ``x`` costs ``bit_length(x)`` bits (at least 1),
* a float/infinity marker costs one word (``word_bits``),
* a tuple costs the sum of its parts,

and each message additionally carries a small constant tag overhead.  The
accounting is intentionally simple and explicit -- the benchmarks compare
*rounds*, and the bandwidth accounting exists to (a) verify that protocols
respect ``O(log n)``-bit messages up to the declared word count and (b) let
the simulator split oversized payloads into multiple rounds when a protocol
legitimately pipelines larger payloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Dict, Tuple

__all__ = [
    "Message",
    "message_size_bits",
    "encode_value",
    "id_bits",
    "make_message_sizer",
]


def id_bits(num_nodes: int) -> int:
    """Number of bits needed for a node identifier in an ``n``-node network."""
    if num_nodes < 1:
        raise ValueError("num_nodes must be positive")
    return max(1, math.ceil(math.log2(max(2, num_nodes))))


def encode_value(value: Any, word_bits: int = 32) -> int:
    """Return the size in bits used to charge ``value`` against the bandwidth.

    Parameters
    ----------
    value:
        The payload.  Supported: ``None``, bool, int, float (including
        ``inf``), str, and (nested) tuples/lists of the above.
    word_bits:
        The size charged for one machine word (floats, infinity markers).
    """
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return max(1, value.bit_length() + 1)  # +1 sign bit
    if isinstance(value, float):
        return word_bits
    if isinstance(value, str):
        return 8 * len(value)
    if isinstance(value, (tuple, list)):
        return sum(encode_value(item, word_bits) for item in value) + 2
    raise TypeError(f"cannot charge bandwidth for value of type {type(value).__name__}")


@dataclass(frozen=True)
class Message:
    """A single CONGEST message travelling over one edge in one round.

    Attributes
    ----------
    sender:
        Node identifier of the sending endpoint.
    receiver:
        Node identifier of the receiving endpoint.
    payload:
        The content.  Must be encodable by :func:`encode_value`.
    tag:
        A short protocol tag (e.g. ``"bfs"``, ``"sssp"``) used when several
        sub-protocols share the network; charged at 8 bits.
    """

    sender: int
    receiver: int
    payload: Any
    tag: str = ""

    def size_bits(self, word_bits: int = 32) -> int:
        """Total charged size of the message in bits (memoized).

        The first call per ``word_bits`` walks the payload through
        :func:`encode_value` (the single source of truth for bandwidth
        charging); the result is cached on the instance so repeated
        accounting -- engine charging, observers, the Server-model replay --
        never re-walks a nested payload.  The dataclass is frozen, so the
        cache is attached via ``object.__setattr__``; payloads are treated
        as immutable once a message is enqueued, which the CONGEST model
        requires anyway (a sent message cannot be edited in flight).
        """
        cache = self.__dict__.get("_size_bits_cache")
        if cache is None:
            cache = {}
            object.__setattr__(self, "_size_bits_cache", cache)
        bits = cache.get(word_bits)
        if bits is None:
            bits = message_size_bits(self.payload, tag=self.tag, word_bits=word_bits)
            cache[word_bits] = bits
        return bits


def message_size_bits(payload: Any, tag: str = "", word_bits: int = 32) -> int:
    """Charged size in bits of a payload plus its protocol tag."""
    tag_bits = 8 if tag else 0
    return encode_value(payload, word_bits) + tag_bits


def make_message_sizer(
    word_bits: int,
) -> Callable[[Message], Tuple[Message, int]]:
    """Return a ``message -> (message, bits)`` sizer with a shared payload cache.

    Broadcasts fan the same payload tuple out to every neighbor; one walk of
    the payload serves the whole fan-out (and recurring flood values across
    rounds).  The shared cache is keyed by value, so it only admits flat
    tuples of exact ints/strs: for those, equality implies an identical
    charged size, whereas mixed-type equal values (``1 == True == 1.0``)
    charge differently and must not share an entry.  Everything else falls
    back to the per-message memoized walk (:meth:`Message.size_bits` stays
    the single source of truth).

    The sparse engine sizes at enqueue time through this helper; keeping the
    cache-admission rule next to :meth:`Message.size_bits` keeps the
    accounting bit-identical to the per-message walk.
    """
    cache: Dict[Tuple[str, Any], int] = {}

    def sized(message: Message) -> Tuple[Message, int]:
        payload = message.payload
        if type(payload) is tuple and all(
            type(item) is int or type(item) is str for item in payload
        ):
            key = (message.tag, payload)
            bits = cache.get(key)
            if bits is None:
                bits = message.size_bits(word_bits=word_bits)
                cache[key] = bits
            return message, bits
        return message, message.size_bits(word_bits=word_bits)

    return sized
