"""Seedable measurement randomness for the quantum subsystem.

Every quantum search must produce *identical measured outcomes* for the same
seed whether or not NumPy is installed, and the two-class searches must
consume the same draws as their full-statevector references, so measurement
randomness cannot come from ``numpy.random``.  :class:`QuantumRng` is the
thin shim every quantum entry point routes through:

* seeded with an ``int`` (or ``None``), it draws from :class:`random.Random`
  -- dependency-free and byte-identical everywhere;
* handed an existing :class:`random.Random` or a NumPy ``Generator`` it wraps
  the caller's source, so legacy call sites passing
  ``numpy.random.default_rng(seed)`` keep working unchanged.

Only two scalar draws exist (``random`` and ``randrange``); every
probability-weighted choice is done by inverse-CDF over a single ``random()``
draw, which keeps the stream consumption -- and therefore the measured
outcomes -- identical between a search and its reference.
"""

from __future__ import annotations

import random
from typing import Optional, Union

__all__ = ["QuantumRng", "RandomSource", "as_quantum_rng"]

#: Anything :func:`as_quantum_rng` accepts: a seed, a ``random.Random``, a
#: NumPy ``Generator`` (detected structurally so this module never imports
#: NumPy), an existing shim, or ``None`` for the deterministic default.
RandomSource = Union[None, int, random.Random, "QuantumRng", object]


class QuantumRng:
    """A seedable scalar-draw randomness source shared by every search."""

    __slots__ = ("_random", "_randrange")

    def __init__(self, source: RandomSource = None) -> None:
        if source is None or isinstance(source, int):
            source = random.Random(0 if source is None else source)
        if isinstance(source, random.Random):
            self._random = source.random
            self._randrange = source.randrange
        elif callable(getattr(source, "integers", None)) and callable(
            getattr(source, "random", None)
        ):
            # NumPy Generator (or anything with its scalar surface).
            self._random = lambda: float(source.random())
            self._randrange = lambda n: int(source.integers(n))
        else:
            raise TypeError(
                "rng must be None, an int seed, a random.Random, a numpy "
                f"Generator or a QuantumRng, got {type(source).__name__}"
            )

    def random(self) -> float:
        """One uniform draw from ``[0, 1)``."""
        return self._random()

    def randrange(self, n: int) -> int:
        """One uniform integer draw from ``{0, ..., n - 1}``."""
        return self._randrange(n)

    def fork(self) -> "QuantumRng":
        """An independent child stream, seeded by one draw from this stream.

        Forking advances this stream by exactly one draw; afterwards the child
        and the parent never influence each other.  The Dürr-Høyer
        repetitions each run on a fork, so one run's draws cannot shift
        another's.
        """
        return QuantumRng(int(self._random() * 2**53) ^ 0x9E3779B9)

    def spawn(self, count: int) -> list["QuantumRng"]:
        """``count`` independent child streams (one parent draw each)."""
        return [self.fork() for _ in range(count)]


def as_quantum_rng(source: Optional[RandomSource]) -> QuantumRng:
    """Normalise any accepted randomness source into a :class:`QuantumRng`."""
    if isinstance(source, QuantumRng):
        return source
    return QuantumRng(source)
