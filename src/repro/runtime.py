"""Unified run configuration for every execution knob in one place.

The library has two independent selection mechanisms: the CONGEST engine
registry (``REPRO_ENGINE`` / :func:`repro.congest.engine.force_engine`) and
the kernel backend registry (``REPRO_BACKEND`` /
:func:`repro.kernels.force_backend`).  Composing them by hand means two
nested context managers with two restore paths.

:class:`RunConfig` + :func:`configure` collapse that into one call with one
restore path::

    from repro.runtime import configure

    with configure(engine="dense", backend="python"):
        result = Simulator(network).run(protocol)

Every knob is optional; ``None`` leaves the corresponding selection
mechanism untouched (so an outer ``force_engine`` or an environment
variable still applies).  Validation happens eagerly on entry, with errors
naming the registered engines/backends, and all knobs are restored on exit
even if an inner one fails to apply.  The service layer
(:mod:`repro.service`) applies a :class:`RunSpec`'s execution knobs through
exactly this path, so programmatic, environment and service-driven
configuration cannot drift apart.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Iterator, Optional

__all__ = ["RunConfig", "configure"]


@dataclass(frozen=True)
class RunConfig:
    """One immutable bundle of execution knobs.

    Attributes
    ----------
    engine:
        CONGEST execution engine name (``sparse``/``dense``/``symbolic``)
        or ``None`` to leave selection alone.  The forced engine
        is still subject to per-run eligibility and falls back to ``sparse``
        exactly like ``REPRO_ENGINE`` would.
    backend:
        Kernel backend name (``scipy``/``python``) or ``None``.
    """

    engine: Optional[str] = None
    backend: Optional[str] = None

    def validate(self) -> "RunConfig":
        """Eagerly resolve every named knob, raising with the registry lists."""
        if self.engine is not None:
            from repro.congest.engine.base import get_engine

            get_engine(self.engine)
        if self.backend is not None:
            from repro.kernels.backend import get_backend

            get_backend(self.backend)
        return self

    @contextlib.contextmanager
    def apply(self) -> Iterator["RunConfig"]:
        """Apply every knob, undoing all of them through one exit path."""
        self.validate()
        with contextlib.ExitStack() as stack:
            if self.engine is not None:
                from repro.congest.engine.base import force_engine

                stack.enter_context(force_engine(self.engine))
            if self.backend is not None:
                from repro.kernels.backend import force_backend

                stack.enter_context(force_backend(self.backend))
            yield self


def configure(engine: Optional[str] = None, backend: Optional[str] = None):
    """Context manager applying a :class:`RunConfig` in one call.

    ``with configure(engine="dense", backend="scipy"): ...`` is the single
    entry point replacing nested ``force_engine`` / ``force_backend`` calls.
    The old entry points all keep working; this composes them.
    """
    return RunConfig(engine=engine, backend=backend).apply()
