"""One configuration entry point for every execution knob.

:func:`configure` composes the CONGEST engine registry (``REPRO_ENGINE`` /
:func:`repro.congest.engine.force_engine`) and the kernel backend registry
(``REPRO_BACKEND`` / :func:`repro.kernels.force_backend`) into one context
manager with one restore path::

    from repro.runtime import configure

    with configure(engine="dense", backend="python"):
        result = Simulator(network).run(protocol)

A knob left ``None`` leaves its selection mechanism untouched (an outer
``force_engine`` or an environment variable still applies).  The pins are
context-local: no other thread sees them.  The service layer validates and
applies a :class:`RunSpec`'s execution knobs through this same call, so
programmatic, environment and service-driven configuration cannot drift
apart.
"""

from __future__ import annotations

import contextlib
from typing import ContextManager, Iterator, Optional

__all__ = ["configure"]


def configure(
    engine: Optional[str] = None, backend: Optional[str] = None
) -> ContextManager[None]:
    """Validate ``engine`` and ``backend`` now, raising with the registered
    names; pin them in the current context while entered and restore both on
    exit.

    A forced ``engine`` (``sparse``/``dense``/``symbolic``) is still subject
    to per-run eligibility and falls back to ``sparse`` exactly like
    ``REPRO_ENGINE`` would; ``backend`` is ``scipy`` or ``python``.
    """
    from repro.congest.engine.base import force_engine, get_engine
    from repro.kernels.backend import force_backend, get_backend

    if engine is not None:
        get_engine(engine)
    if backend is not None:
        get_backend(backend)

    @contextlib.contextmanager
    def applied() -> Iterator[None]:
        with contextlib.ExitStack() as stack:
            if engine is not None:
                stack.enter_context(force_engine(engine))
            if backend is not None:
                stack.enter_context(force_backend(backend))
            yield

    return applied()
