"""Content-addressed result cache: LRU in memory, optional JSON on disk.

The repository's memoization (CSR snapshots, BFS layerings, analytic round
charges) is keyed on a graph's *mutation counter* and therefore scoped to
one process and one live object.  The service cache keys on *content*
instead: the cache key is the SHA-256 of a canonical JSON document carrying
the graph's :meth:`~repro.graphs.WeightedGraph.content_digest`, the protocol
name and parameters, the bandwidth configuration and the per-run options.
Two different graph objects with identical content, or the same request
issued by two different processes pointing at the same cache directory, hit
the same entry; on disk the entry is ``<key>.json``.

The execution knobs (engine / backend) are not part of the key: they pick
how a run executes, never what it returns.  That is the repository's
engine-invariance contract -- every engine and backend produces identical
outputs and bit-identical round reports -- so a result computed under one
engine answers a request naming any other.

An entry is serialized once (:meth:`SimulationResult.to_json`, the disk and
wire format) and decoded once, at store or disk load.  The same walk that
decodes it derives its copy plan (:func:`~repro.congest.engine.types.copy_plan`);
the LRU keeps the decoded result beside that plan, and every hit returns a
structural copy made by the plan, with no type checks, so a caller that
mutates its result cannot change what the next request is served.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.congest.engine.types import RESULT_CODEC_VERSION, SimulationResult, copy_by_plan
from repro.service.spec import RunSpec

__all__ = ["CacheStats", "ResultCache", "cache_key"]

#: Fields of a spec that select *how* a run executes rather than *what* it
#: computes; the cache key leaves them out.
_EXECUTION_FIELDS = ("engine", "backend")


def cache_key(spec: RunSpec, graph_digest: str) -> str:
    """The content-addressed key for ``spec`` on the digested graph."""
    payload = spec.to_json()
    # The graph is represented by its content digest, not its spec: a
    # generator spec and the inline edge list it expands to are the same
    # cache entry.
    payload["graph"] = {"content_digest": graph_digest}
    # Entries written in another result format must miss, not be misread.
    payload["codec"] = RESULT_CODEC_VERSION
    for field in _EXECUTION_FIELDS:
        payload.pop(field, None)
    material = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(material.encode()).hexdigest()


#: A decoded result and the copy plan of its outputs.
_Planned = Tuple[SimulationResult, Any]


def _copy(entry: _Planned) -> SimulationResult:
    """A context-free copy of the entry's result sharing no mutable container."""
    result, plan = entry
    return SimulationResult(
        outputs=copy_by_plan(plan, result.outputs), report=dataclasses.replace(result.report)
    )


#: Fields every stored cache document carries; a disk entry missing any of
#: them (or not a JSON object at all) is corrupt.
_DOCUMENT_FIELDS = ("key", "result")


class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache`.

    ``corrupt`` counts disk entries read back as something other than a
    cache document (not JSON, JSON without the document fields, or a
    ``result`` that does not decode); each such read is served as a miss.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.disk_hits = 0
        self.evictions = 0
        self.corrupt = 0

    def snapshot(self) -> Dict[str, int]:
        return dict(self.__dict__)


class ResultCache:
    """LRU result cache with an optional on-disk tier.

    Parameters
    ----------
    max_entries:
        In-memory LRU bound (least-recently-used entries are dropped; with a
        disk tier they remain loadable from disk).
    directory:
        Optional directory for the persistent tier; entries are written as
        ``<key>.json`` documents carrying the serialized result plus enough
        metadata (protocol, engine, graph digest) to audit the cache by
        hand.
    """

    def __init__(
        self,
        max_entries: int = 256,
        directory: Optional[Path] = None,
    ) -> None:
        if not isinstance(max_entries, int) or isinstance(max_entries, bool) or max_entries < 1:
            raise ValueError(
                f"max_entries must be a positive integer, got {max_entries!r}"
            )
        self._max_entries = max_entries
        self._directory = Path(directory) if directory is not None else None
        if self._directory is not None:
            self._directory.mkdir(parents=True, exist_ok=True)
        #: key -> (decoded result, its copy plan); insertion order = LRU.
        self._entries: "OrderedDict[str, _Planned]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def lookup(self, spec: RunSpec, graph_digest: str) -> Optional[SimulationResult]:
        """The result stored for ``spec``, whatever engine/backend computed
        it, or ``None`` on a miss.

        The returned result is a structural copy of the entry's decoded
        result, so callers can never mutate the cached one.
        """
        result = self._load(cache_key(spec, graph_digest))
        with self._lock:
            if result is None:
                self.stats.misses += 1
            else:
                self.stats.hits += 1
        return result

    def store(
        self, spec: RunSpec, graph_digest: str, result: SimulationResult
    ) -> SimulationResult:
        """Serialize ``result`` once, decode it once and store the decoded
        result under the spec's key (and on disk, serialized).

        Returns a structural copy of the decoded result: context-free and
        equal to what every later hit returns.
        """
        key = cache_key(spec, graph_digest)
        document = {
            "key": key,
            "protocol": spec.protocol,
            "engine": spec.engine,
            "backend": spec.backend,
            "graph_digest": graph_digest,
            "spec": spec.to_json(),
            "result": result.to_json(),
        }
        decoded = SimulationResult.from_json_planned(document["result"])
        with self._lock:
            self._insert_locked(key, decoded)
            self.stats.stores += 1
        if self._directory is not None:
            # Concurrent writers of one key each get their own temp file in
            # the cache directory, so the final rename is atomic and no
            # writer can truncate another's half-written file.
            fd, tmp = tempfile.mkstemp(
                dir=self._directory, prefix=f"{key}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    # Compact separators keep json on its C encoder (an
                    # indent switches it to the pure-Python one).
                    handle.write(
                        json.dumps(document, sort_keys=True, separators=(",", ":")) + "\n"
                    )
                os.replace(tmp, self._directory / f"{key}.json")
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        return _copy(decoded)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _insert_locked(self, key: str, decoded: _Planned) -> None:
        """Make ``decoded`` the most recent entry and evict past the bound."""
        self._entries[key] = decoded
        self._entries.move_to_end(key)
        while len(self._entries) > self._max_entries:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _load(self, key: str) -> Optional[SimulationResult]:
        """The result stored under ``key``, from memory or else from disk."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is not None:
            return _copy(entry)
        if self._directory is None:
            return None
        decoded = self._read_disk(key)
        if decoded is None:
            return None
        with self._lock:
            self.stats.disk_hits += 1
            self._insert_locked(key, decoded)
        return _copy(decoded)

    def _read_disk(self, key: str) -> Optional[_Planned]:
        """The result the disk tier holds under ``key``, decoded, with its
        copy plan, or ``None`` when there is no readable file.

        A file that is not JSON, JSON that is not an object carrying the
        document fields, or a ``result`` that does not decode counts as
        corrupt and is treated as a miss.  Disk documents are decoded before
        they enter the LRU, so a corrupt one never does.
        """
        try:
            document = json.loads((self._directory / f"{key}.json").read_text())
        except OSError:
            return None
        except ValueError:  # not JSON, or not UTF-8
            document = None
        if isinstance(document, dict) and all(
            field in document for field in _DOCUMENT_FIELDS
        ):
            try:
                return SimulationResult.from_json_planned(document["result"])
            except (KeyError, TypeError, ValueError):
                pass
        with self._lock:
            self.stats.corrupt += 1
        return None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier, if any, is untouched)."""
        with self._lock:
            self._entries.clear()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "max_entries": self._max_entries,
            "directory": str(self._directory) if self._directory else None,
            **self.stats.snapshot(),
        }
