"""Content-addressed result cache: LRU in memory, optional JSON on disk.

The repository's memoization (CSR snapshots, BFS layerings, analytic round
charges) is keyed on a graph's *mutation counter* and therefore scoped to
one process and one live object.  The service cache keys on *content*
instead: the cache key is the SHA-256 of a canonical JSON document carrying
the graph's :meth:`~repro.graphs.WeightedGraph.content_digest`, the protocol
name and parameters, the bandwidth configuration, the per-run options and
the execution knobs (engine / backend).  Two different
graph objects with identical content, or the same request issued by two
different processes pointing at the same cache directory, hit the same
entry.

Engine invariance is the repository's differential contract: every engine
produces identical outputs and bit-identical round reports.  That makes a
``dense`` result *legally* servable for a ``sparse`` request -- but only for
protocols that declare ``engine_invariant`` and only when the caller opts in
(``allow_cross_engine=True``), because a future protocol could break the
contract deliberately (e.g. a randomized engine-dependent workload).
Cross-engine lookups go through a secondary index keyed on the spec minus
its execution knobs.

Entries store the *serialized* result (:meth:`SimulationResult.to_json`),
never live objects, so cache hits cannot leak mutable state between
requests and the disk format equals the wire format.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro.congest.engine.types import SimulationResult
from repro.service.spec import RunSpec

__all__ = ["CacheStats", "ResultCache", "cache_key", "semantic_key"]

#: Fields of a spec that select *how* a run executes rather than *what* it
#: computes.  Engine-invariant protocols produce identical results across
#: all of them, which is what cross-engine serving exploits.
_EXECUTION_FIELDS = ("engine", "backend")


def _key_material(spec: RunSpec, graph_digest: str, semantic: bool) -> str:
    payload = spec.to_json()
    # The graph is represented by its content digest, not its spec: a
    # generator spec and the inline edge list it expands to are the same
    # cache entry.
    payload["graph"] = {"content_digest": graph_digest}
    if semantic:
        for field in _EXECUTION_FIELDS:
            payload.pop(field, None)
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def cache_key(spec: RunSpec, graph_digest: str) -> str:
    """The exact content-addressed key for ``spec`` on the digested graph."""
    return hashlib.sha256(
        _key_material(spec, graph_digest, semantic=False).encode()
    ).hexdigest()


def semantic_key(spec: RunSpec, graph_digest: str) -> str:
    """The execution-agnostic key (spec minus engine/backend)."""
    return hashlib.sha256(
        _key_material(spec, graph_digest, semantic=True).encode()
    ).hexdigest()


#: Fields every stored cache document carries; a disk entry missing any of
#: them (or not a JSON object at all) is corrupt.
_DOCUMENT_FIELDS = ("key", "semantic_key", "result")


class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache`.

    ``corrupt`` counts disk entries read back as something other than a
    cache document (not JSON, or JSON without the document fields); each
    such read is served as a miss.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.cross_engine_hits = 0
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
        metadata (protocol, engine, graph digest) to audit the cache by hand.
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
        #: exact key -> serialized result document (insertion order = LRU).
        self._entries: "OrderedDict[str, Dict[str, Any]]" = OrderedDict()
        #: semantic key -> exact key of one stored entry (for cross-engine).
        self._semantic_index: Dict[str, str] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------ #
    # Lookup / store
    # ------------------------------------------------------------------ #
    def lookup(
        self,
        spec: RunSpec,
        graph_digest: str,
        allow_cross_engine: bool = False,
        engine_invariant: bool = True,
    ) -> Optional[Tuple[SimulationResult, bool]]:
        """Return ``(result, cross_engine)`` on a hit, ``None`` on a miss.

        ``allow_cross_engine`` additionally consults the semantic index --
        only honoured when the protocol is ``engine_invariant``.  The
        returned result is freshly deserialized on every hit, so callers can
        never mutate the cached copy.
        """
        exact = cache_key(spec, graph_digest)
        document = self._load(exact)
        if document is not None:
            with self._lock:
                self.stats.hits += 1
            return SimulationResult.from_json(document["result"]), False
        if allow_cross_engine and engine_invariant:
            semantic = semantic_key(spec, graph_digest)
            with self._lock:
                donor = self._semantic_index.get(semantic)
            document = self._load(donor) if donor is not None else None
            if document is None and self._directory is not None:
                document = self._load_disk_semantic(semantic)
            if document is not None:
                with self._lock:
                    self.stats.hits += 1
                    self.stats.cross_engine_hits += 1
                return SimulationResult.from_json(document["result"]), True
        with self._lock:
            self.stats.misses += 1
        return None

    def store(
        self, spec: RunSpec, graph_digest: str, result: SimulationResult
    ) -> str:
        """Serialize and store ``result`` under the spec's exact key."""
        exact = cache_key(spec, graph_digest)
        semantic = semantic_key(spec, graph_digest)
        document = {
            "key": exact,
            "semantic_key": semantic,
            "protocol": spec.protocol,
            "engine": spec.engine,
            "backend": spec.backend,
            "graph_digest": graph_digest,
            "spec": spec.to_json(),
            "result": result.to_json(),
        }
        with self._lock:
            self._entries[exact] = document
            self._entries.move_to_end(exact)
            self._semantic_index[semantic] = exact
            self.stats.stores += 1
            while len(self._entries) > self._max_entries:
                evicted_key, evicted = self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self._semantic_index.get(evicted["semantic_key"]) == evicted_key:
                    del self._semantic_index[evicted["semantic_key"]]
        if self._directory is not None:
            # Concurrent writers of one key each get their own temp file in
            # the cache directory, so the final rename is atomic and no
            # writer can truncate another's half-written file.
            fd, tmp = tempfile.mkstemp(
                dir=self._directory, prefix=f"{exact}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(json.dumps(document, sort_keys=True, indent=2) + "\n")
                os.replace(tmp, self._directory / f"{exact}.json")
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
        return exact

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _load(self, key: Optional[str]) -> Optional[Dict[str, Any]]:
        if key is None:
            return None
        with self._lock:
            document = self._entries.get(key)
            if document is not None:
                self._entries.move_to_end(key)
                return document
        if self._directory is None:
            return None
        path = self._directory / f"{key}.json"
        if not path.is_file():
            return None
        document = self._read_disk(path)
        if document is None:
            return None
        with self._lock:
            self.stats.disk_hits += 1
            self._entries[key] = document
            self._entries.move_to_end(key)
            self._semantic_index.setdefault(document["semantic_key"], key)
            while len(self._entries) > self._max_entries:
                evicted_key, evicted = self._entries.popitem(last=False)
                self.stats.evictions += 1
                if self._semantic_index.get(evicted["semantic_key"]) == evicted_key:
                    del self._semantic_index[evicted["semantic_key"]]
        return document

    def _load_disk_semantic(self, semantic: str) -> Optional[Dict[str, Any]]:
        """Scan the disk tier for any entry with the given semantic key.

        Disk entries written by *other processes* are not in this process's
        semantic index; a linear scan keeps cross-process cross-engine hits
        working without a sidecar index file (cache directories are small --
        results are expensive, that is the point of caching them).
        """
        if self._directory is None:
            return None
        for path in sorted(self._directory.glob("*.json")):
            document = self._read_disk(path)
            if document is not None and document["semantic_key"] == semantic:
                with self._lock:
                    self.stats.disk_hits += 1
                    self._semantic_index.setdefault(semantic, document["key"])
                return document
        return None

    def _read_disk(self, path: Path) -> Optional[Dict[str, Any]]:
        """The cache document stored at ``path``, or ``None`` when unreadable.

        A file that is not JSON, or JSON that is not an object carrying the
        document fields, counts as corrupt and is treated as a miss.
        """
        try:
            document = json.loads(path.read_text())
        except OSError:
            return None
        except ValueError:  # not JSON, or not UTF-8
            document = None
        if isinstance(document, dict) and all(
            field in document for field in _DOCUMENT_FIELDS
        ):
            return document
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
            self._semantic_index.clear()

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            entries = len(self._entries)
        return {
            "entries": entries,
            "max_entries": self._max_entries,
            "directory": str(self._directory) if self._directory else None,
            **self.stats.snapshot(),
        }
