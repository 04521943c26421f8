"""Shared helpers for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures as a
plain-text artifact: it prints the table to stdout (so ``pytest benchmarks/
--benchmark-only -s`` shows everything) and also writes it under the
git-ignored ``benchmarks/out/``, so running the suite never rewrites the
committed snapshots in ``benchmarks/results/`` (refresh those by copying
from ``benchmarks/out/`` by hand).

Next to each human-readable table, benchmarks also drop a machine-readable
``BENCH_<name>.json`` twin (via :func:`record_json`) so the performance
trajectory is diffable across PRs without parsing rendered tables.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from pathlib import Path
from typing import Optional

import pytest

RESULTS_DIR = Path(__file__).parent / "out"


def cpu_count() -> int:
    """CPUs actually available to this process (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _git(*args: str) -> Optional[str]:
    """``git *args``'s stripped stdout, or ``None`` outside a git checkout."""
    try:
        return subprocess.run(
            ["git", *args],
            cwd=Path(__file__).parent,
            capture_output=True,
            text=True,
            check=True,
            timeout=10,
        ).stdout.strip()
    except Exception:  # pragma: no cover - git absent or not a checkout
        return None


def git_commit() -> Optional[str]:
    """The repository HEAD commit hash, or ``None`` outside a git checkout."""
    return _git("rev-parse", "HEAD") or None


def git_dirty() -> Optional[bool]:
    """Whether the checkout differs from HEAD (tracked changes or untracked
    files), so a record regenerated from uncommitted code says so; ``None``
    outside a git checkout."""
    status = _git("status", "--porcelain")
    return None if status is None else bool(status)


@pytest.fixture(scope="session")
def results_dir() -> Path:
    """Directory where benchmark artifacts (regenerated tables) are written."""
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_artifact(results_dir):
    """Return a function that persists a rendered table and echoes it to stdout."""

    def _record(name: str, content: str) -> Path:
        path = results_dir / f"{name}.txt"
        path.write_text(content + "\n")
        print()
        print(content)
        return path

    return _record


@pytest.fixture
def record_json(results_dir):
    """Return a function that persists a machine-readable benchmark artifact.

    ``payload`` should carry the workload identity, the engine configuration
    and the measured numbers; the fixture adds the machine context (CPU count,
    Python version), the git commit and whether the checkout was dirty, and
    the engine/backend environment overrides every reading needs for
    interpretation -- a
    ``REPRO_ENGINE=symbolic`` run is not comparable to a stepping run, and
    the JSON must say so.
    """

    def _record(name: str, payload: dict) -> Path:
        document = {
            "benchmark": name,
            "machine": {
                "cpu_count": cpu_count(),
                "python": platform.python_version(),
            },
            "provenance": {
                "git_commit": git_commit(),
                "git_dirty": git_dirty(),
                "env": {
                    "REPRO_ENGINE": os.environ.get("REPRO_ENGINE"),
                    "REPRO_BACKEND": os.environ.get("REPRO_BACKEND"),
                },
            },
        }
        document.update(payload)
        path = results_dir / f"BENCH_{name}.json"
        path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        return path

    return _record


def run_once(benchmark, func, *args, **kwargs):
    """Run a heavyweight experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)
