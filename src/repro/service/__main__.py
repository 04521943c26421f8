"""``python -m repro.service`` -- run simulation requests from the shell.

Three subcommands, JSON in / JSON out:

``run``
    Execute one :class:`~repro.service.spec.RunSpec` read from a file (or
    stdin with ``-``) and print the result document.

``batch``
    Execute a JSON *list* of specs concurrently and print one document per
    spec plus the service stats.

``stats``
    Print the registries a spec can reference (protocols, engines,
    backends, generators) and, with ``--cache-dir``, a snapshot of that
    persistent cache.

Examples
--------
::

    $ echo '{"protocol": "bellman-ford-sssp",
             "graph": {"generator": "path", "params": {"n": 8}},
             "params": {"source": 0}}' | python -m repro.service run -
    $ python -m repro.service batch jobs.json --cache-dir /tmp/repro-cache
    $ python -m repro.service stats
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

from repro.service.cache import ResultCache
from repro.service.jobs import SimulationService
from repro.service.protocols import available_protocols, get_protocol
from repro.service.spec import RunSpec, available_generators

__all__ = ["main"]


def _read_json(path: str) -> Any:
    text = sys.stdin.read() if path == "-" else open(path, "r", encoding="utf-8").read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path}: not valid JSON: {exc}") from exc


def _load_specs(payload: Any, batch: bool) -> List[RunSpec]:
    documents = payload if batch else [payload]
    if not isinstance(documents, list):
        raise SystemExit("error: batch input must be a JSON list of run specs")
    specs = []
    for i, document in enumerate(documents):
        try:
            specs.append(RunSpec.from_json(document))
        except ValueError as exc:
            raise SystemExit(f"error: spec #{i}: {exc}") from exc
    return specs


def _build_service(args: argparse.Namespace) -> SimulationService:
    cache: Optional[ResultCache] = None
    if args.cache_dir is not None:
        cache = ResultCache(directory=args.cache_dir)
    return SimulationService(
        max_workers=args.workers,
        cache=cache,
        allow_cross_engine=args.allow_cross_engine,
    )


def _emit(document: Any, pretty: bool) -> None:
    try:
        if pretty:
            json.dump(document, sys.stdout, indent=2, sort_keys=True)
        else:
            json.dump(document, sys.stdout, sort_keys=True, separators=(",", ":"))
        sys.stdout.write("\n")
    except BrokenPipeError:
        # The reader (e.g. `head`) went away; that is their business.
        sys.stderr.close()


def _run_documents(service: SimulationService, specs: List[RunSpec]) -> List[Dict[str, Any]]:
    handles = []
    for i, spec in enumerate(specs):
        try:
            handles.append(service.submit(spec))
        except ValueError as exc:
            raise SystemExit(f"error: spec #{i}: {exc}") from exc
    documents = []
    for handle in handles:
        try:
            result = handle.result()
            documents.append(
                {
                    "status": handle.poll().to_json(),
                    "spec": handle.spec.to_json(),
                    "result": result.to_json(),
                }
            )
        except Exception as exc:  # noqa: BLE001 - reported in the output document
            documents.append(
                {
                    "status": handle.poll().to_json(),
                    "spec": handle.spec.to_json(),
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    return documents


def _cmd_run(args: argparse.Namespace) -> int:
    specs = _load_specs(_read_json(args.spec), batch=False)
    with _build_service(args) as service:
        documents = _run_documents(service, specs)
    _emit(documents[0], args.pretty)
    return 0 if "error" not in documents[0] else 1


def _cmd_batch(args: argparse.Namespace) -> int:
    specs = _load_specs(_read_json(args.specs), batch=True)
    with _build_service(args) as service:
        documents = _run_documents(service, specs)
        stats = service.service_stats()
    _emit({"jobs": documents, "stats": stats}, args.pretty)
    return 0 if all("error" not in doc for doc in documents) else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.congest.engine.base import available_engines
    from repro.kernels.backend import available_backends as kernel_backends

    document: Dict[str, Any] = {
        "protocols": {
            name: get_protocol(name).description for name in available_protocols()
        },
        "engines": available_engines(),
        "kernel_backends": kernel_backends(),
        "generators": available_generators(),
    }
    if args.cache_dir is not None:
        document["cache"] = ResultCache(directory=args.cache_dir).snapshot()
    _emit(document, args.pretty)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Run CONGEST simulation requests as batch jobs.",
    )
    parser.add_argument("--pretty", action="store_true", help="indent JSON output")
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_execution_args(sub: argparse.ArgumentParser) -> None:
        sub.add_argument(
            "--workers", type=int, default=2, help="executor thread bound (default 2)"
        )
        sub.add_argument(
            "--cache-dir", default=None, help="directory for the persistent result cache"
        )
        sub.add_argument(
            "--allow-cross-engine",
            action="store_true",
            help="let engine-invariant cached results serve other engines",
        )

    run_parser = subparsers.add_parser("run", help="execute one run spec")
    run_parser.add_argument("spec", help="path to a RunSpec JSON document, or - for stdin")
    add_execution_args(run_parser)
    run_parser.set_defaults(func=_cmd_run)

    batch_parser = subparsers.add_parser("batch", help="execute a list of run specs")
    batch_parser.add_argument("specs", help="path to a JSON list of run specs, or - for stdin")
    add_execution_args(batch_parser)
    batch_parser.set_defaults(func=_cmd_batch)

    stats_parser = subparsers.add_parser("stats", help="print registries and cache stats")
    stats_parser.add_argument(
        "--cache-dir", default=None, help="persistent cache directory to inspect"
    )
    stats_parser.set_defaults(func=_cmd_stats)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
