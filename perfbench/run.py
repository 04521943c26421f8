"""Benchmark runner: one workload, one seed, one closed-loop client.

Usage, from the repository root::

    python3 perfbench/run.py --workload thm11-symbolic --seed 1 --seconds 10 --trace 0

The runner builds the workload's inputs from ``--seed``, sets them up
several times (the median is ``setup_s``), then runs whole decks of
operations back to back until ``--seconds`` have passed, checking every
output.  The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` -- the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of a reserved deck
run twice under the outside-in tracer (see ``tracer.py``).  A full record (noise
reference, machine, commit, raw per-op times, spans) goes to
``perfbench/out/``.  Workloads are listed in ``workloads.WORKLOADS``.

Host-speed calibration: shared virtual machines drift between speed phases
far apart (a fixed loop reads 13 ms in one and 26 ms in another), which
would swamp any change to the library.  So every op is bracketed by a short
fixed pure-Python calibration loop, and its reported time is the raw time
scaled by the loop's nominal time over the mean of the two readings around
it: seconds at a fixed nominal host speed.  Set-up is scaled the same way by
the median of the readings taken after the imports and after each set-up.
Each workload names the loop that tracks its work best (``CALIBRATIONS``):
arithmetic for interpreter and NumPy work, allocation for the service's
result encoding and decoding, which slows in phases of its own.  The loops
are the benchmark's own code, so no change to the library can move them;
the raw times and calibration readings are kept in the record.
"""

import time

_STARTED = time.perf_counter()

import os  # noqa: E402

# Pin native thread pools to one thread before NumPy can be imported.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Set-up repetitions per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Deck index reserved for the traced decks, never used by the timed loop.
TRACE_CYCLE = 1_000_000


def _loop_ms(iterations: int) -> float:
    started = time.perf_counter()
    total = 0
    for i in range(iterations):
        total += i * i % 7
    return (time.perf_counter() - started) * 1000.0


def _allocation_ms() -> float:
    started = time.perf_counter()
    table = {i: [float(i), str(i)] for i in range(8000)}
    del table
    return (time.perf_counter() - started) * 1000.0


#: Calibration loops by name, each with its time in ms at nominal host speed.
CALIBRATIONS = {
    "compute": (lambda: _loop_ms(40_000), 4.0),
    "allocation": (_allocation_ms, 3.0),
}


class Calibration:
    """Reads the host speed with one of :data:`CALIBRATIONS`."""

    def __init__(self, name: str) -> None:
        self.loop, self.nominal_ms = CALIBRATIONS[name]

    def read(self) -> float:
        """Median of three runs of the loop, in ms: the host speed right now.

        The collector is off meanwhile, so the reading does not depend on how
        many objects the library keeps alive.
        """
        gc.disable()
        try:
            return statistics.median(self.loop() for _ in range(3))
        finally:
            gc.enable()


def reference_loop_ms(repeats: int = 5) -> float:
    """Median time of a fixed 200k-iteration loop: a diagnostic, never reported."""
    return statistics.median(_loop_ms(200_000) for _ in range(repeats))


class Record(NamedTuple):
    label: str
    seconds: float
    failed: bool
    correct: bool
    kind: str
    #: Mean calibration reading around the op, in ms.
    cal_ms: float
    #: ``seconds`` at nominal host speed.
    scaled_s: float


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": model or platform.processor(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "system": platform.platform(),
    }


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


def run_deck(ops, calibration, records, between_ops=None) -> float:
    """Run one deck, appending a :class:`Record` per op; returns scaled seconds.

    Each calibration reading is taken right before an op, after the garbage
    of the previous one is collected, and serves the ops on both sides.
    """
    total = 0.0
    pending = None
    for op in ops + [None]:
        if between_ops is not None:
            between_ops()
        gc.collect()
        cal_ms = calibration.read()
        if pending is not None:
            label, elapsed, failed, correct, kind, cal_before = pending
            mean_ms = (cal_before + cal_ms) / 2.0
            scaled_s = elapsed * calibration.nominal_ms / mean_ms
            records.append(Record(label, elapsed, failed, correct, kind, mean_ms, scaled_s))
            total += scaled_s
        if op is None:
            break
        started = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # noqa: BLE001 - a raising op is a counted failure
            elapsed = time.perf_counter() - started
            traceback.print_exc()
            failed, correct, kind = True, False, "error"
        else:
            elapsed = time.perf_counter() - started
            try:
                failed, correct, kind = op.check(result)
            except Exception:  # noqa: BLE001 - a check that cannot run is a failure
                traceback.print_exc()
                failed, correct, kind = True, False, "error"
        pending = (op.label, elapsed, failed, correct, kind, cal_ms)
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    imports_s = time.perf_counter() - _STARTED
    workload = workloads.WORKLOADS[args.workload](args.seed)
    calibration = Calibration(workload.calibration)
    cal_imports = calibration.read()

    tracer = tracing.Tracer(workload.requested_engine)
    traced = bool(args.trace)
    setup_reps, setup_cals, graph_build_reps = [], [cal_imports], []
    with workload.context():
        for _ in range(SETUP_REPEATS):
            if traced:
                tracer.install()
            started = time.perf_counter()
            workload.setup(tracer.span if traced else tracing.no_span)
            setup_reps.append(time.perf_counter() - started)
            if traced:
                tracer.uninstall()
                graph_build_reps.append(tracer.layer_self_seconds().get("graphs", 0.0))
                tracer.reset()
            setup_cals.append(calibration.read())
        # One calibration for the whole set-up phase: its readings are
        # seconds apart, and a single stalled reading must not skew one
        # repetition.
        setup_factor = calibration.nominal_ms / statistics.median(setup_cals)
        workload.prepare_checks()

        reference_before = reference_loop_ms()
        records = []
        loop_started = time.perf_counter()
        cycle = 0
        while True:
            run_deck(workload.deck(cycle), calibration, records)
            cycle += 1
            if time.perf_counter() - loop_started >= args.seconds:
                break
        loop_seconds = time.perf_counter() - loop_started

        untraced_records, traced_records = [], []
        untraced_s = traced_s = 0.0
        if traced:
            # The same deck runs untraced, traced, traced, untraced, so the
            # overhead compares the same work and a steady drift in host
            # speed cancels out.
            for with_tracer in (False, True, True, False):
                deck = workload.deck(TRACE_CYCLE)
                if not with_tracer:
                    untraced_s += run_deck(deck, calibration, untraced_records)
                    continue
                tracer.install()
                try:
                    traced_s += run_deck(deck, calibration, traced_records, tracer.after_op)
                finally:
                    tracer.uninstall()
        reference_after = reference_loop_ms()
    workload.close()

    all_records = records + untraced_records + traced_records
    attempted = len(all_records)
    failed = sum(1 for record in all_records if record.failed)

    if traced:
        graph_build_s = statistics.median(graph_build_reps) * setup_factor
        metrics = per_layer_metrics(
            tracer, calibration, records, traced_records, traced_s, untraced_s, graph_build_s
        )
    else:
        times = [record.scaled_s for record in records]
        setup_s = (imports_s + statistics.median(setup_reps)) * setup_factor
        metrics = {
            "ops_per_s": (len(times) / sum(times), "1/s"),
            "op_s_p50": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "correct_share": (sum(1 for r in records if r.correct) / len(records), "share"),
        }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "commit": commit(),
        "reference_loop_ms": {"before": reference_before, "after": reference_after},
        "calibration": {"loop": workload.calibration, "nominal_ms": calibration.nominal_ms},
        "imports_s": imports_s,
        "setup_repeats_s": setup_reps,
        "setup_cal_ms": setup_cals,
        "loop_seconds": loop_seconds,
        "decks": cycle,
        "op_fields": list(Record._fields),
        "ops": [list(r) for r in records],
        "untraced_ops": [list(r) for r in untraced_records],
        "traced_ops": [list(r) for r in traced_records],
        "result": result,
        "spans": tracer.dump() if traced else [],
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n")
    print(
        f"perfbench: {args.workload} seed={args.seed} decks={cycle} ops={len(records)} "
        f"loop={loop_seconds:.2f}s reference_loop_ms={reference_before:.1f}/{reference_after:.1f} "
        f"record={out_path.relative_to(ROOT)}",
        file=sys.stderr,
    )
    print(json.dumps(result))
    return 0


def per_layer_metrics(
    tracer, calibration, records, traced_records, traced_s, untraced_s, graph_build_s
):
    """Per-layer metrics of the traced deck, plus the untraced latency split.

    Span times are scaled to nominal host speed by the traced deck's own
    calibration readings.
    """
    from tracer import LAYERS

    ops = len(traced_records)
    factor = calibration.nominal_ms / statistics.median(r.cal_ms for r in traced_records)
    self_seconds = tracer.layer_self_seconds()
    calls = tracer.layer_calls()
    counts = tracer.counts
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (self_seconds.get(layer, 0.0) * factor / ops, "s/op")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0), "count")
    traced_raw = sum(r.seconds for r in traced_records)
    metrics["unattributed_share"] = (
        max(0.0, traced_raw - tracer.root_seconds()) / traced_raw,
        "share",
    )
    metrics["trace.overhead_share"] = (traced_s / untraced_s - 1.0, "share")
    metrics["nanongkai.sample_s"] = (
        tracer.inclusive_seconds("sample_skeleton_sets") * factor / ops,
        "s/op",
    )
    metrics["quantum.extremum_s"] = (
        tracer.inclusive_seconds("quantum_maximum", "quantum_minimum") * factor / ops,
        "s/op",
    )
    for name, span_name in (("lookup", "ResultCache.lookup"), ("store", "ResultCache.store")):
        span_calls = sum(1 for span in tracer.spans if span.name == span_name)
        metrics[f"service.{name}_s"] = (
            tracer.inclusive_seconds(span_name) * factor / span_calls if span_calls else 0.0,
            "s/call",
        )
    metrics["graphs.build_s"] = (graph_build_s, "s")
    for name in (
        "congest.runs",
        "congest.rounds",
        "congest.sparse.runs",
        "congest.dense.runs",
        "congest.symbolic.runs",
        "congest.fallback_runs",
        "quantum.oracle_queries",
        "quantum.threshold_updates",
        "core.charged_rounds",
        "service.hits",
        "service.misses",
        "service.stored_bytes",
    ):
        metrics[name] = (counts.get(name, 0), "count")
    lookups = counts.get("service.hits", 0) + counts.get("service.misses", 0)
    metrics["service.lookups"] = (lookups, "count")
    hit_ratio = counts.get("service.hits", 0) / lookups if lookups else 0.0
    metrics["service.hit_ratio"] = (hit_ratio, "share")
    hits = [r.scaled_s for r in records if r.kind == "hit"]
    misses = [r.scaled_s for r in records if r.kind == "miss"]
    metrics["service.hit_s_p50"] = (statistics.median(hits) if hits else 0.0, "s")
    metrics["service.hit_s_p90"] = (percentile(hits, 90), "s")
    metrics["service.miss_s_p50"] = (statistics.median(misses) if misses else 0.0, "s")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
