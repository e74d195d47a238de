"""Streaming-loop benchmark of driftalign.

One caller in one process with one BLAS thread drives the public loop:
a ``streams`` entry point ingests the stream, ``pipeline.init_pipeline``
embeds the source, then ``pipeline.process_batch`` runs once per batch. The
loop is closed: each batch's state depends on the previous one, so the next
batch goes in only after the previous call returns, and the sustainable rate
is the throughput.

A run repeats passes (set-up, then the whole stream) for about ``--seconds``
and checks every batch's outputs. ``--trace 0`` reports the end-to-end
metrics of untraced passes. ``--trace 1`` alternates untraced and traced
passes and reports per-layer metrics from the traced ones, plus the tracing
overhead against the untraced ones.

    python3 perfbench/run.py --workload wide-icms --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 10

The last line of a single-workload run is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's context (versions, BLAS threads, tail percentile). The exit
code is nonzero when any batch failed, and 2 when the package is missing.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: with two threads on a two-core
# host the tail measured the scheduler, not the program.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import glob
import json
import logging
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import Counter
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK_DIR = ROOT / ".bench_work"

if not (SRC / "driftalign" / "__init__.py").is_file():
    print(f"driftalign sources not found under {SRC}; run from a checkout", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SRC))

import numpy as np

from driftalign import grassmann, pipeline
from driftalign.transforms import apply_transform

from spans import BATCH_SPAN, LAYER_SPANS, Tracer, traced
from workloads import WORKLOADS, Source, Workload

# name -> (unit, better). BENCHMARK.json lists the same names and units.
END_TO_END = {
    "batch_ms_p50": ("ms", "lower"),
    "batch_ms_tail": ("ms", "lower"),
    "rows_per_s": ("rows/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "avg_accuracy": ("fraction", "higher"),
    "ok_batch_frac": ("fraction", "higher"),
}

INGEST_SPANS = ("streams.load_csv_stream", "streams.generate_drift_stream")
INIT_SPAN = "pipeline.init_pipeline"
COUNTERS = ("transforms.pairing_warnings", "prediction.angle_clamps", "pipeline.skipped")


def _per_layer_units() -> dict[str, tuple[str, str]]:
    units = {}
    for name in LAYER_SPANS.values():
        units[f"{name}.calls"] = ("calls/batch", "lower")
        units[f"{name}.self_ms"] = ("ms/batch", "lower")
    units[f"{BATCH_SPAN}.self_ms"] = ("ms/batch", "lower")
    units[f"{BATCH_SPAN}.ms"] = ("ms/batch", "lower")
    units["linalg.svd.calls"] = ("calls/batch", "lower")
    units["linalg.svd.ms"] = ("ms/batch", "lower")
    for name in INGEST_SPANS + (INIT_SPAN,):
        units[f"{name}.s"] = ("s", "lower")
    for name in COUNTERS:
        units[name] = ("count/pass", "lower")
    units["trace.overhead_pct"] = ("%", "lower")
    return units


PER_LAYER = _per_layer_units()

# Which end-to-end metric each layer metric should move, and where.
LAYER_EFFECTS = {
    "pipeline.pca_subspace": "batch_ms_p50, rows_per_s on wide-icms and wide-fb-cumul",
    "grassmann.geodesic_distance": "batch_ms_p50 on wide-icms",
    "transforms.gfk_transform": "batch_ms_p50 on wide-icms (once per pass on wide-fb-cumul)",
    "transforms.cumulative_transform": "batch_ms_p50 on wide-fb-cumul",
    "transforms.apply_transform": "batch_ms_p50 on wide-fb-cumul",
    "pipeline.process_batch": "batch_ms_p50 on wide-fb-cumul (G_fb @ G)",
    "means.icms_update": "batch_ms_p50 on wide-icms and wide-fb-cumul",
    "prediction.predict_next": "batch_ms_p50 on paper-fb-pred",
    "prediction.compensate": "batch_ms_p50 on paper-fb-pred",
    "classifiers.classify": "batch_ms_p50 on paper-fb-pred and wide-fb-cumul",
    "classifiers.update_classifier": "batch_ms_p50 on paper-fb-pred and wide-fb-cumul",
    "linalg.svd": "batch_ms_p50 on wide-icms and wide-fb-cumul",
    "streams.load_csv_stream": "setup_s and peak_rss_mb on paper-fb-pred",
    "streams.generate_drift_stream": "setup_s on wide-icms and wide-fb-cumul",
    "pipeline.init_pipeline": "setup_s on every workload",
    "transforms.pairing_warnings": "ok_batch_frac (a warning, not a failure)",
    "prediction.angle_clamps": "ok_batch_frac on paper-fb-pred",
    "pipeline.skipped": "ok_batch_frac",
    "trace.overhead_pct": "none: traced against untraced batch_ms_p50",
}


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    libs = glob.glob(str(Path(np.__file__).parents[1] / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


class _EventCounter(logging.Handler):
    def __init__(self):
        super().__init__()
        self.counts: Counter = Counter()

    def emit(self, record: logging.LogRecord) -> None:
        self.counts[record.name] += 1


@contextmanager
def captured_events():
    """Count driftalign log records (by logger) and warnings (by category).

    The handler sits on the package's parent logger, so records stop there
    instead of reaching stderr; the library's own logging is untouched.
    """
    counter = _EventCounter()
    log = logging.getLogger("driftalign")
    log.addHandler(counter)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = (
                lambda message, category, *rest, **kw: counter.counts.update([category.__name__])
            )
            yield counter.counts
    finally:
        log.removeHandler(counter)


@dataclass
class Pass:
    traced: bool
    setup_s: float
    batch_s: list[float] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    ok: list[bool] = field(default_factory=list)
    skipped: int = 0


def _outputs_ok(batch, y_hat, fed_back, state, cfg, n_classes: int) -> bool:
    """One label per row within the class range, and finite aligned features."""
    y_hat = np.asarray(y_hat)
    if y_hat.shape != (batch.size,) or not np.issubdtype(y_hat.dtype, np.integer):
        return False
    if y_hat.min() < 0 or y_hat.max() >= n_classes:
        return False
    x = apply_transform(batch.features, fed_back) if cfg.use_feedback else batch.features
    return bool(np.isfinite(apply_transform(x, state.feedback_transform)).all())


def _mean_orthonormal(state) -> bool:
    basis = state.mean_state.mean.basis
    gram = basis.T @ basis
    return bool(np.abs(gram - np.eye(gram.shape[0])).max() <= grassmann.ORTHONORMALITY_TOL)


def run_pass(source: Source, cfg, n_classes: int, tracer: Tracer | None = None,
             limit: int | None = None) -> Pass:
    """Set up once, then stream the batches through ``process_batch``."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    started = time.perf_counter()
    with span(source.ingest_name):
        stream = source.ingest()
    with span(INIT_SPAN):
        state = pipeline.init_pipeline(stream.source_x, stream.source_y, cfg)
    result = Pass(traced=tracer is not None, setup_s=time.perf_counter() - started)
    for batch in stream.batches[:limit]:
        fed_back = state.feedback_transform
        started = time.perf_counter()
        try:
            with span(BATCH_SPAN):
                y_hat, accuracy, new_state = pipeline.process_batch(state, batch, cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            result.batch_s.append(time.perf_counter() - started)
            result.ok.append(False)
            continue
        result.batch_s.append(time.perf_counter() - started)
        if y_hat is None:
            result.skipped += 1
            result.ok.append(False)
        else:
            result.ok.append(_outputs_ok(batch, y_hat, fed_back, new_state, cfg, n_classes))
            result.accuracy.append(accuracy)
        state = new_state
    if result.ok and state.mean_state is not None and not _mean_orthonormal(state):
        result.ok[-1] = False
    return result


def tail(times: list[float], window: int) -> tuple[float, float, int]:
    """Median over consecutive windows of the 11th-largest time in each.

    Returns (seconds, percentile, samples used). In a window of W batches
    that order statistic is the highest percentile with ten batches beyond
    it; a run shorter than one window uses all its batches.
    """
    window = min(window, len(times))
    if window < 11:
        return max(times), 100.0, len(times)
    chunks = [times[i:i + window] for i in range(0, len(times) - window + 1, window)]
    values = [sorted(chunk)[window - 11] for chunk in chunks]
    return statistics.median(values), 100.0 * (1 - 10 / window), window * len(chunks)


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            n_batches: int | None = None, work_dir: Path = WORK_DIR) -> tuple[dict, dict]:
    """Run passes for about ``seconds``; return (context, result)."""
    cfg = workload.config(seed)
    n_classes = workload.drift["n_classes"]
    work_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_dir) as tmp, captured_events() as events:
        source = Source(workload, seed, n_batches or workload.n_batches, Path(tmp))
        # Warm-up: lazy imports and first-call allocations stay out of the figures.
        run_pass(source, cfg, n_classes, limit=10)
        events.clear()
        tracer = Tracer()
        passes: list[Pass] = []
        started = time.perf_counter()
        while True:
            traced_pass = trace and len(passes) % 2 == 1
            with traced(tracer) if traced_pass else nullcontext():
                passes.append(run_pass(source, cfg, n_classes, tracer if traced_pass else None))
            elapsed = time.perf_counter() - started
            if len(passes) >= 1 + trace and elapsed * (1 + 1 / len(passes)) > seconds:
                break
        counts = dict(events)

    plain = [p for p in passes if not p.traced]
    times = [t for p in plain for t in p.batch_s]
    attempted = sum(len(p.ok) for p in passes)
    failed = sum(not ok for p in passes for ok in p.ok)
    tail_s, percentile, tail_samples = tail(times, workload.tail_window)
    context = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "batches_per_pass": len(passes[0].batch_s),
        "tail_percentile": percentile,
        "tail_samples": tail_samples,
        "failed_batch_frac": failed / attempted,
        "passes_agree": all(p.accuracy == passes[0].accuracy for p in passes),
        "events": counts,
        "env": environment(),
    }
    if trace:
        metrics = per_layer(tracer, passes, counts)
    else:
        rows = workload.batch_size * len(times)
        metrics = {
            "batch_ms_p50": 1000.0 * statistics.median(times),
            "batch_ms_tail": 1000.0 * tail_s,
            # The loop's wall time is that of its process_batch calls; the
            # benchmark's own output checks between calls are left out.
            "rows_per_s": rows / sum(times),
            "setup_s": statistics.median(p.setup_s for p in passes),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "avg_accuracy": statistics.fmean(passes[0].accuracy),
            "ok_batch_frac": 1.0 - failed / attempted,
        }
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k][0]} for k, v in metrics.items()},
    }
    return context, result


def per_layer(tracer: Tracer, passes: list[Pass], counts: dict) -> dict:
    """Per-batch layer costs from the traced passes, set-up spans per pass."""
    n = sum(len(p.batch_s) for p in passes if p.traced)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    setup: dict[str, list[float]] = {name: [] for name in INGEST_SPANS + (INIT_SPAN,)}
    for span in tracer.spans:
        if span.batch is None:
            if span.name in setup:
                setup[span.name].append(span.duration)
            continue
        calls[span.name] += 1
        self_s[span.name] += span.self_s
        if span.name == BATCH_SPAN:
            self_s["batch_total"] += span.duration
    metrics = {}
    for name in LAYER_SPANS.values():
        metrics[f"{name}.calls"] = calls[name] / n
        metrics[f"{name}.self_ms"] = 1000.0 * self_s[name] / n
    metrics[f"{BATCH_SPAN}.self_ms"] = 1000.0 * self_s[BATCH_SPAN] / n
    metrics[f"{BATCH_SPAN}.ms"] = 1000.0 * self_s["batch_total"] / n
    in_batches = [b for b in tracer.svd_calls if b is not None]
    metrics["linalg.svd.calls"] = sum(tracer.svd_calls[b] for b in in_batches) / n
    metrics["linalg.svd.ms"] = 1000.0 * sum(tracer.svd_s[b] for b in in_batches) / n
    for name, values in setup.items():
        metrics[f"{name}.s"] = statistics.median(values) if values else 0.0
    metrics["transforms.pairing_warnings"] = counts.get("driftalign.transforms", 0) / len(passes)
    metrics["prediction.angle_clamps"] = counts.get("AngleClampWarning", 0) / len(passes)
    metrics["pipeline.skipped"] = sum(p.skipped for p in passes) / len(passes)
    traced_p50 = statistics.median(t for p in passes if p.traced for t in p.batch_s)
    plain_p50 = statistics.median(t for p in passes if not p.traced for t in p.batch_s)
    metrics["trace.overhead_pct"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
    return metrics


def run_all(seed: int, seconds: float) -> int:
    """Each workload in its own process, untraced then traced; print a report."""
    status = 0
    traced_results = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                print(f"{name} --trace {trace}: exit {proc.returncode}")
                status = 1
                continue
            context, result = json.loads(lines[-2]), json.loads(lines[-1])
            if trace:
                traced_results[name] = result
                continue
            env = context["env"]
            print(f"\n{name}: seed {seed}, {context['passes']} passes of "
                  f"{context['batches_per_pass']} batches, {result['attempted']} attempted, "
                  f"{result['failed']} failed; numpy {env['numpy']}, {env['blas']} "
                  f"{env['blas_version']}, {env['blas_threads']} BLAS thread(s), nproc {env['nproc']}")
            for metric, entry in result["metrics"].items():
                note = ""
                if metric == "batch_ms_tail":
                    note = (f"  p{context['tail_percentile']:g} per window, "
                            f"{context['tail_samples']} samples")
                print(f"  {metric:<16} {entry['value']:>12.4f} {entry['unit']:<9}"
                      f" ({END_TO_END[metric][1]} is better){note}")
            print(f"  {'failed_batch_frac':<16} {context['failed_batch_frac']:>12.4f} fraction")
    print("\nper-layer metrics (traced passes); layer -> end-to-end metric it should move")
    for metric in PER_LAYER:
        layer = metric if metric in LAYER_EFFECTS else metric.rsplit(".", 1)[0]
        values = "  ".join(
            f"{name}={res['metrics'][metric]['value']:.4g}" for name, res in traced_results.items()
        )
        print(f"  {metric:<40} [{PER_LAYER[metric][0]}] {values}\n"
              f"      -> {LAYER_EFFECTS[layer]}")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    context, result = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    print(json.dumps(context))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
