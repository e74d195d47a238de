"""Experiment drivers: single runs, parameter sweeps, mean-method comparison,
and machine-readable reports.

Reports are self-describing: the echoed configuration is enough to rebuild
the stream and reproduce every record, and the summary accuracy always
equals the arithmetic mean of the per-batch accuracies it ships with.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .errors import DriftAlignError
from .pipeline import (
    BatchRecord,
    PipelineConfig,
    average_accuracy,
    init_pipeline,
    process_batch,
)
from .streams import Stream, stream_from_params


def config_for_variant(base: PipelineConfig, variant: str) -> PipelineConfig:
    """The base config running ``variant`` (``PipelineConfig`` checks the id)."""
    return replace(base, variant=variant)


@dataclass(frozen=True, eq=False)
class ExperimentReport:
    """Everything one run produced, ready for JSON and CSV serialization."""

    variant: str
    seed: int
    config: dict
    records: tuple[BatchRecord, ...]
    summary: dict

    def to_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2)
            handle.write("\n")

    def write_csv(self, path: str | Path) -> None:
        """Flat per-batch table for external plotting."""
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(
                "batch,accuracy,dist_source_mean,dist_mean_step,elapsed_ms\n"
            )
            for r in self.records:
                accuracy = "" if r.accuracy is None else repr(r.accuracy)
                handle.write(
                    f"{r.index},{accuracy},{r.dist_source_mean!r},"
                    f"{r.dist_mean_step!r},{r.elapsed_ms!r}\n"
                )


def _summarize(records: tuple[BatchRecord, ...], total_seconds: float, skipped: int) -> dict:
    accuracies = [r.accuracy for r in records if r.accuracy is not None]
    times = np.array([r.elapsed_ms for r in records]) if records else np.zeros(1)
    return {
        "average_accuracy": average_accuracy(accuracies) if accuracies else None,
        "batches": len(records),
        "skipped_batches": skipped,
        "total_seconds": total_seconds,
        "mean_batch_ms": float(times.mean()),
        "p95_batch_ms": float(np.percentile(times, 95)),
    }


def run_experiment(
    stream: Stream,
    cfg: PipelineConfig,
    output_path: str | Path | None = None,
    csv_path: str | Path | None = None,
) -> ExperimentReport:
    """Run ``cfg.variant`` over a stream and (optionally) write the report.

    On a mid-stream abort the partial report is still flushed to
    ``output_path`` before the error propagates.
    """
    # Both stream loaders echo the class count; a hand-built stream may not.
    n_classes = stream.params.get("n_classes")
    state = init_pipeline(stream.source_x, stream.source_y, cfg, n_classes)
    started = time.perf_counter()
    records, skipped = [], 0
    try:
        for batch in stream.batches:
            y_hat, _, state = process_batch(state, batch, cfg)
            if y_hat is None:
                skipped += 1
            else:
                records.append(state.record)
    finally:
        total = time.perf_counter() - started
        report = ExperimentReport(
            variant=cfg.variant,
            seed=cfg.seed,
            config=dict(asdict(cfg), stream=dict(stream.params)),
            records=tuple(records),
            summary=_summarize(tuple(records), total, skipped),
        )
        if output_path is not None:
            report.write_json(output_path)
        if csv_path is not None:
            report.write_csv(csv_path)
    return report


def rerun_from_report(report_config: dict) -> ExperimentReport:
    """Reproduce a run from the config echoed in its report."""
    config = dict(report_config)
    # Reports written before the confidence gate was removed echo it as null.
    if "confidence_threshold" in config and config["confidence_threshold"] is None:
        del config["confidence_threshold"]
    # Older reports also echo the stage flags that their variant id decides.
    for key in ("use_feedback", "use_prediction", "use_cumulative", "mean_method"):
        config.pop(key, None)
    stream = stream_from_params(config.pop("stream"))
    return run_experiment(stream, PipelineConfig(**config))


@dataclass(frozen=True, eq=False)
class SweepCell:
    subspace_dim: int
    batch_size: int
    seed: int
    average_accuracy: float | None
    error: str | None = None


def sweep(
    stream_params: dict,
    base_cfg: PipelineConfig,
    k_values: list[int],
    batch_sizes: list[int],
) -> list[SweepCell]:
    """Grid of runs of ``base_cfg.variant`` over subspace dimension and batch size.

    Each cell is independently seeded from the base seed and rebuilds the
    stream at its own batch size. A stream that cannot be built (a bad
    file or parameter) raises; a cell whose run fails is marked with its
    error and the sweep continues.
    """
    cells = []
    for i, k in enumerate(k_values):
        for j, batch_size in enumerate(batch_sizes):
            cell_seed = base_cfg.seed + 1000 * i + j
            params = dict(stream_params)
            if params.get("kind") == "synthetic":
                params["seed"] = cell_seed
            stream = stream_from_params(params, batch_size=batch_size)
            try:
                cfg = replace(
                    base_cfg, subspace_dim=k, batch_size=batch_size, seed=cell_seed
                )
                accuracy = run_experiment(stream, cfg).summary["average_accuracy"]
                error = None
            except (DriftAlignError, ValueError, ArithmeticError) as err:
                accuracy, error = None, f"{type(err).__name__}: {err}"
            cells.append(SweepCell(k, batch_size, cell_seed, accuracy, error))
    return cells


@dataclass(frozen=True, eq=False)
class MeanComparisonRow:
    method: str
    average_accuracy: float | None
    total_seconds: float


def compare_means(stream: Stream, cfg: PipelineConfig) -> list[MeanComparisonRow]:
    """Run the three mean-computation methods over the same stream.

    Rows are the matrix-averaging baseline, the iterative Karcher method
    (cold-started each batch, bounded by the config's per-batch iteration
    cap), and the incremental mean-subspace update.
    """
    rows = []
    for variant, method_name in (
        ("avg", "incremental-averaging"),
        ("karcher", "karcher"),
        ("icms", "icms"),
    ):
        report = run_experiment(stream, replace(cfg, variant=variant))
        rows.append(
            MeanComparisonRow(
                method=method_name,
                average_accuracy=report.summary["average_accuracy"],
                total_seconds=report.summary["total_seconds"],
            )
        )
    return rows
