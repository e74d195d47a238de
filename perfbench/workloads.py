"""The benchmark's workloads: a seed in, a stream and a pipeline config out.

Every workload fixes the total drift of one pass over its stream, so the
number of batches per pass (and any smaller size a test asks for) does not
move the operating point: the per-batch drift rate is total / batches.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from driftalign import streams
from driftalign.experiments import config_for_variant
from driftalign.pipeline import PipelineConfig


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    variant: str
    adaptive: bool
    subspace_dim: int
    batch_size: int
    n_batches: int
    total_drift: float
    # Ingest through a CSV file (load_csv_stream) instead of the generator.
    via_csv: bool
    # Batches per tail window. The tail is the 11th-largest time of a window,
    # the highest order statistic with ten samples beyond it, so the window
    # sets the percentile (200 -> p95, 50 -> p80). Larger windows put the tail
    # among host preemptions: on a shared 2-core host, p99 of 1000-batch
    # windows at paper scale and p90 of 100-batch windows at d=512 spread
    # 16 % and 13 % (IQR over median) between runs, against 5 % and 6 % here.
    tail_window: int
    # DriftParams fields shared by the workload's streams.
    drift: dict

    def drift_params(self, seed: int, n_batches: int) -> streams.DriftParams:
        return streams.DriftParams(
            seed=seed,
            n_batches=n_batches,
            batch_size=self.batch_size,
            drift_rate=self.total_drift / n_batches,
            **self.drift,
        )

    def config(self, seed: int) -> PipelineConfig:
        base = PipelineConfig(
            subspace_dim=self.subspace_dim,
            batch_size=self.batch_size,
            adaptive_classifier=self.adaptive,
            seed=seed,
        )
        return config_for_variant(base, self.variant)


PAPER = dict(
    feature_dim=30, n_classes=2, drift_kind="noisy-rotation", noise=0.1,
    signal_dim=5, n_source=400,
)
WIDE = dict(
    feature_dim=512, n_classes=2, drift_kind="rotation", signal_dim=100,
    class_sep=30.0, signal_spread=tuple(np.linspace(3.0, 2.0, 100)),
    n_source=600, target_offset=0.3,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-fb-pred",
            why="paper shape d=30 k=5 via CSV, icms-fb-pred, adaptive NCM: "
                "per-call overhead, prediction and CSV ingestion",
            variant="icms-fb-pred", adaptive=True, subspace_dim=5,
            batch_size=20, n_batches=150, total_drift=1.5, via_csv=True,
            tail_window=200, drift=PAPER,
        ),
        Workload(
            name="wide-icms",
            why="criterion-8 shape d=512 k=100, plain icms, frozen classifier: "
                "the SVD/BLAS-bound core path",
            variant="icms", adaptive=False, subspace_dim=100,
            batch_size=120, n_batches=100, total_drift=0.5, via_csv=False,
            tail_window=50, drift=WIDE,
        ),
        Workload(
            name="wide-fb-cumul",
            why="wide-icms stream with icms-fb-cumul, adaptive NCM: cumulative "
                "transform, d x d feedback product, two applies",
            variant="icms-fb-cumul", adaptive=True, subspace_dim=100,
            batch_size=120, n_batches=100, total_drift=0.5, via_csv=False,
            tail_window=50, drift=WIDE,
        ),
    )
}


class Source:
    """A workload's input for one seed, ready to be ingested again and again.

    Writing the CSV file happens here, once and untimed; ``ingest`` is the
    timed part of set-up.
    """

    def __init__(self, workload: Workload, seed: int, n_batches: int, work_dir: Path):
        self.workload = workload
        self.params = workload.drift_params(seed, n_batches)
        self.path = None
        if workload.via_csv:
            self.path = work_dir / f"{workload.name}-{seed}.csv"
            streams.write_csv_stream(streams.generate_drift_stream(self.params), self.path)
            total = self.params.n_source + n_batches * workload.batch_size
            self.spec = streams.DatasetSpec(
                path=self.path,
                feature_dim=self.params.feature_dim,
                n_classes=self.params.n_classes,
                source_fraction=self.params.n_source / total,
                total_rows=total,
            )

    @property
    def ingest_name(self) -> str:
        return "streams.load_csv_stream" if self.path else "streams.generate_drift_stream"

    def ingest(self) -> streams.Stream:
        if self.path:
            return streams.load_csv_stream(self.path, self.spec, self.workload.batch_size)
        return streams.generate_drift_stream(self.params)
