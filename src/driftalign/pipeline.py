"""The end-to-end streaming adaptation loop.

Each arriving mini-batch is (optionally) pre-aligned with the transform fed
back from the previous step, reduced to a subspace, absorbed into the
running mean, aligned to the source through the flow-integral transform,
classified, and (optionally) used to adapt the classifier with its own
pseudo-labels; ``process_batch`` runs that sequence, and the config's
variant id picks its step and optional stages from ``VARIANTS``. Feedback
keeps the mean in span(P_s, M_1): G = L C L^T maps rows into span(P_s) +
span(M), so each batch's subspace and the mean's geodesic stay there.
State values are immutable, so distinct streams can run in parallel.
"""

from __future__ import annotations

import logging
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .classifiers import (
    KINDS,
    LINEAR_MARGIN,
    NEAREST_CLASS_MEAN,
    Classifier,
    classify,
    train_source_classifier,
    update_classifier,
)
from .errors import ConfigError, CutLocusError, DimensionMismatch, RankDeficient
from .grassmann import Subspace, geodesic_distance, geodesic_point, orthonormalize
from .means import (
    MeanState,
    icms_update,
    incremental_average_transform,
    init_mean,
    karcher_mean,
)
# predict_next is not called here (the prediction reads the icms flow), but
# the benchmark's tracer wraps it by name as a pipeline attribute.
from .prediction import compensate, predict_next
from .transforms import TransformMatrix, apply_transform, cumulative_transform, gfk_transform

logger = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class StreamBatch:
    """One mini-batch of target rows, with labels kept only for scoring."""

    features: np.ndarray
    labels: np.ndarray | None = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        if not np.isfinite(features).all():
            raise ValueError("features contain non-finite values")
        object.__setattr__(self, "features", features)
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (features.shape[0],):
                raise ValueError("labels must have one entry per feature row")
            object.__setattr__(self, "labels", labels)

    @property
    def size(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class PipelineConfig:
    """Knobs of one streaming run.

    ``variant`` is a key of ``VARIANTS`` and decides which stages run. With
    prediction, each observed subspace is blended a ``blend`` fraction of
    the way toward the running mean's one-step extrapolation before the
    mean absorbs it, which trades per-batch noise for mean lag under
    sustained drift; whether the paper applies the prediction in the
    feedback stage instead is left open by its abstract.
    ``adaptive_classifier`` alone updates the classifier, in every variant
    (``source`` then is the self-training control), with each batch's rows
    and predicted labels. The update moves centroids, which linear-margin
    does not read, so its predictions stay unchanged. No pipeline code reads
    ``batch_size`` or ``seed``: reports echo them, and ``sweep`` seeds its
    cells from them.
    """

    subspace_dim: int
    batch_size: int = 20
    variant: str = "icms"
    adaptive_classifier: bool = False
    blend: float = 0.5
    classifier_kind: str = NEAREST_CLASS_MEAN
    update_rate: float = 0.1
    seed: int = 0
    karcher_tol: float = 3e-2
    karcher_max_iter: int = 15

    def __post_init__(self):
        if self.subspace_dim < 1:
            raise ConfigError("subspace_dim must be positive")
        if self.variant not in VARIANTS:
            raise ConfigError(
                f"unknown variant {self.variant!r}; "
                f"expected one of {sorted(VARIANTS)}"
            )
        if not 0.0 <= self.blend <= 1.0:
            raise ConfigError("blend must be in [0, 1]")
        if not 0.0 <= self.update_rate <= 1.0:
            raise ConfigError("update_rate must be in [0, 1]")
        if self.classifier_kind not in KINDS:
            raise ConfigError(f"unknown classifier kind {self.classifier_kind!r}")

    @property
    def use_feedback(self) -> bool:
        """Whether each batch is pre-aligned with the last transform."""
        return VARIANTS[self.variant].feedback


@dataclass(frozen=True, eq=False)
class BatchRecord:
    """One processed batch: accuracy plus the convergence diagnostics."""

    index: int
    accuracy: float | None
    dist_source_mean: float
    dist_mean_step: float
    elapsed_ms: float


@dataclass(frozen=True, eq=False)
class PipelineState:
    """What the next mini-batch reads, and the last batch's record.

    ``feedback_transform`` is the last transform (identity at first): the
    next batch is pre-aligned with it, the cumulative variants start their
    sweep from it, and "avg" extends it as its running average. "karcher"
    recomputes its mean from all of ``seen_subspaces``. Only the last
    ``record`` is kept, so the state does not grow with the stream;
    ``run_experiment`` collects the records.
    """

    source_subspace: Subspace
    mean_state: MeanState | None
    feedback_transform: TransformMatrix
    classifier: Classifier
    batch_index: int
    record: BatchRecord | None = None
    seen_subspaces: tuple[Subspace, ...] = ()


# Smallest eigenvalue ratio lambda_k / lambda_1 of the Gram matrix that its
# eigendecomposition is trusted with. eigh resolves eigenvalues only to about
# n * eps * lambda_1, far above the rank check's lambda_k <= 1e-20 * lambda_1.
_GRAM_RESOLVED = 1e-6


def pca_subspace(x: np.ndarray, k: int) -> Subspace:
    """Top-k principal directions of the mean-centered rows.

    The directions come from the eigendecomposition of the smaller Gram
    matrix of the centered rows Xc (N x d). With N < d (a mini-batch) that
    is the N x N matrix Xc Xc^T, whose top-k eigenpairs (lambda_i, u_i)
    give the directions Xc^T u_i / sqrt(lambda_i); otherwise it is the
    d x d scatter Xc^T Xc, whose top-k eigenvectors are the directions.

    The rank check tests the singular values of Xc, s_k <= 1e-10 * s_1,
    i.e. lambda_k <= 1e-20 * lambda_1, which eigh cannot resolve. So when
    lambda_k <= 1e-6 * lambda_1 (or lambda_1 is not positive) the
    directions and the check come from the SVD of Xc instead. That route
    also takes rows so large (~1e154) that the Gram matrix overflows.

    Raises:
        RankDeficient: if the centered scatter has numerical rank < k
            (including the case of too few rows, k > N - 1).
        ValueError: if a sample, or the centering of one, is not finite.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {x.shape}")
    n, d = x.shape
    if k > n - 1:
        raise RankDeficient(
            f"{n} rows give a centered scatter of rank at most {n - 1} < k={k}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        centered = x - x.mean(axis=0)
        gram = centered @ centered.T if n < d else centered.T @ centered
    if np.isfinite(gram).all():
        evals, vecs = np.linalg.eigh(gram)
        top = evals[: -k - 1 : -1]  # the k largest, descending
        if top[0] > 0.0 and top[-1] > _GRAM_RESOLVED * top[0]:
            vecs = vecs[:, : -k - 1 : -1]
            basis = (centered.T @ vecs) / np.sqrt(top) if n < d else vecs
            return orthonormalize(basis)
    if not np.isfinite(centered).all():
        # LAPACK's SVD can spin forever on an inf entry.
        raise ValueError("centered samples contain non-finite values")
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] == 0.0 or s[k - 1] <= 1e-10 * s[0]:
        raise RankDeficient(f"centered data has numerical rank < k={k}")
    return orthonormalize(vt[:k].T)


def _annihilated(rows: np.ndarray, mapped: np.ndarray) -> bool:
    """Whether a map left the centered rows below 1e-10 of their own norm.

    Such rows lie outside the map's range, and what is left of them is
    rounding noise that ``pca_subspace`` would take for a subspace. Rows
    whose norm overflows (entries ~1e154 and up) are not judged.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        raw = np.linalg.norm(rows - rows.mean(axis=0))
        kept = np.linalg.norm(mapped - mapped.mean(axis=0))
    return bool(kept < 1e-10 * raw < np.inf)


def average_accuracy(per_batch: list[float] | tuple[float, ...] | np.ndarray) -> float:
    """Arithmetic mean of the per-mini-batch accuracies."""
    values = np.asarray(per_batch, dtype=float)
    if values.size == 0:
        raise ValueError("average_accuracy needs at least one per-batch value")
    return float(np.mean(values))


def init_pipeline(
    x_s: np.ndarray, y_s: np.ndarray, cfg: PipelineConfig
) -> PipelineState:
    """Embed the source once, train the classifier, start with an identity feedback.

    Raises:
        ValueError: from ``StreamBatch``, if ``x_s`` is not a finite 2-D
            matrix or ``y_s`` does not hold one label per row.
    """
    source = StreamBatch(x_s, y_s)
    x_s, y_s = source.features, source.labels
    d = x_s.shape[1]
    if 2 * cfg.subspace_dim > d:
        raise ConfigError(
            f"subspace_dim k={cfg.subspace_dim} must satisfy k <= d/2 for d={d}"
        )
    source_subspace = pca_subspace(x_s, cfg.subspace_dim)
    classifier = train_source_classifier(x_s, y_s, kind=cfg.classifier_kind)
    return PipelineState(
        source_subspace=source_subspace,
        mean_state=None,
        feedback_transform=TransformMatrix.identity(d),
        classifier=classifier,
        batch_index=0,
    )


def _aligned_view(
    classifier: Classifier, maps: tuple[TransformMatrix, ...]
) -> Classifier:
    """The classifier carried through the same maps the batch went through.

    Source and target must be transformed consistently for the alignment
    scale to be immaterial to nearest-class-mean decisions, so the stored
    (raw-space) centroids are passed through the batch's alignment maps, in
    order, at decision time; the d x d product of the maps is never formed.
    Linear-margin weights already live on the raw side of the map (score
    w . (x A) = (A w) . x), so they pass unchanged.
    """
    if classifier.kind == LINEAR_MARGIN:
        return classifier
    centroids = classifier.centroids
    for transform in maps:
        centroids = apply_transform(centroids, transform)
    return replace(classifier, centroids=centroids)


def _baseline_mean_state(state: PipelineState, mean: Subspace) -> MeanState:
    """Mean state of a baseline whose mean does not come from icms_update."""
    prev = state.mean_state.mean if state.mean_state is not None else None
    step = geodesic_distance(prev, mean) if prev is not None else 0.0
    return MeanState(mean=mean, flow=None, count=state.batch_index + 1, step=step)


def _icms_step(
    state: PipelineState, observed: Subspace, cfg: PipelineConfig
) -> tuple[PipelineState, float]:
    """Compensate (optionally), absorb into the running mean, build the transform."""
    stages = VARIANTS[cfg.variant]
    source, previous = state.source_subspace, state.mean_state
    if previous is None:
        mean_state = init_mean(observed)
    else:
        if stages.prediction and previous.flow is not None:
            # The last step's flow passes through the mean at t = 1/count,
            # so one more equal arc ends at t = 2/count. Each step angle is
            # below pi/4 there, where predict_next would clamp.
            predicted = geodesic_point(previous.flow, 2.0 / previous.count)
            observed = compensate(predicted, observed, cfg.blend)
        mean_state = icms_update(previous, observed)
    if stages.cumulative and previous is not None:
        # The last transform was built for (source, previous mean): it
        # starts the sweep, and icms_update keeps the step below pi/4.
        transform = cumulative_transform(source, mean_state.mean, state.feedback_transform)
    else:
        transform = gfk_transform(source, mean_state.mean)
    advanced = replace(state, mean_state=mean_state, feedback_transform=transform)
    # Both closed forms carry the (source, mean) angles they used.
    return advanced, float(np.linalg.norm(transform.theta))


def _karcher_step(
    state: PipelineState, observed: Subspace, cfg: PipelineConfig
) -> tuple[PipelineState, float]:
    """Recompute the Karcher mean of every subspace seen so far."""
    seen = state.seen_subspaces + (observed,)
    result = karcher_mean(seen, tol=cfg.karcher_tol, max_iter=cfg.karcher_max_iter)
    mean_state = _baseline_mean_state(state, result.subspace)
    transform = gfk_transform(state.source_subspace, mean_state.mean)
    advanced = replace(
        state, mean_state=mean_state, feedback_transform=transform, seen_subspaces=seen
    )
    return advanced, float(np.linalg.norm(transform.theta))


def _average_step(
    state: PipelineState, observed: Subspace, cfg: PipelineConfig
) -> tuple[PipelineState, float]:
    """Average the per-batch transforms: the mean lives on the matrices."""
    n = state.batch_index + 1
    g_batch = gfk_transform(state.source_subspace, observed)
    transform = incremental_average_transform(state.feedback_transform, g_batch, n)
    mean_state = _baseline_mean_state(state, observed)
    advanced = replace(state, mean_state=mean_state, feedback_transform=transform)
    # The source-to-observed distance, from the batch transform's angles.
    return advanced, float(np.linalg.norm(g_batch.theta))


@dataclass(frozen=True)
class Stages:
    """What one variant runs.

    ``step(state, observed, cfg)`` advances the mean, builds the transform
    and returns the advanced state with the source-to-mean distance;
    ``None`` classifies the raw rows with no alignment. The three flags
    switch the optional stages, which only the icms step has.
    """

    step: Callable[..., tuple[PipelineState, float]] | None
    feedback: bool = False
    prediction: bool = False
    cumulative: bool = False


# Variant id -> stages. Prediction and the cumulative transform exclude each
# other: one compensates a noisy subspace, the other assumes a smoothly
# evolving one.
VARIANTS = {
    "icms": Stages(_icms_step),
    "icms-fb": Stages(_icms_step, feedback=True),
    "icms-pred": Stages(_icms_step, prediction=True),
    "icms-fb-pred": Stages(_icms_step, feedback=True, prediction=True),
    "icms-cumul": Stages(_icms_step, cumulative=True),
    "icms-fb-cumul": Stages(_icms_step, feedback=True, cumulative=True),
    "avg": Stages(_average_step),
    "karcher": Stages(_karcher_step),
    "source": Stages(None),
}


def process_batch(
    state: PipelineState, batch: StreamBatch, cfg: PipelineConfig
) -> tuple[np.ndarray | None, float | None, PipelineState]:
    """Run one mini-batch through the loop and return the advanced state.

    Pre-align (feedback), take the subspace, advance the mean and build the
    transform (the variant's step), classify, update an adaptive classifier.

    A degenerate batch aborts just this batch: a cut-locus failure anywhere
    in the geometry, numerically rank-deficient rows (a constant batch,
    say), or rows that the fed-back transform maps to rounding noise. The
    batch index and the reason are logged, and (None, None, unchanged
    state) is returned so that one degenerate batch cannot kill a long
    stream. Other errors propagate, among them the shape errors that
    every batch of the same shape would repeat.

    Raises:
        DimensionMismatch: if the batch's feature dimension is not the
            source's.
        RankDeficient: if a variant with a step gets a batch of at most k
            rows, too few to span a k-dimensional subspace after centering.
    """
    if batch.features.shape[1] != state.source_subspace.ambient_dim:
        raise DimensionMismatch(
            f"batch dim {batch.features.shape[1]} does not match source dim "
            f"{state.source_subspace.ambient_dim}"
        )
    stages = VARIANTS[cfg.variant]
    started = time.perf_counter()
    n = state.batch_index + 1
    # x is the batch carried through the transforms in maps, in order.
    x, maps = batch.features, ()
    if stages.step is None:
        advanced, dist_source, dist_step = state, 0.0, 0.0
    else:
        if batch.size <= cfg.subspace_dim:
            raise RankDeficient(
                f"{batch.size} rows give a centered scatter of rank at most "
                f"{batch.size - 1} < k={cfg.subspace_dim}"
            )
        if stages.feedback:
            x = apply_transform(x, state.feedback_transform)
            maps = (state.feedback_transform,)
        try:
            if stages.feedback and _annihilated(batch.features, x):
                raise RankDeficient(
                    "the fed-back transform maps the centered rows to rounding noise"
                )
            observed = pca_subspace(x, cfg.subspace_dim)
            advanced, dist_source = stages.step(state, observed, cfg)
        except CutLocusError as err:
            logger.warning("batch %d skipped at the cut locus: %s", n, err)
            return None, None, state
        except RankDeficient as err:
            logger.warning("batch %d skipped as rank deficient: %s", n, err)
            return None, None, state
        dist_step = advanced.mean_state.step
        x = apply_transform(x, advanced.feedback_transform)
        maps += (advanced.feedback_transform,)
    y_hat = classify(_aligned_view(state.classifier, maps), x)
    classifier = state.classifier
    if cfg.adaptive_classifier:
        # Pseudo-labels come from the aligned space; the raw-anchored
        # centroids are blended with raw batch rows so the stored model and
        # its per-batch aligned view stay in consistent coordinates.
        classifier = update_classifier(classifier, batch.features, y_hat, cfg.update_rate)
    accuracy = None if batch.labels is None else float(np.mean(y_hat == batch.labels))
    record = BatchRecord(
        index=n,
        accuracy=accuracy,
        dist_source_mean=dist_source,
        dist_mean_step=dist_step,
        elapsed_ms=(time.perf_counter() - started) * 1000.0,
    )
    return y_hat, accuracy, replace(
        advanced, classifier=classifier, batch_index=n, record=record
    )
