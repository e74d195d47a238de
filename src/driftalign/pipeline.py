"""The end-to-end streaming adaptation loop.

Each arriving mini-batch is (optionally) pre-aligned with the transform fed
back from the previous step, reduced to a subspace, absorbed into the
running mean, aligned to the source through the flow-integral transform,
classified, and (optionally) used to adapt the classifier with its own
pseudo-labels. One pipeline instance owns its state exclusively; all state
values are immutable, so distinct streams can run in parallel freely.
"""

from __future__ import annotations

import logging
import time
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
from .grassmann import Subspace, geodesic_distance, orthonormalize
from .means import (
    MeanState,
    icms_update,
    incremental_average_transform,
    init_mean,
    karcher_mean,
)
from .prediction import compensate, predict_next
from .transforms import TransformMatrix, apply_transform, cumulative_transform, gfk_transform

logger = logging.getLogger(__name__)

MEAN_ICMS = "icms"
MEAN_TRANSFORM_AVERAGE = "transform-average"
MEAN_KARCHER = "karcher"
MEAN_NONE = "none"
MEAN_METHODS = (MEAN_ICMS, MEAN_TRANSFORM_AVERAGE, MEAN_KARCHER, MEAN_NONE)


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

    ``use_prediction`` and ``use_cumulative`` are mutually exclusive (one
    compensates a noisy subspace, the other assumes a smoothly evolving
    one). ``use_prediction`` blends each observed subspace a ``blend``
    fraction of the way toward the running mean's one-step extrapolation
    before the mean absorbs it, which trades per-batch noise for mean lag
    under sustained drift; whether the paper applies the prediction in the
    feedback stage instead is left open by its abstract. ``mean_method``
    selects the running-mean machinery; the baseline methods
    ("transform-average", "karcher", "none") ignore the feedback /
    prediction / cumulative stages.
    """

    subspace_dim: int
    batch_size: int = 2
    use_feedback: bool = False
    use_prediction: bool = False
    use_cumulative: bool = False
    adaptive_classifier: bool = False
    blend: float = 0.5
    classifier_kind: str = NEAREST_CLASS_MEAN
    update_rate: float = 0.1
    seed: int = 0
    mean_method: str = MEAN_ICMS
    confidence_threshold: float | None = None
    karcher_tol: float = 3e-2
    karcher_max_iter: int = 15

    def __post_init__(self):
        if self.subspace_dim < 1:
            raise ConfigError("subspace_dim must be positive")
        if self.use_prediction and self.use_cumulative:
            raise ConfigError(
                "use_prediction and use_cumulative are mutually exclusive"
            )
        if not 0.0 <= self.blend <= 1.0:
            raise ConfigError("blend must be in [0, 1]")
        if not 0.0 <= self.update_rate <= 1.0:
            raise ConfigError("update_rate must be in [0, 1]")
        if self.classifier_kind not in KINDS:
            raise ConfigError(f"unknown classifier kind {self.classifier_kind!r}")
        if self.mean_method not in MEAN_METHODS:
            raise ConfigError(f"unknown mean method {self.mean_method!r}")
        if self.mean_method != MEAN_ICMS and (
            self.use_feedback or self.use_prediction or self.use_cumulative
        ):
            raise ConfigError(
                "feedback / prediction / cumulative stages apply only to the "
                "icms mean method"
            )


@dataclass(frozen=True, eq=False)
class BatchRecord:
    """One history row: accuracy plus the convergence diagnostics."""

    index: int
    accuracy: float | None
    dist_source_mean: float
    dist_mean_step: float
    elapsed_ms: float


@dataclass(frozen=True, eq=False)
class PipelineState:
    """Everything carried from one mini-batch to the next."""

    source_subspace: Subspace
    mean_state: MeanState | None
    feedback_transform: TransformMatrix
    classifier: Classifier
    batch_index: int
    history: tuple[BatchRecord, ...]
    avg_transform: TransformMatrix | None = None
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
    directions and the check come from the SVD of Xc instead. That second
    route runs only on nearly rank-deficient input.

    Raises:
        RankDeficient: if the centered scatter has numerical rank < k
            (including the case of too few rows, k > N - 1).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D sample matrix, got shape {x.shape}")
    n, d = x.shape
    if k > n - 1:
        raise RankDeficient(
            f"{n} rows give a centered scatter of rank at most {n - 1} < k={k}"
        )
    centered = x - x.mean(axis=0)
    if n < d:
        evals, vecs = np.linalg.eigh(centered @ centered.T)
    else:
        evals, vecs = np.linalg.eigh(centered.T @ centered)
    top = evals[: -k - 1 : -1]  # the k largest, descending
    if top[0] > 0.0 and top[-1] > _GRAM_RESOLVED * top[0]:
        vecs = vecs[:, : -k - 1 : -1]
        basis = (centered.T @ vecs) / np.sqrt(top) if n < d else vecs
        return orthonormalize(basis)
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    if s[0] == 0.0 or s[k - 1] <= 1e-10 * s[0]:
        raise RankDeficient(f"centered data has numerical rank < k={k}")
    return orthonormalize(vt[:k].T)


def average_accuracy(per_batch: list[float] | tuple[float, ...] | np.ndarray) -> float:
    """Arithmetic mean of the per-mini-batch accuracies."""
    values = np.asarray(per_batch, dtype=float)
    if values.size == 0:
        raise ValueError("average_accuracy needs at least one per-batch value")
    return float(np.mean(values))


def recursive_feedback(batch: StreamBatch, transform: TransformMatrix) -> StreamBatch:
    """Pre-align the next batch's features with the fed-back transform."""
    return StreamBatch(
        features=apply_transform(batch.features, transform), labels=batch.labels
    )


def init_pipeline(
    x_s: np.ndarray, y_s: np.ndarray, cfg: PipelineConfig
) -> PipelineState:
    """Embed the source once, train the classifier, start with an identity feedback."""
    x_s = np.asarray(x_s, dtype=float)
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
        history=(),
    )


def _confident_rows(
    classifier: Classifier, x: np.ndarray, threshold: float
) -> np.ndarray:
    """Mask of rows whose two best centroid distances are separated enough."""
    diffs = x[:, None, :] - classifier.centroids[None, :, :]
    dists = np.sqrt(np.einsum("nij,nij->ni", diffs, diffs))
    ordered = np.sort(dists, axis=1)
    margin = (ordered[:, 1] - ordered[:, 0]) / (ordered[:, 1] + 1e-12)
    return margin >= threshold


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


def _baseline_mean_state(
    previous: MeanState | None, mean: Subspace, n: int
) -> MeanState:
    """Mean state of a baseline whose mean does not come from icms_update."""
    prev = previous.mean if previous is not None else None
    step = geodesic_distance(prev, mean) if prev is not None else 0.0
    return MeanState(mean=mean, prev_mean=prev, count=n, step=step)


def _batch_accuracy(y_hat: np.ndarray, labels: np.ndarray | None) -> float | None:
    if labels is None:
        return None
    return float(np.mean(y_hat == labels))


def process_batch(
    state: PipelineState, batch: StreamBatch, cfg: PipelineConfig
) -> tuple[np.ndarray | None, float | None, PipelineState]:
    """Run one mini-batch through the loop and return the advanced state.

    A degenerate batch aborts just this batch: a cut-locus failure anywhere
    in the geometry, or numerically rank-deficient rows (a constant batch,
    say). The batch index and the reason are logged, and (None, None,
    unchanged state) is returned so that one degenerate batch cannot kill a
    long stream. Other errors propagate, among them the shape errors that
    every batch of the same shape would repeat.

    Raises:
        DimensionMismatch: if the batch's feature dimension is not the
            source's.
        RankDeficient: if the batch has at most k rows, too few to span a
            k-dimensional subspace after centering.
    """
    if batch.features.shape[1] != state.source_subspace.ambient_dim:
        raise DimensionMismatch(
            f"batch dim {batch.features.shape[1]} does not match source dim "
            f"{state.source_subspace.ambient_dim}"
        )
    if cfg.mean_method != MEAN_NONE and batch.size <= cfg.subspace_dim:
        raise RankDeficient(
            f"{batch.size} rows give a centered scatter of rank at most "
            f"{batch.size - 1} < k={cfg.subspace_dim}"
        )
    started = time.perf_counter()
    n = state.batch_index + 1
    try:
        if cfg.mean_method == MEAN_NONE:
            y_hat = classify(state.classifier, batch.features)
            return _finalize(
                state, batch, cfg, y_hat, state.mean_state,
                state.feedback_transform, None, (), 0.0, 0.0, started,
            )

        aligned = (
            apply_transform(batch.features, state.feedback_transform)
            if cfg.use_feedback
            else batch.features
        )
        observed = pca_subspace(aligned, cfg.subspace_dim)

        if cfg.mean_method == MEAN_ICMS:
            if cfg.use_prediction and state.mean_state is not None \
                    and state.mean_state.prev_mean is not None:
                predicted = predict_next(
                    state.mean_state.prev_mean, state.mean_state.mean
                )
                compensated = compensate(predicted, observed, cfg.blend)
            else:
                compensated = observed
            mean_state = (
                init_mean(compensated)
                if state.mean_state is None
                else icms_update(state.mean_state, compensated)
            )
            seen = ()
            avg_transform = None
            if cfg.use_cumulative and mean_state.prev_mean is not None:
                transform = cumulative_transform(
                    state.source_subspace, mean_state.prev_mean, mean_state.mean
                )
            else:
                transform = gfk_transform(state.source_subspace, mean_state.mean)
            # Both closed forms carry the (source, mean) angles they used.
            dist_source = float(np.linalg.norm(transform.theta))
        elif cfg.mean_method == MEAN_KARCHER:
            seen = state.seen_subspaces + (observed,)
            result = karcher_mean(
                seen, tol=cfg.karcher_tol, max_iter=cfg.karcher_max_iter
            )
            mean_state = _baseline_mean_state(state.mean_state, result.subspace, n)
            avg_transform = None
            transform = gfk_transform(state.source_subspace, mean_state.mean)
            dist_source = geodesic_distance(state.source_subspace, mean_state.mean)
        else:  # transform-average: the mean lives on the matrices, not the manifold
            seen = ()
            mean_state = _baseline_mean_state(state.mean_state, observed, n)
            batch_transform = gfk_transform(state.source_subspace, observed)
            avg_transform = incremental_average_transform(
                state.avg_transform, batch_transform, n
            )
            transform = avg_transform
            dist_source = geodesic_distance(state.source_subspace, mean_state.mean)

        x_aligned = apply_transform(aligned, transform)
        maps = (
            (state.feedback_transform, transform) if cfg.use_feedback else (transform,)
        )
        view = _aligned_view(state.classifier, maps)
        y_hat = classify(view, x_aligned)
        return _finalize(
            state, batch, cfg, y_hat, mean_state, transform,
            avg_transform, seen, dist_source, mean_state.step, started,
            view=view, x_aligned=x_aligned,
        )
    except CutLocusError as err:
        logger.warning("batch %d skipped at the cut locus: %s", n, err)
        return None, None, state
    except RankDeficient as err:
        logger.warning("batch %d skipped as rank deficient: %s", n, err)
        return None, None, state


def _finalize(
    state: PipelineState,
    batch: StreamBatch,
    cfg: PipelineConfig,
    y_hat: np.ndarray,
    mean_state: MeanState | None,
    feedback: TransformMatrix,
    avg_transform: TransformMatrix | None,
    seen: tuple[Subspace, ...],
    dist_source: float,
    dist_step: float,
    started: float,
    view: Classifier | None = None,
    x_aligned: np.ndarray | None = None,
) -> tuple[np.ndarray, float | None, PipelineState]:
    classifier = state.classifier
    if cfg.adaptive_classifier and cfg.update_rate > 0.0:
        # Pseudo-labels come from the aligned space; the raw-anchored
        # centroids are blended with raw batch rows so the stored model and
        # its per-batch aligned view stay in consistent coordinates.
        if cfg.confidence_threshold is not None and view is not None:
            mask = _confident_rows(view, x_aligned, cfg.confidence_threshold)
        else:
            mask = np.ones(batch.size, dtype=bool)
        if mask.any():
            classifier = update_classifier(
                classifier, batch.features[mask], y_hat[mask], cfg.update_rate
            )
    accuracy = _batch_accuracy(y_hat, batch.labels)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    record = BatchRecord(
        index=state.batch_index + 1,
        accuracy=accuracy,
        dist_source_mean=dist_source,
        dist_mean_step=dist_step,
        elapsed_ms=elapsed_ms,
    )
    new_state = replace(
        state,
        mean_state=mean_state,
        feedback_transform=feedback,
        classifier=classifier,
        batch_index=state.batch_index + 1,
        history=state.history + (record,),
        avg_transform=avg_transform,
        seen_subspaces=seen,
    )
    return y_hat, accuracy, new_state
