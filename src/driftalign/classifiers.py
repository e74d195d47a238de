"""Source-trained classifiers and their streaming pseudo-label updates."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, EmptyClassError

NEAREST_CLASS_MEAN = "nearest-class-mean"
LINEAR_MARGIN = "linear-margin"
KINDS = (NEAREST_CLASS_MEAN, LINEAR_MARGIN)

_PA_EPOCHS = 5
_PA_AGGRESSIVENESS = 1.0


@dataclass(frozen=True, eq=False)
class Classifier:
    """Per-class centroids plus, for the linear-margin kind, one-vs-rest weights.

    Decisions are invariant to one global positive scale applied jointly to
    the stored centroids and the query batch. Adaptive updates move the
    centroids only; linear-margin weights stay as trained on the source.
    """

    kind: str
    centroids: np.ndarray  # (c, d)
    weights: np.ndarray | None = None  # (c, d), linear-margin only

    @property
    def n_classes(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]


def _validate_labels(y: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if not np.issubdtype(y.dtype, np.integer):
        raise ValueError("labels must be integers")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"labels must lie in [0, {n_classes})")
    return y


def _fit_passive_aggressive(x: np.ndarray, y: np.ndarray, c: int) -> np.ndarray:
    """One-vs-rest PA-I weights, fixed epoch count, deterministic order."""
    n, d = x.shape
    w = np.zeros((c, d))
    sq_norms = np.einsum("ij,ij->i", x, x)
    for _ in range(_PA_EPOCHS):
        for i in range(n):
            if sq_norms[i] == 0.0:
                continue
            targets = np.where(np.arange(c) == y[i], 1.0, -1.0)
            margins = targets * (w @ x[i])
            losses = np.maximum(0.0, 1.0 - margins)
            taus = np.minimum(_PA_AGGRESSIVENESS, losses / sq_norms[i])
            w += np.outer(taus * targets, x[i])
    return w


def train_source_classifier(
    x_s: np.ndarray,
    y_s: np.ndarray,
    kind: str = NEAREST_CLASS_MEAN,
    n_classes: int | None = None,
) -> Classifier:
    """Fit the source classifier; every class needs at least one sample.

    Raises:
        EmptyClassError: if some class in [0, n_classes) has no samples.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown classifier kind {kind!r}; expected one of {KINDS}")
    x_s = np.asarray(x_s, dtype=float)
    y_s = np.asarray(y_s)
    c = int(n_classes if n_classes is not None else y_s.max() + 1)
    y_s = _validate_labels(y_s, c)

    centroids = np.zeros((c, x_s.shape[1]))
    for j in range(c):
        rows = x_s[y_s == j]
        if rows.shape[0] == 0:
            raise EmptyClassError(f"class {j} has no training samples")
        centroids[j] = rows.mean(axis=0)

    weights = _fit_passive_aggressive(x_s, y_s, c) if kind == LINEAR_MARGIN else None
    return Classifier(kind=kind, centroids=centroids, weights=weights)


def classify(classifier: Classifier, x: np.ndarray) -> np.ndarray:
    """Predict class indices for each row of x.

    Nearest-class-mean takes the argmin of Euclidean distances, ties broken
    toward the lowest class index; linear-margin takes the argmax score.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != classifier.dim:
        raise DimensionMismatch(
            f"queries of shape {x.shape} do not match classifier dim {classifier.dim}"
        )
    if classifier.kind == LINEAR_MARGIN:
        scores = x @ classifier.weights.T
        return np.argmax(scores, axis=1)
    diffs = x[:, None, :] - classifier.centroids[None, :, :]
    sq_dists = np.einsum("nij,nij->ni", diffs, diffs)
    return np.argmin(sq_dists, axis=1)


def update_classifier(
    classifier: Classifier, x: np.ndarray, y_hat: np.ndarray, rate: float
) -> Classifier:
    """Blend each predicted class's centroid toward its batch mean.

    For every class j present in ``y_hat`` with batch mean m_j:
    centroid_j <- (1 - rate) * centroid_j + rate * m_j. Classes absent from
    the batch are untouched, and rate = 0 returns the classifier unchanged.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"update rate must be in [0, 1], got {rate}")
    if rate == 0.0:
        return classifier
    x = np.asarray(x, dtype=float)
    y_hat = _validate_labels(y_hat, classifier.n_classes)
    centroids = classifier.centroids.copy()
    for j in np.unique(y_hat):
        rows = x[y_hat == j]
        centroids[j] = (1.0 - rate) * centroids[j] + rate * rows.mean(axis=0)
    return replace(classifier, centroids=centroids)
