"""Source-trained classifiers and their streaming pseudo-label updates."""

from __future__ import annotations

from dataclasses import dataclass

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
    Both arrays are read-only: the constructor copies the caller's arrays,
    and the centroids that an update or an aligned view computes are
    frozen in place.
    """

    kind: str
    centroids: np.ndarray  # (c, d)
    weights: np.ndarray | None = None  # (c, d), linear-margin only

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown classifier kind {self.kind!r}; expected one of {KINDS}"
            )
        centroids = np.array(self.centroids, dtype=float)
        if centroids.ndim != 2:
            raise ValueError(f"centroids must be 2-D, got shape {centroids.shape}")
        weights = self.weights
        if weights is not None:
            weights = np.array(weights, dtype=float)
            if weights.shape != centroids.shape:
                raise ValueError(
                    f"weights of shape {weights.shape} do not match centroids "
                    f"of shape {centroids.shape}"
                )
            weights.setflags(write=False)
        centroids.setflags(write=False)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "weights", weights)

    def _with_centroids(self, centroids: np.ndarray) -> "Classifier":
        """This classifier with new centroids built here, of the same shape.

        The kind and the weights are this checked classifier's. The float
        array is frozen in place, not copied, so no caller may hold it.
        """
        if centroids.shape != self.centroids.shape:
            raise DimensionMismatch(
                f"centroids of shape {centroids.shape} replace {self.centroids.shape}"
            )
        centroids.setflags(write=False)
        classifier = object.__new__(type(self))
        object.__setattr__(classifier, "kind", self.kind)
        object.__setattr__(classifier, "centroids", centroids)
        object.__setattr__(classifier, "weights", self.weights)
        return classifier

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
    x_s = np.asarray(x_s, dtype=float)
    y_s = np.asarray(y_s)
    c = int(n_classes if n_classes is not None else y_s.max() + 1)
    # A full-rate update of a zero start, which refuses an unknown kind first.
    start = Classifier(kind=kind, centroids=np.zeros((c, x_s.shape[1])))
    centroids = update_classifier(start, x_s, y_s, 1.0).centroids
    counts = np.bincount(y_s, minlength=c)
    if not counts.all():
        raise EmptyClassError(f"class {np.argmin(counts)} has no training samples")
    weights = _fit_passive_aggressive(x_s, y_s, c) if kind == LINEAR_MARGIN else None
    return Classifier(kind=kind, centroids=centroids, weights=weights)


def _rows(classifier: Classifier, x: np.ndarray) -> np.ndarray:
    """x as float rows of the classifier's width, or DimensionMismatch."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != classifier.dim:
        raise DimensionMismatch(
            f"rows of shape {x.shape} do not match classifier dim {classifier.dim}"
        )
    return x


def classify(classifier: Classifier, x: np.ndarray) -> np.ndarray:
    """Predict class indices for each row of x.

    Nearest-class-mean takes the argmin of Euclidean distances, ties broken
    toward the lowest class index; linear-margin takes the argmax score.
    """
    x = _rows(classifier, x)
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
    the batch are untouched, and rate = 0 returns the classifier unchanged
    once the rows and labels are checked.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"update rate must be in [0, 1], got {rate}")
    x = _rows(classifier, x)
    c = classifier.n_classes
    y_hat = _validate_labels(y_hat, c)
    if rate == 0.0:
        return classifier
    # Per-class row counts and sums, the sums as one (c x n) @ (n x d) product.
    counts = np.bincount(y_hat, minlength=c)
    sums = (y_hat == np.arange(c)[:, None]) @ x
    # An absent class has weight 0: its centroid is kept as 1.0 * centroid + 0.
    weight = np.where(counts > 0, rate, 0.0)[:, None]
    means = sums / np.maximum(counts, 1)[:, None]
    centroids = (1.0 - weight) * classifier.centroids + weight * means
    return classifier._with_centroids(centroids)
