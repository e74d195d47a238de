import numpy as np
import pytest

from driftalign import (
    DimensionMismatch,
    EmptyClassError,
    classify,
    train_source_classifier,
    update_classifier,
)


def two_blob_data(rng, n=60, d=6, sep=1.0, noise=0.0):
    y = rng.integers(0, 2, size=n)
    centers = np.zeros((2, d))
    centers[0, 0] = -sep
    centers[1, 0] = sep
    x = centers[y] + noise * rng.standard_normal((n, d))
    return x, y


class TestTrain:
    def test_separable_data_is_fit_perfectly(self, rng):
        x, y = two_blob_data(rng, noise=0.0)
        clf = train_source_classifier(x, y)
        assert np.array_equal(classify(clf, x), y)

    def test_single_sample_per_class(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]])
        y = np.array([0, 1])
        clf = train_source_classifier(x, y)
        assert np.array_equal(clf.centroids, x)

    def test_centroids_match_per_class_means(self, rng):
        x, y = two_blob_data(rng, noise=0.5)
        clf = train_source_classifier(x, y)
        for j in (0, 1):
            assert np.abs(clf.centroids[j] - x[y == j].mean(axis=0)).max() < 1e-12

    def test_empty_class_rejected(self, rng):
        x = rng.standard_normal((5, 3))
        y = np.zeros(5, dtype=int)
        with pytest.raises(EmptyClassError):
            train_source_classifier(x, y, n_classes=2)

    def test_linear_margin_fits_separable(self, rng):
        x, y = two_blob_data(rng, noise=0.2)
        clf = train_source_classifier(x, y, kind="linear-margin")
        assert clf.weights is not None
        assert np.mean(classify(clf, x) == y) == 1.0

    def test_linear_margin_deterministic(self, rng):
        x, y = two_blob_data(rng, noise=0.3)
        w1 = train_source_classifier(x, y, kind="linear-margin").weights
        w2 = train_source_classifier(x, y, kind="linear-margin").weights
        assert np.array_equal(w1, w2)

    def test_unknown_kind_rejected(self, rng):
        x, y = two_blob_data(rng)
        with pytest.raises(ValueError):
            train_source_classifier(x, y, kind="decision-forest")


class TestClassify:
    def test_centroid_query_maps_to_its_class(self, rng):
        x, y = two_blob_data(rng, noise=0.3)
        clf = train_source_classifier(x, y)
        assert np.array_equal(classify(clf, clf.centroids), np.arange(2))

    def test_tie_breaks_to_lowest_index(self):
        clf = train_source_classifier(
            np.array([[-1.0, 0.0], [1.0, 0.0]]), np.array([0, 1])
        )
        assert classify(clf, np.array([[0.0, 5.0]]))[0] == 0

    def test_agrees_with_brute_force(self, rng):
        x, y = two_blob_data(rng, n=40, noise=1.0)
        clf = train_source_classifier(x, y)
        queries = rng.standard_normal((25, 6))
        got = classify(clf, queries)
        for i, q in enumerate(queries):
            dists = [np.sum((q - c) ** 2) for c in clf.centroids]
            assert got[i] == int(np.argmin(dists))

    def test_dimension_mismatch(self, rng):
        x, y = two_blob_data(rng)
        clf = train_source_classifier(x, y)
        with pytest.raises(DimensionMismatch):
            classify(clf, rng.standard_normal((3, 9)))

    def test_joint_scaling_invariance(self, rng):
        from dataclasses import replace

        x, y = two_blob_data(rng, n=50, noise=1.2)
        clf = train_source_classifier(x, y)
        queries = rng.standard_normal((30, 6))
        scaled = replace(clf, centroids=clf.centroids * 7.25)
        assert np.array_equal(classify(clf, queries), classify(scaled, queries * 7.25))


class TestUpdate:
    def test_zero_rate_is_identity(self, rng):
        x, y = two_blob_data(rng, noise=0.4)
        clf = train_source_classifier(x, y)
        updated = update_classifier(clf, x, y, 0.0)
        assert updated is clf

    def test_full_rate_jumps_to_batch_mean(self, rng):
        x, y = two_blob_data(rng, noise=0.4)
        clf = train_source_classifier(x, y)
        batch = rng.standard_normal((8, 6)) + 3.0
        labels = np.ones(8, dtype=int)
        updated = update_classifier(clf, batch, labels, 1.0)
        assert np.abs(updated.centroids[1] - batch.mean(axis=0)).max() < 1e-12
        assert np.array_equal(updated.centroids[0], clf.centroids[0])

    def test_unseen_classes_unchanged(self, rng):
        x, y = two_blob_data(rng, noise=0.4)
        clf = train_source_classifier(x, y)
        batch = rng.standard_normal((5, 6))
        updated = update_classifier(clf, batch, np.zeros(5, dtype=int), 0.2)
        assert np.array_equal(updated.centroids[1], clf.centroids[1])

    def test_geometric_convergence_to_shifted_mean(self, rng):
        x, y = two_blob_data(rng, noise=0.2)
        clf = train_source_classifier(x, y)
        shifted = clf.centroids[1] + 4.0
        distances = []
        for _ in range(50):
            batch = shifted + 0.05 * rng.standard_normal((20, 6))
            clf = update_classifier(clf, batch, np.ones(20, dtype=int), 0.1)
            distances.append(np.linalg.norm(clf.centroids[1] - shifted))
        assert all(b <= a + 1e-9 for a, b in zip(distances, distances[1:]))
        assert distances[-1] < 0.1 * distances[0]

    def test_bad_rate_rejected(self, rng):
        x, y = two_blob_data(rng)
        clf = train_source_classifier(x, y)
        with pytest.raises(ValueError):
            update_classifier(clf, x, y, 1.5)
