"""Metamorphic tests: changes of the input that every variant must see through.

Each test runs a variant twice, on a stream and on a transformed copy of
it, and compares the per-batch labels and records:

- x -> x Q with Q orthogonal (d x d) rotates every subspace, every
  transform and every classifier alike, and x -> 7 x scales rows and
  centroids together; neither moves a label or a distance diagnostic;
- x -> x + b moves rows and centroids together, so nearest-class-mean
  labels stay; linear-margin has no bias term, so its labels move, which
  is not tested here;
- replacing each PCA basis with another basis of the same subspace changes
  no record: every geodesic, mean and transform depends on the subspaces
  alone, including the decompositions that the mean and the transform
  carry, whose U1 and P1 U1 are written in the bases they were built from.

Labels are compared with ``==`` and diagnostics to 1e-12.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

import driftalign.pipeline as pipeline
from driftalign import (
    DriftParams,
    PipelineConfig,
    StreamBatch,
    generate_drift_stream,
    init_pipeline,
    orthonormalize,
    process_batch,
)
from driftalign.classifiers import KINDS, NEAREST_CLASS_MEAN
from driftalign.pipeline import VARIANTS

DIST_TOL = 1e-12
D = 30
STREAM = generate_drift_stream(
    DriftParams(
        seed=3, feature_dim=D, n_classes=2, n_batches=8, batch_size=20,
        drift_kind="noisy-rotation", drift_rate=0.01, noise=0.1, signal_dim=5,
    )
)
CONFIGS = [
    PipelineConfig(
        subspace_dim=5, variant=variant, classifier_kind=kind,
        adaptive_classifier=adaptive,
    )
    for variant, kind, adaptive in itertools.product(
        sorted(VARIANTS), KINDS, (False, True)
    )
]


def config_id(cfg):
    return f"{cfg.variant}-{cfg.classifier_kind}-" + (
        "adaptive" if cfg.adaptive_classifier else "frozen"
    )


def run(cfg, transform=lambda x: x):
    """Labels and record of each batch of ``transform`` applied to STREAM."""
    state = init_pipeline(transform(STREAM.source_x), STREAM.source_y, cfg)
    out = []
    for batch in STREAM.batches:
        moved = StreamBatch(transform(batch.features), batch.labels)
        y_hat, _, state = process_batch(state, moved, cfg)
        assert y_hat is not None
        out.append((y_hat, state.record))
    return out


@lru_cache(maxsize=None)
def plain_run(cfg):
    return run(cfg)


def assert_same_run(got, expected):
    assert len(got) == len(expected)
    for (y_got, r_got), (y_expected, r_expected) in zip(got, expected):
        assert np.array_equal(y_got, y_expected), r_got.index
        assert r_got.accuracy == r_expected.accuracy, r_got.index
        assert abs(r_got.dist_source_mean - r_expected.dist_source_mean) <= DIST_TOL
        assert abs(r_got.dist_mean_step - r_expected.dist_mean_step) <= DIST_TOL


@pytest.mark.parametrize("cfg", CONFIGS, ids=config_id)
def test_orthogonal_change_of_coordinates(cfg):
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((D, D)))
    assert_same_run(run(cfg, lambda x: x @ q), plain_run(cfg))


@pytest.mark.parametrize("cfg", CONFIGS, ids=config_id)
def test_global_scale(cfg):
    assert_same_run(run(cfg, lambda x: 7.0 * x), plain_run(cfg))


@pytest.mark.parametrize(
    "cfg",
    [cfg for cfg in CONFIGS if cfg.classifier_kind == NEAREST_CLASS_MEAN],
    ids=config_id,
)
def test_translation_keeps_nearest_class_mean_labels(cfg):
    b = 5.0 * np.random.default_rng(1).standard_normal(D)
    assert_same_run(run(cfg, lambda x: x + b), plain_run(cfg))


@pytest.mark.parametrize("cfg", CONFIGS, ids=config_id)
def test_basis_of_each_subspace_is_immaterial(cfg, monkeypatch):
    pca = pipeline.pca_subspace
    rotations = np.random.default_rng(2)

    def rotated_pca(x, k, reference=None):
        r, _ = np.linalg.qr(rotations.standard_normal((k, k)))
        return orthonormalize(pca(x, k, reference).basis @ r)

    monkeypatch.setattr(pipeline, "pca_subspace", rotated_pca)
    assert_same_run(run(cfg), plain_run(cfg))
