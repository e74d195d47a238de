"""Mechanisms behind measured accuracy findings, pinned so a change shows.

Each test states a cause established on a fixed stream, with margins wide
enough for seeds 0-4, and a case where the mechanism is absent, so the
test can fail.
"""

import numpy as np
import pytest

from driftalign import (
    DriftParams,
    PipelineConfig,
    generate_drift_stream,
    init_pipeline,
    process_batch,
)


def paper_stream():
    """The benchmark's paper-shape stream (seed 0): class_sep 12, 1.5 rad."""
    return generate_drift_stream(
        DriftParams(
            seed=0, feature_dim=30, n_classes=2, n_batches=150, batch_size=20,
            drift_kind="noisy-rotation", drift_rate=0.01, noise=0.1,
            signal_dim=5, n_source=400,
        )
    )


def criterion_7_stream(n_batches):
    """Criterion 7's noisy-rotation stream (seed 0), cut to n_batches."""
    return generate_drift_stream(
        DriftParams(
            seed=0, feature_dim=30, n_classes=2, n_batches=n_batches,
            batch_size=20, drift_kind="noisy-rotation", drift_rate=0.01,
            noise=0.1, class_sep=30.0, n_source=400,
        )
    )


def gap_cosines(stream, cfg):
    """Average accuracy, and per batch the cosine of the stored centroid gap
    c1 - c0 with the clean frame's class axis (its first column)."""
    state = init_pipeline(stream.source_x, stream.source_y, cfg)
    accuracies, cosines = [], []
    for batch, truth in zip(stream.batches, stream.truth.clean):
        _, accuracy, state = process_batch(state, batch, cfg)
        accuracies.append(accuracy)
        gap = state.classifier.centroids[1] - state.classifier.centroids[0]
        cosines.append(gap @ truth.basis[:, 0] / np.linalg.norm(gap))
    return float(np.mean(accuracies)), np.array(cosines)


def test_pseudo_label_update_turns_the_centroid_gap_away():
    # At class_sep 12 the pseudo-label update itself collapses the
    # classifier, with or without alignment: the centroid gap starts along
    # the class axis (cos +0.71, +0.72 over the first 10 batches on seed 0)
    # and ends orthogonal to it (-0.05, -0.06 over the last 50), and the
    # accuracy falls to chance (0.504, 0.505). Frozen source keeps its gap
    # on the axis (+0.80) and scores 0.744.
    stream = paper_stream()
    frozen_accuracy, frozen_cos = gap_cosines(
        stream, PipelineConfig(subspace_dim=5, variant="source")
    )
    assert frozen_accuracy >= 0.70
    assert frozen_cos[-50:].mean() >= 0.7
    for variant in ("source", "icms-fb-pred"):
        cfg = PipelineConfig(subspace_dim=5, variant=variant, adaptive_classifier=True)
        accuracy, cos = gap_cosines(stream, cfg)
        assert accuracy <= 0.55, variant
        assert cos[:10].mean() >= 0.5, variant
        assert abs(cos[-50:].mean()) <= 0.15, variant


def largest_sine_out_of_first_span(stream, cfg):
    """Largest sine of any running mean out of span(P_s, M_1), and the
    numerical ranks of the transforms fed back to the next batch."""
    state = init_pipeline(stream.source_x, stream.source_y, cfg)
    span, worst, ranks = None, 0.0, set()
    for batch in stream.batches:
        _, _, state = process_batch(state, batch, cfg)
        mean = state.mean_state.mean.basis
        if span is None:
            span, _ = np.linalg.qr(np.hstack([state.source_subspace.basis, mean]))
        worst = max(worst, np.linalg.norm(mean - span @ (span.T @ mean), 2))
        ranks.add(int(np.linalg.matrix_rank(state.feedback_transform.g)))
    return worst, ranks


@pytest.mark.parametrize("adaptive", [False, True])
def test_feedback_traps_the_mean_in_the_first_span(adaptive):
    # G = L C L^T has range span(P_s) + span(M), of dimension 2k. So with
    # feedback every pre-aligned batch, its subspace and the geodesic to it
    # stay in span(P_s, M_1) (sine <= 9.2e-16 on seed 0), while plain icms
    # follows the drift out of it (0.47).
    stream = criterion_7_stream(40)
    k = 5
    for variant in ("icms-fb", "icms-fb-pred", "icms-fb-cumul"):
        cfg = PipelineConfig(subspace_dim=k, variant=variant, adaptive_classifier=adaptive)
        worst, ranks = largest_sine_out_of_first_span(stream, cfg)
        assert worst <= 1e-12, variant
        assert ranks == {2 * k}, variant
    cfg = PipelineConfig(subspace_dim=k, variant="icms", adaptive_classifier=adaptive)
    worst, _ = largest_sine_out_of_first_span(stream, cfg)
    assert worst > 0.1
