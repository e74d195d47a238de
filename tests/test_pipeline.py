import numpy as np
import pytest

from driftalign import (
    ConfigError,
    DimensionMismatch,
    DriftParams,
    PipelineConfig,
    RankDeficient,
    Stream,
    StreamBatch,
    TransformMatrix,
    apply_transform,
    average_accuracy,
    classify,
    compensate,
    cumulative_transform,
    generate_drift_stream,
    geodesic_distance,
    gfk_transform,
    icms_update,
    init_mean,
    init_pipeline,
    orthonormalize,
    pca_subspace,
    predict_next,
    process_batch,
    recursive_feedback,
    run_experiment,
)
from driftalign.experiments import config_for_variant
from driftalign.pipeline import VARIANTS, _aligned_view, _icms_step

from conftest import error_in_child

# (n, d, k): mini-batch shapes (n < d, the n x n Gram matrix) and source
# shapes (n >= d, the d x d scatter) at the criterion-8 and paper scales.
PCA_SHAPES = [(120, 512, 100), (20, 30, 5), (600, 512, 100), (400, 30, 5)]


def gaussian_source(rng, n=120, d=10, k_classes=2, sep=4.0):
    y = rng.integers(0, k_classes, size=n)
    centers = np.zeros((k_classes, d))
    for j in range(k_classes):
        centers[j, j] = sep
    x = centers[y] + rng.standard_normal((n, d))
    return x, y


def svd_pca_oracle(x, k):
    centered = x - x.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    return orthonormalize(vt[:k].T)


def rows_with_singular_ratio(rng, n, d, k, ratio):
    """Rows whose centered matrix has singular values 1 (k - 1 times) and ratio.

    The left factor is orthogonal to the all-ones vector, so centering
    leaves it intact; a random per-column offset is added on top.
    """
    a = rng.standard_normal((n, k))
    left, _ = np.linalg.qr(a - a.mean(axis=0))
    right, _ = np.linalg.qr(rng.standard_normal((d, k)))
    s = np.ones(k)
    s[-1] = ratio
    return (left * s) @ right.T + rng.standard_normal(d)


class TestPcaSubspace:
    def test_exact_planar_data(self, rng):
        latent = rng.standard_normal((50, 2))
        x = np.zeros((50, 5))
        x[:, :2] = latent
        s = pca_subspace(x, 2)
        target = orthonormalize(np.eye(5)[:, :2])
        assert geodesic_distance(s, target) < 1e-8

    def test_isotropic_sample_is_seed_dependent(self):
        a = pca_subspace(np.random.default_rng(1).standard_normal((40, 8)), 1)
        b = pca_subspace(np.random.default_rng(2).standard_normal((40, 8)), 1)
        assert geodesic_distance(a, b) > 1e-3
        for s in (a, b):
            assert np.abs(s.basis.T @ s.basis - np.eye(1)).max() < 1e-10

    def test_anisotropic_concentration_with_eigh_oracle(self, rng):
        scales = np.ones(12)
        scales[0] = np.sqrt(10.0)
        x = rng.standard_normal((500, 12)) * scales
        s = pca_subspace(x, 1)
        target = orthonormalize(np.eye(12)[:, :1])
        assert geodesic_distance(s, target) < 0.1
        centered = x - x.mean(axis=0)
        _, vecs = np.linalg.eigh(centered.T @ centered)
        oracle = orthonormalize(vecs[:, -1:])
        assert geodesic_distance(s, oracle) < 1e-8

    def test_too_few_rows_rejected(self, rng):
        with pytest.raises(RankDeficient):
            pca_subspace(rng.standard_normal((3, 10)), 3)

    def test_rank_deficient_scatter_rejected(self, rng):
        x = np.tile(rng.standard_normal((1, 10)), (20, 1))
        with pytest.raises(RankDeficient):
            pca_subspace(x, 2)

    @pytest.mark.parametrize("n, d, k", PCA_SHAPES)
    def test_gram_route_matches_svd_oracle(self, rng, n, d, k):
        x = rng.standard_normal((n, d)) * np.linspace(3.0, 1.0, d) + 2.0
        assert geodesic_distance(pca_subspace(x, k), svd_pca_oracle(x, k)) <= 1e-10

    @pytest.mark.parametrize("n, d, k", PCA_SHAPES)
    def test_rank_boundary_unchanged(self, rng, n, d, k):
        # The check is s_k <= 1e-10 * s_1 on the singular values of the
        # centered rows, on either side of the Gram route.
        accepted = pca_subspace(rows_with_singular_ratio(rng, n, d, k, 1e-9), k)
        assert accepted.sub_dim == k
        with pytest.raises(RankDeficient):
            pca_subspace(rows_with_singular_ratio(rng, n, d, k, 1e-11), k)

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    @pytest.mark.parametrize("n, d, k", PCA_SHAPES)
    def test_huge_scale_rows_match_unscaled(self, rng, n, d, k, scale):
        # The Gram matrix of such rows overflows; the SVD route rescales them.
        x = rng.standard_normal((n, d)) * np.linspace(3.0, 1.0, d) + 2.0
        assert geodesic_distance(pca_subspace(scale * x, k), pca_subspace(x, k)) <= 1e-10

    def test_huge_scale_batch_is_classified(self, rng):
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3)
        batch = StreamBatch(features=1e200 * rng.standard_normal((30, 10)))
        with np.errstate(all="ignore"):  # classify squares the distances
            y_hat, _, state = process_batch(init_pipeline(x, y, cfg), batch, cfg)
        assert y_hat.shape == (30,)
        assert state.record.index == 1

    def test_well_conditioned_batch_makes_no_svd_call(self, rng, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counted_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        for n, d, k in PCA_SHAPES:
            pca_subspace(rng.standard_normal((n, d)) * np.linspace(3.0, 1.0, d), k)
        assert calls == []
        # Nearly rank-deficient rows take the SVD route.
        pca_subspace(rows_with_singular_ratio(rng, 20, 30, 5, 1e-9), 5)
        assert calls == [(20, 30)]


    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_rows_rejected_without_hanging(self, value):
        # Either value turns the Gram matrix non-finite, which sends the
        # batch to the SVD route; LAPACK must not see it.
        error = error_in_child(f"""
            import numpy as np
            from driftalign import pca_subspace
            x = np.random.default_rng(0).standard_normal((40, 30))
            x[3, 4] = float("{value}")
            pca_subspace(x, 5)
        """)
        assert error == "ValueError: centered samples contain non-finite values"


class TestStreamBatch:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, rng, value):
        features = rng.standard_normal((6, 4))
        features[2, 1] = value
        with pytest.raises(ValueError, match="non-finite"):
            StreamBatch(features=features)


class TestConfig:
    def test_prediction_and_cumulative_exclusive(self):
        with pytest.raises(ConfigError):
            PipelineConfig(subspace_dim=3, variant="icms-pred-cumul")

    def test_blend_range(self):
        with pytest.raises(ConfigError):
            PipelineConfig(subspace_dim=3, blend=1.5)

    def test_baseline_methods_reject_stages(self):
        with pytest.raises(ConfigError):
            PipelineConfig(subspace_dim=3, variant="karcher-fb")

    def test_variant_table_keeps_the_stage_rules(self):
        # The table holds only combinations the pipeline can run:
        # prediction and the cumulative transform exclude each other, and
        # only the icms step has optional stages.
        for stages in VARIANTS.values():
            assert not (stages.prediction and stages.cumulative)
            if stages.step is not _icms_step:
                assert not (stages.feedback or stages.prediction or stages.cumulative)

    def test_k_above_half_dim_rejected_at_init(self, rng):
        x, y = gaussian_source(rng)
        with pytest.raises(ConfigError):
            init_pipeline(x, y, PipelineConfig(subspace_dim=6))


class TestInitPipeline:
    def test_source_embedding_and_classifier(self, rng):
        x, y = gaussian_source(rng)
        state = init_pipeline(x, y, PipelineConfig(subspace_dim=3))
        gram = state.source_subspace.basis.T @ state.source_subspace.basis
        assert np.abs(gram - np.eye(3)).max() < 1e-10
        assert state.classifier.n_classes == 2
        assert np.array_equal(state.feedback_transform.g, np.eye(10))
        assert state.mean_state is None
        assert state.batch_index == 0

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_source_rejected(self, rng, value):
        x, y = gaussian_source(rng)
        x[7, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            init_pipeline(x, y, PipelineConfig(subspace_dim=3))

    def test_label_count_must_match_rows(self, rng):
        x, y = gaussian_source(rng)
        with pytest.raises(ValueError, match="one entry per feature row"):
            init_pipeline(x, y[:-1], PipelineConfig(subspace_dim=3))

    def test_deterministic_for_identical_inputs(self, rng):
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3, seed=9)
        a = init_pipeline(x, y, cfg)
        b = init_pipeline(x, y, cfg)
        assert np.array_equal(a.source_subspace.basis, b.source_subspace.basis)
        assert np.array_equal(a.classifier.centroids, b.classifier.centroids)


class TestRecursiveFeedback:
    def test_identity_transform_is_noop(self, rng):
        batch = StreamBatch(features=rng.standard_normal((4, 6)))
        out = recursive_feedback(batch, TransformMatrix.identity(6))
        assert np.array_equal(out.features, batch.features)

    def test_zero_row_stays_zero(self, rng):
        features = rng.standard_normal((3, 6))
        features[1] = 0.0
        m = rng.standard_normal((6, 6))
        out = recursive_feedback(StreamBatch(features=features), TransformMatrix(m + m.T))
        assert np.abs(out.features[1]).max() == 0.0

    def test_composition_associativity(self, rng):
        features = rng.standard_normal((5, 6))
        m1 = rng.standard_normal((6, 6))
        m2 = rng.standard_normal((6, 6))
        g1, g2 = TransformMatrix(m1 + m1.T), TransformMatrix(m2 + m2.T)
        stepwise = apply_transform(
            recursive_feedback(StreamBatch(features=features), g1).features, g2
        )
        direct = features @ (g1.g @ g2.g)
        assert np.abs(stepwise - direct).max() < 1e-10


class TestProcessBatch:
    def test_first_batch_feedback_is_noop(self, rng):
        x, y = gaussian_source(rng)
        batch = StreamBatch(features=rng.standard_normal((30, 10)))
        on = PipelineConfig(subspace_dim=3, variant="icms-fb")
        off = PipelineConfig(subspace_dim=3)
        ya, _, sa = process_batch(init_pipeline(x, y, on), batch, on)
        yb, _, sb = process_batch(init_pipeline(x, y, off), batch, off)
        assert np.array_equal(ya, yb)
        assert geodesic_distance(sa.mean_state.mean, sb.mean_state.mean) < 1e-12

    def test_mean_update_consumes_compensated_subspace(self, rng):
        # Hand-stepped trace of the prediction path over 3 batches: the
        # running mean must absorb the compensated subspace, not the raw
        # per-batch one.
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3, variant="icms-pred", blend=0.5)
        state = init_pipeline(x, y, cfg)
        batches = [StreamBatch(features=rng.standard_normal((30, 10))) for _ in range(3)]

        mean_state = None
        for i, batch in enumerate(batches):
            observed = pca_subspace(batch.features, 3)
            if i >= 2:
                predicted = predict_next(mean_state.flow.start, mean_state.mean)
                used = compensate(predicted, observed, 0.5)
            else:
                used = observed
            mean_state = (
                init_mean(used) if mean_state is None else icms_update(mean_state, used)
            )
            _, _, state = process_batch(state, batch, cfg)

        assert geodesic_distance(state.mean_state.mean, mean_state.mean) < 1e-10
        raw_only = init_mean(pca_subspace(batches[0].features, 3))
        for batch in batches[1:]:
            raw_only = icms_update(raw_only, pca_subspace(batch.features, 3))
        assert geodesic_distance(state.mean_state.mean, raw_only.mean) > 1e-6

    def test_variant_reduction_trace(self, rng):
        # With no optional stage (the "icms" variant) the loop must reduce exactly to
        # subspace -> incremental mean -> plain transform -> aligned
        # classification, state by state.
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3)
        state = init_pipeline(x, y, cfg)
        source = state.source_subspace
        classifier = state.classifier
        mean_state = None
        for _ in range(5):
            batch = StreamBatch(
                features=rng.standard_normal((30, 10)),
                labels=rng.integers(0, 2, size=30),
            )
            y_hat, accuracy, state = process_batch(state, batch, cfg)

            observed = pca_subspace(batch.features, 3)
            mean_state = (
                init_mean(observed)
                if mean_state is None
                else icms_update(mean_state, observed)
            )
            transform = gfk_transform(source, mean_state.mean)
            aligned = apply_transform(batch.features, transform)
            view = _aligned_view(classifier, (transform,))
            expected_labels = classify(view, aligned)

            assert np.array_equal(y_hat, expected_labels)
            assert geodesic_distance(state.mean_state.mean, mean_state.mean) < 1e-10
            assert np.abs(state.feedback_transform.g - transform.g).max() < 1e-10
            record = state.record
            assert abs(
                record.dist_source_mean - geodesic_distance(source, mean_state.mean)
            ) < 1e-10
            assert accuracy == pytest.approx(np.mean(expected_labels == batch.labels))

    @pytest.mark.parametrize(
        "variant", ["icms", "icms-fb-pred", "icms-fb-cumul", "avg", "karcher"]
    )
    def test_diagnostics_match_geodesic_distance(self, rng, variant):
        # The record's distances are read from angles the batch already
        # computed; they must equal fresh geodesic distances.
        x, y = gaussian_source(rng)
        cfg = config_for_variant(
            PipelineConfig(subspace_dim=3, adaptive_classifier=True), variant
        )
        state = init_pipeline(x, y, cfg)
        for _ in range(5):
            batch = StreamBatch(features=rng.standard_normal((30, 10)) + 0.3 * x[:30])
            prev = state.mean_state
            _, _, state = process_batch(state, batch, cfg)
            record, mean = state.record, state.mean_state.mean
            assert abs(
                record.dist_source_mean - geodesic_distance(state.source_subspace, mean)
            ) < 1e-10
            expected_step = 0.0 if prev is None else geodesic_distance(prev.mean, mean)
            assert abs(record.dist_mean_step - expected_step) < 1e-10

    def test_feedback_view_is_sequential_product(self, rng):
        # Passing the centroids through G_fb then G equals the dense
        # product centroids @ (G_fb.g @ G.g).
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3, variant="icms-fb-cumul")
        state = init_pipeline(x, y, cfg)
        for _ in range(3):
            batch = StreamBatch(features=rng.standard_normal((30, 10)))
            _, _, next_state = process_batch(state, batch, cfg)
            g_fb, g = state.feedback_transform, next_state.feedback_transform
            view = _aligned_view(state.classifier, (g_fb, g))
            dense = state.classifier.centroids @ (g_fb.g @ g.g)
            assert np.abs(view.centroids - dense).max() < 1e-10
            state = next_state

    def test_transform_stored_for_next_feedback(self, rng):
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3, variant="icms-fb")
        state = init_pipeline(x, y, cfg)
        b1 = StreamBatch(features=rng.standard_normal((30, 10)))
        b2 = StreamBatch(features=rng.standard_normal((30, 10)))
        _, _, state1 = process_batch(state, b1, cfg)
        expected_pre = b1.features @ np.eye(10)  # identity on the first batch
        observed = pca_subspace(expected_pre, 3)
        transform = gfk_transform(state.source_subspace, observed)
        assert np.abs(state1.feedback_transform.g - transform.g).max() < 1e-10
        # Second batch must be pre-aligned with exactly that transform.
        _, _, state2 = process_batch(state1, b2, cfg)
        pre = apply_transform(b2.features, state1.feedback_transform)
        observed2 = pca_subspace(pre, 3)
        expected_mean = icms_update(state1.mean_state, observed2)
        assert geodesic_distance(state2.mean_state.mean, expected_mean.mean) < 1e-10

    def test_history_complete_and_finite(self, rng):
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3)
        batches = tuple(
            StreamBatch(
                features=rng.standard_normal((30, 10)),
                labels=rng.integers(0, 2, size=30),
            )
            for _ in range(7)
        )
        stream = Stream(source_x=x, source_y=y, batches=batches, params={})
        records = run_experiment(stream, cfg, "icms").records
        assert [record.index for record in records] == list(range(1, 8))
        for record in records:
            assert np.isfinite(record.dist_source_mean)
            assert np.isfinite(record.dist_mean_step)
            assert record.accuracy is not None

    def test_determinism_bitwise(self, rng):
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3, adaptive_classifier=True)
        batches = [
            StreamBatch(
                features=rng.standard_normal((30, 10)),
                labels=rng.integers(0, 2, size=30),
            )
            for _ in range(5)
        ]

        def run():
            state = init_pipeline(x, y, cfg)
            records = []
            for batch in batches:
                _, _, state = process_batch(state, batch, cfg)
                records.append(state.record)
            return state, records

        (a, records_a), (b, records_b) = run(), run()
        for ra, rb in zip(records_a, records_b):
            assert ra.accuracy == rb.accuracy
            assert abs(ra.dist_source_mean - rb.dist_source_mean) <= 1e-12
            assert abs(ra.dist_mean_step - rb.dist_mean_step) <= 1e-12
        assert np.array_equal(a.classifier.centroids, b.classifier.centroids)

    @pytest.mark.parametrize("variant", ["icms-cumul", "icms-fb-cumul"])
    def test_carried_cumulative_start_equals_recomputation(self, variant, monkeypatch):
        # From batch 2 on the sweep starts from the last transform's angles
        # and directions: the result must be the three-argument call's, bit
        # for bit, at two SVDs per batch (icms_update's and the current
        # mean's decomposition; the Gram-route PCA makes none).
        stream = generate_drift_stream(
            DriftParams(
                seed=5, feature_dim=512, n_classes=2, n_batches=12, batch_size=120,
                drift_kind="rotation", drift_rate=0.005, signal_dim=100,
                class_sep=30.0, signal_spread=tuple(np.linspace(3.0, 2.0, 100)),
                n_source=600, target_offset=0.3,
            )
        )
        cfg = config_for_variant(
            PipelineConfig(subspace_dim=100, batch_size=120, adaptive_classifier=True),
            variant,
        )
        state = init_pipeline(stream.source_x, stream.source_y, cfg)
        svd = np.linalg.svd
        calls = []

        def counted_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        for batch in stream.batches:
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", counted_svd)
                y_hat, _, state = process_batch(state, batch, cfg)
            assert y_hat is not None
            if state.batch_index == 1:
                continue
            assert len(calls) == 2, (state.batch_index, calls)
            mean_state = state.mean_state
            fresh = cumulative_transform(
                state.source_subspace, mean_state.flow.start, mean_state.mean
            )
            carried = state.feedback_transform
            assert np.array_equal(carried.left, fresh.left), state.batch_index
            assert np.array_equal(carried.core, fresh.core), state.batch_index
            assert np.array_equal(carried.theta, fresh.theta), state.batch_index
        assert state.batch_index == 12

    def test_prediction_step_reads_the_carried_flow(self, monkeypatch):
        # From batch 3 on, an icms-pred step makes three SVDs: compensate's,
        # icms_update's and gfk_transform's decomposition. The prediction
        # evaluates the flow icms_update kept, so it decomposes nothing.
        stream = generate_drift_stream(
            DriftParams(
                seed=3, feature_dim=30, n_classes=2, n_batches=40, batch_size=20,
                drift_kind="noisy-rotation", drift_rate=0.01, noise=0.1,
                signal_dim=5, class_sep=12.0,
            )
        )
        cfg = PipelineConfig(subspace_dim=5, batch_size=20, variant="icms-pred")
        state = init_pipeline(stream.source_x, stream.source_y, cfg)
        svd = np.linalg.svd
        calls = []

        def counted_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        for batch in stream.batches:
            calls.clear()
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "svd", counted_svd)
                y_hat, _, state = process_batch(state, batch, cfg)
            assert y_hat is not None
            if state.batch_index >= 3:
                assert len(calls) == 3, (state.batch_index, calls)
        assert state.batch_index == 40

    def test_cut_locus_batch_skipped_with_state_unchanged(self, rng, caplog):
        import logging
        from unittest import mock

        from driftalign.errors import CutLocusError

        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3)
        state = init_pipeline(x, y, cfg)
        batch = StreamBatch(features=rng.standard_normal((30, 10)))
        with mock.patch(
            "driftalign.pipeline.gfk_transform",
            side_effect=CutLocusError("forced"),
        ):
            with caplog.at_level(logging.WARNING, logger="driftalign.pipeline"):
                y_hat, accuracy, new_state = process_batch(state, batch, cfg)
        assert y_hat is None and accuracy is None
        assert new_state is state
        assert any("cut locus" in r.message for r in caplog.records)

    def test_rank_deficient_batch_skipped_with_state_unchanged(self, rng, caplog):
        import logging

        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3)
        labels = rng.integers(0, 2, size=30)
        constant = np.tile(rng.standard_normal((1, 10)), (30, 1))
        batches = tuple(
            StreamBatch(features=f, labels=labels)
            for f in (rng.standard_normal((30, 10)), constant, rng.standard_normal((30, 10)))
        )
        state = init_pipeline(x, y, cfg)
        _, _, state = process_batch(state, batches[0], cfg)
        with caplog.at_level(logging.WARNING, logger="driftalign.pipeline"):
            y_hat, accuracy, skipped = process_batch(state, batches[1], cfg)
        assert y_hat is None and accuracy is None
        assert skipped is state
        assert any(
            "batch 2 skipped as rank deficient" in r.message for r in caplog.records
        )
        y_hat, _, state = process_batch(state, batches[2], cfg)
        assert y_hat is not None
        assert state.batch_index == 2 and state.record.index == 2

        stream = Stream(source_x=x, source_y=y, batches=batches, params={})
        report = run_experiment(stream, cfg, "icms")
        assert report.summary["skipped_batches"] == 1
        assert report.summary["batches"] == 2

    def test_karcher_records_do_not_depend_on_the_basis(self, monkeypatch):
        # Every PCA basis replaced by another basis of the same subspace:
        # the Karcher reference must give the same records.
        import driftalign.pipeline as pipeline

        stream = generate_drift_stream(
            DriftParams(
                seed=11, feature_dim=30, n_classes=2, n_batches=60, batch_size=20,
                drift_kind="stationary", class_sep=30.0, n_source=400,
                target_offset=0.35,
            )
        )
        cfg = PipelineConfig(subspace_dim=5, batch_size=20, seed=11)
        plain = run_experiment(stream, cfg, "karcher").records
        pca = pipeline.pca_subspace
        rotations = np.random.default_rng(11)

        def rotated_pca(x, k):
            q, _ = np.linalg.qr(rotations.standard_normal((k, k)))
            return orthonormalize(pca(x, k).basis @ q)

        monkeypatch.setattr(pipeline, "pca_subspace", rotated_pca)
        rotated = run_experiment(stream, cfg, "karcher").records
        assert [r.accuracy for r in rotated] == [r.accuracy for r in plain]
        for a, b in zip(rotated, plain):
            assert abs(a.dist_source_mean - b.dist_source_mean) < 1e-12
            assert abs(a.dist_mean_step - b.dist_mean_step) < 1e-12

    def test_dimension_mismatch_propagates(self, rng):
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3)
        state = init_pipeline(x, y, cfg)
        with pytest.raises(DimensionMismatch):
            process_batch(state, StreamBatch(features=rng.standard_normal((30, 9))), cfg)

    def test_adaptive_update_moves_centroids(self, rng):
        x, y = gaussian_source(rng)
        cfg = PipelineConfig(subspace_dim=3, adaptive_classifier=True, update_rate=0.5)
        state = init_pipeline(x, y, cfg)
        batch = StreamBatch(features=rng.standard_normal((30, 10)) + 2.0)
        _, _, new_state = process_batch(state, batch, cfg)
        assert not np.array_equal(new_state.classifier.centroids, state.classifier.centroids)


class TestAverageAccuracy:
    def test_single_value(self):
        assert average_accuracy([1.0]) == 1.0

    def test_exact_small_case(self):
        assert average_accuracy([0.5, 1.0, 0.75]) == 0.75

    def test_matches_compensated_summation(self, rng):
        import math

        values = rng.uniform(0.0, 1.0, size=1000)
        oracle = math.fsum(values) / len(values)
        assert abs(average_accuracy(values) - oracle) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_accuracy([])
