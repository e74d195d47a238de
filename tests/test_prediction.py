import numpy as np
import pytest

from driftalign import (
    AngleClampWarning,
    BlendOutOfRange,
    CutLocusError,
    Subspace,
    compensate,
    exp_map,
    geodesic_distance,
    log_map,
    predict_next,
    principal_decomposition,
)

from conftest import line, line_angle, perturbed, principal_angles, random_subspace


def velocity(p_mean_prev, p_mean_cur):
    """The d x k step velocity -H diag(theta) U1^T of the thin decomposition."""
    pd = principal_decomposition(p_mean_prev, p_mean_cur)
    return -(pd.h * pd.theta) @ pd.u1.T


class TestVelocityMatrix:
    """The step velocity between consecutive means, as a d x k tangent."""

    def test_zero_for_identical_means(self, rng):
        p = random_subspace(12, 3, rng)
        assert np.abs(velocity(p, p)).max() < 1e-12

    def test_single_angle_magnitude(self):
        sv = np.linalg.svd(velocity(line(0.0), line(0.2)), compute_uv=False)
        assert abs(sv[0] - 0.2) < 1e-12

    def test_singular_values_match_principal_angles(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = random_subspace(12, 3, rng)
        sv = np.sort(np.linalg.svd(velocity(p1, p2), compute_uv=False))
        assert np.abs(sv - principal_angles(p1, p2)).max() < 1e-8

    def test_shape(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = perturbed(p1, 0.4, rng)
        a = velocity(p1, p2)
        assert a.shape == (12, 3)
        # The thin-form velocity is the log map, the prediction's velocity.
        assert np.abs(a - log_map(p1, p2)).max() < 1e-12

    def test_cut_locus_rejected(self):
        e1 = Subspace(np.array([[1.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0]]))
        with pytest.raises(CutLocusError, match="predict_next"):
            predict_next(e1, e2)


class TestPredictNext:
    def test_zero_velocity_returns_current(self, rng):
        p = random_subspace(12, 3, rng)
        assert geodesic_distance(predict_next(p, p), p) < 1e-10

    def test_equal_arc_continuation_on_plane(self):
        predicted = predict_next(line(np.radians(10)), line(np.radians(20)))
        assert abs(np.degrees(line_angle(predicted)) - 30.0) < 1e-9

    def test_matches_t2_extrapolation(self, rng):
        p1 = random_subspace(10, 2, rng)
        p2 = perturbed(p1, 0.15, rng)
        predicted = predict_next(p1, p2)
        oracle = exp_map(p1, 2.0 * log_map(p1, p2))
        assert geodesic_distance(predicted, oracle) < 1e-6

    def test_large_step_clamped_with_warning(self):
        with pytest.warns(AngleClampWarning):
            predicted = predict_next(line(0.0), line(0.9))
        # Clamped to pi/4 per direction, then doubled.
        assert abs(line_angle(predicted) - np.pi / 2) < 1e-9

    def test_result_is_orthonormal(self, rng):
        p1 = random_subspace(16, 4, rng)
        p2 = perturbed(p1, 0.3, rng)
        predicted = predict_next(p1, p2)
        gram = predicted.basis.T @ predicted.basis
        assert np.abs(gram - np.eye(4)).max() < 1e-10


class TestCompensate:
    def test_blend_zero_returns_observation(self, rng):
        predicted = random_subspace(12, 3, rng)
        observed = perturbed(predicted, 0.3, rng)
        out = compensate(predicted, observed, 0.0)
        assert geodesic_distance(out, observed) < 1e-10

    def test_blend_one_returns_prediction(self, rng):
        predicted = random_subspace(12, 3, rng)
        observed = perturbed(predicted, 0.3, rng)
        out = compensate(predicted, observed, 1.0)
        assert geodesic_distance(out, predicted) < 1e-8

    def test_plane_midpoint(self):
        out = compensate(line(0.2), line(0.4), 0.5)
        assert abs(line_angle(out) - 0.3) < 1e-10

    def test_monotone_along_geodesic(self, rng):
        predicted = random_subspace(12, 3, rng)
        observed = perturbed(predicted, 0.4, rng)
        total = geodesic_distance(observed, predicted)
        for blend in (0.25, 0.5, 0.75):
            out = compensate(predicted, observed, blend)
            assert abs(geodesic_distance(observed, out) - blend * total) < 1e-6

    @pytest.mark.parametrize("blend", [-0.1, 1.1])
    def test_blend_out_of_range(self, blend, rng):
        p = random_subspace(12, 3, rng)
        with pytest.raises(BlendOutOfRange):
            compensate(p, p, blend)


class TestNoiseRejection:
    def test_compensation_beats_raw_observation_on_noisy_chain(self, rng):
        # Truth drifts linearly on G(1,2); observations carry N(0, 0.1)
        # angle noise. Chain: predict from the two previous compensated
        # values, then blend the new observation halfway toward it.
        drift = 0.01
        noise = 0.1
        steps = 100
        truth = [line(n * drift) for n in range(1, steps + 1)]
        observed = [
            line(n * drift + rng.normal(0.0, noise)) for n in range(1, steps + 1)
        ]
        chain = [observed[0], observed[1]]
        for n in range(2, steps):
            predicted = predict_next(chain[n - 2], chain[n - 1])
            chain.append(compensate(predicted, observed[n], 0.5))
        raw_err = np.mean(
            [geodesic_distance(o, t) for o, t in zip(observed[2:], truth[2:])]
        )
        comp_err = np.mean(
            [geodesic_distance(c, t) for c, t in zip(chain[2:], truth[2:])]
        )
        assert comp_err < raw_err
