import numpy as np
import pytest

from driftalign import (
    CutLocusError,
    DimensionMismatch,
    MeanState,
    NoConvergence,
    Subspace,
    TransformMatrix,
    geodesic,
    geodesic_distance,
    geodesic_point,
    icms_update,
    incremental_average_transform,
    init_mean,
    karcher_mean,
    log_map,
    perturbed_subspace,
)

from conftest import karcher_residual, line, line_angle, perturbed, random_subspace


class TestIcmsUpdate:
    def test_absorbing_the_mean_is_identity(self, rng):
        p = random_subspace(12, 3, rng)
        state = init_mean(p)
        state = icms_update(state, p)
        assert state.count == 2
        assert geodesic_distance(state.mean, p) < 1e-12

    def test_one_to_n_minus_one_split(self):
        state = MeanState(mean=line(np.radians(10)), flow=None, count=2)
        state = icms_update(state, line(np.radians(40)))
        assert state.count == 3
        assert abs(np.degrees(line_angle(state.mean)) - 20.0) < 1e-9

    def test_prev_mean_tracks_old_mean(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = perturbed(p1, 0.2, rng)
        state = icms_update(init_mean(p1), p2)
        assert np.array_equal(state.flow.pu1, p1.basis @ state.flow.u1)

    def test_flow_passes_through_the_mean(self, rng):
        # The carried flow is the one the mean was evaluated on: at
        # t = 1/count it gives the mean bit for bit.
        state = init_mean(random_subspace(12, 3, rng))
        for _ in range(6):
            state = icms_update(state, perturbed(state.mean, 0.3, rng))
            point = geodesic_point(state.flow, 1.0 / state.count)
            assert np.array_equal(point.basis, state.mean.basis)

    def test_repeated_identity_has_no_drift(self, rng):
        p = random_subspace(12, 3, rng)
        state = init_mean(p)
        for _ in range(50):
            state = icms_update(state, p)
        assert geodesic_distance(state.mean, p) < 1e-9
        assert state.count == 51

    def test_long_stream_keeps_orthonormality(self, rng):
        base = random_subspace(12, 3, rng)
        state = init_mean(base)
        for _ in range(10_000):
            state = icms_update(state, perturbed(base, 0.2, rng))
        gram = state.mean.basis.T @ state.mean.basis
        assert np.abs(gram - np.eye(3)).max() < 1e-10

    def test_close_to_karcher_mean_on_cluster(self, rng):
        base = random_subspace(30, 5, rng)
        subspaces = [perturbed(base, rng.uniform(0, 0.3), rng) for _ in range(20)]
        state = init_mean(subspaces[0])
        for p in subspaces[1:]:
            state = icms_update(state, p)
        reference = karcher_mean(subspaces).subspace
        assert geodesic_distance(state.mean, reference) <= 0.1

    def test_order_sensitivity_is_bounded(self, rng):
        base = random_subspace(30, 5, rng)
        subspaces = [perturbed(base, rng.uniform(0, 0.3), rng) for _ in range(20)]

        def run(order):
            state = init_mean(order[0])
            for p in order[1:]:
                state = icms_update(state, p)
            return state.mean

        first = run(subspaces)
        shuffled = list(subspaces)
        rng.shuffle(shuffled)
        assert geodesic_distance(first, run(shuffled)) < 0.05

    def test_step_distance_decays_like_one_over_n(self, rng):
        base = random_subspace(12, 3, rng)
        state = init_mean(perturbed(base, rng.uniform(0, 0.2), rng))
        steps = []
        for _ in range(2, 201):
            new = icms_update(state, perturbed(base, rng.uniform(0, 0.2), rng))
            steps.append(geodesic_distance(state.mean, new.mean))
            state = new
        early = np.mean(steps[8:29])    # n in [10, 30]
        late = np.mean(steps[178:199])  # n in [180, 200]
        assert early >= 5.0 * late

    def test_mean_of_points_on_one_geodesic_is_the_mean_parameter(self, rng):
        # The ICMS law: fed points of one geodesic whose angles all stay
        # below pi/2, in any order, the running mean after n points is the
        # geodesic at the mean of their n parameters. So under drift at a
        # constant rate the mean trails the truth by half the arc travelled.
        worst = 0.0
        for i in range(20):
            start = random_subspace(30, 1 + i % 7, rng)
            flow = geodesic(start, perturbed(start, rng.uniform(0.3, 1.5), rng))
            params = rng.uniform(0.0, 1.0, size=200)
            state = init_mean(geodesic_point(flow, params[0]))
            for n in range(2, params.size + 1):
                state = icms_update(state, geodesic_point(flow, params[n - 1]))
                expected = geodesic_point(flow, params[:n].mean())
                worst = max(worst, geodesic_distance(state.mean, expected))
        assert worst <= 1e-12, worst

    def test_cut_locus_rejected(self):
        e1 = Subspace(np.array([[1.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0]]))
        with pytest.raises(CutLocusError):
            icms_update(init_mean(e1), e2)

    def test_dimension_mismatch(self, rng):
        state = init_mean(random_subspace(12, 3, rng))
        with pytest.raises(DimensionMismatch):
            icms_update(state, random_subspace(14, 3, rng))


class TestInitMean:
    def test_fields(self, rng):
        p = random_subspace(10, 2, rng)
        state = init_mean(p)
        assert state.count == 1
        assert state.flow is None
        assert state.mean is p


class TestKarcherMean:
    def test_single_subspace(self, rng):
        p = random_subspace(12, 3, rng)
        result = karcher_mean([p])
        assert result.iterations <= 1
        assert geodesic_distance(result.subspace, p) < 1e-10

    def test_two_point_midpoint_on_plane(self):
        result = karcher_mean([line(0.1), line(0.3)])
        assert abs(line_angle(result.subspace) - 0.2) < 1e-6

    def test_first_order_condition_at_result(self, rng):
        base = random_subspace(12, 3, rng)
        subspaces = [perturbed(base, rng.uniform(0, 0.25), rng) for _ in range(10)]
        result = karcher_mean(subspaces, tol=1e-6)
        assert karcher_residual(result.subspace, subspaces) < 1e-5
        assert result.residual < 1e-6

    def test_no_convergence_raised(self, rng):
        base = random_subspace(12, 3, rng)
        subspaces = [perturbed(base, rng.uniform(0.2, 0.9), rng) for _ in range(8)]
        with pytest.raises(NoConvergence):
            karcher_mean(subspaces, tol=1e-13, max_iter=1)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            karcher_mean([])


    def test_negative_max_iter_rejected(self, rng):
        with pytest.raises(ValueError, match="max_iter"):
            karcher_mean([random_subspace(12, 3, rng)], max_iter=-1)

    def test_zero_max_iter_returns_the_start(self, rng):
        subspaces = [random_subspace(12, 3, rng) for _ in range(2)]
        # Not converged at the start, but within the 10 * tol allowance.
        tol = 0.5 * karcher_residual(subspaces[0], subspaces) / len(subspaces)
        result = karcher_mean(subspaces, tol=tol, max_iter=0)
        assert result.subspace is subspaces[0] and result.iterations == 0
        assert abs(result.residual - 2.0 * tol) < 1e-15


class TestKarcherResidual:
    def test_zero_at_single_point(self, rng):
        p = random_subspace(12, 3, rng)
        assert karcher_residual(p, [p]) < 1e-12

    def test_symmetric_pair_is_stationary(self):
        assert karcher_residual(line(0.2), [line(0.1), line(0.3)]) < 1e-8

    def test_icms_mean_is_almost_stationary(self, rng):
        base = random_subspace(30, 5, rng)
        subspaces = [perturbed(base, rng.uniform(0, 0.3), rng) for _ in range(20)]
        state = init_mean(subspaces[0])
        for p in subspaces[1:]:
            state = icms_update(state, p)
        residual = karcher_residual(state.mean, subspaces)
        total = sum(np.linalg.norm(log_map(state.mean, p)) for p in subspaces)
        assert residual <= 0.05 * total


class TestIncrementalAverageTransform:
    def test_first_matrix_returned_exactly(self, rng):
        m = rng.standard_normal((6, 6))
        g = TransformMatrix(m + m.T)
        out = incremental_average_transform(None, g, 1)
        assert np.array_equal(out.g, g.g)

    def test_identity_fixed_point(self):
        identity = TransformMatrix.identity(5)
        out = incremental_average_transform(identity, identity, 7)
        assert np.abs(out.g - np.eye(5)).max() < 1e-15

    def test_matches_arithmetic_mean(self, rng):
        mats = []
        for _ in range(5):
            m = rng.standard_normal((6, 6))
            mats.append(TransformMatrix(m + m.T))
        running = None
        for n, g in enumerate(mats, start=1):
            running = incremental_average_transform(running, g, n)
        oracle = np.mean([g.g for g in mats], axis=0)
        assert np.abs(running.g - oracle).max() < 1e-12

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            incremental_average_transform(
                TransformMatrix.identity(4), TransformMatrix.identity(5), 2
            )


class TestPerturbedSubspace:
    def test_lands_at_the_requested_distance(self, rng):
        base = random_subspace(16, 4, rng)
        for magnitude in (1e-3, 0.2, 1.0):
            moved = perturbed_subspace(base, magnitude, rng)
            assert abs(geodesic_distance(base, moved) - magnitude) < 1e-12

    def test_zero_magnitude_returns_the_base_and_draws_nothing(self, rng):
        base = random_subspace(12, 3, rng)
        state = rng.bit_generator.state
        assert perturbed_subspace(base, 0.0, rng) is base
        assert rng.bit_generator.state == state
