import numpy as np
import pytest

from driftalign import (
    CutLocusError,
    DimensionMismatch,
    NotTangentError,
    RankDeficient,
    Subspace,
    exp_map,
    geodesic,
    geodesic_distance,
    geodesic_point,
    log_map,
    orthonormalize,
    principal_angles,
    principal_decomposition,
)

from conftest import (
    error_in_child,
    line,
    line_angle,
    perturbed,
    random_subspace,
    textbook_log,
)


class TestSubspace:
    def test_identity_block_kept_exactly(self):
        m = np.vstack([np.eye(2), np.zeros((3, 2))])
        s = orthonormalize(m)
        assert np.array_equal(s.basis, m)

    def test_axis_aligned_scaling(self):
        m = np.array([[2.0, 0.0], [0.0, 3.0], [0.0, 0.0], [0.0, 0.0]])
        s = orthonormalize(m)
        target = orthonormalize(np.eye(4)[:, :2])
        assert geodesic_distance(s, target) < 1e-12

    def test_matches_qr_oracle_projector(self, rng):
        m = rng.standard_normal((30, 5))
        s = orthonormalize(m)
        q, _ = np.linalg.qr(m)
        oracle = q[:, :5] @ q[:, :5].T
        assert np.abs(s.projector() - oracle).max() < 1e-10

    def test_rank_deficient_rejected(self, rng):
        m = rng.standard_normal((10, 3))
        m[:, 2] = m[:, 0] + m[:, 1]
        with pytest.raises(RankDeficient):
            orthonormalize(m)

    def test_non_orthonormal_basis_rejected(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0], [1.0]]))

    def test_k_above_half_dim_rejected(self, rng):
        with pytest.raises(ValueError):
            orthonormalize(rng.standard_normal((5, 3)))

    def test_basis_is_read_only(self, rng):
        s = random_subspace(8, 2, rng)
        with pytest.raises(ValueError):
            s.basis[0, 0] = 7.0

    def test_orthonormal_input_is_copied(self):
        m = np.vstack([np.eye(2), np.zeros((3, 2))])
        s = orthonormalize(m)
        m[0, 0] = 5.0
        assert s.basis[0, 0] == 1.0
        assert not s.basis.flags.writeable

    def test_results_pass_the_public_check(self, rng):
        for m in (rng.standard_normal((30, 5)), np.eye(12)[:, :6]):
            s = orthonormalize(m)
            assert np.array_equal(Subspace(s.basis).basis, s.basis)

    @pytest.mark.parametrize("shape", [(8, 2), (30, 5), (100, 10)])
    def test_nan_rejected(self, rng, shape):
        m = rng.standard_normal(shape)
        m[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            orthonormalize(m)

    @pytest.mark.parametrize("shape", [(8, 2), (30, 5), (100, 10)])
    def test_inf_rejected_without_hanging(self, shape):
        # Without the check, LAPACK's SVD never returns on the 30 x 5 and
        # 100 x 10 matrices and returns garbage on the 8 x 2 one.
        error = error_in_child(f"""
            import numpy as np
            from driftalign import orthonormalize
            m = np.random.default_rng(0).standard_normal({shape})
            m[0, 0] = np.inf
            orthonormalize(m)
        """)
        assert error == "ValueError: matrix contains non-finite entries"


class TestPrincipalDecomposition:
    def test_identical_subspaces(self, rng):
        p = random_subspace(12, 3, rng)
        pd = principal_decomposition(p, p)
        assert np.abs(pd.theta).max() < 1e-12

    def test_single_angle_analytic(self):
        pd = principal_decomposition(line(0.0), line(0.3))
        assert pd.theta.shape == (1,)
        assert abs(pd.theta[0] - 0.3) < 1e-12

    def test_theta_matches_svd_oracle(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = random_subspace(12, 3, rng)
        pd = principal_decomposition(p1, p2)
        sv = np.clip(np.linalg.svd(p1.basis.T @ p2.basis, compute_uv=False), 0, 1)
        oracle = np.sort(np.arccos(sv))
        assert np.abs(np.sort(pd.theta) - oracle).max() < 1e-8

    def test_block_reconstruction(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = random_subspace(12, 3, rng)
        pd = principal_decomposition(p1, p2)
        top = pd.u1 @ np.diag(np.cos(pd.theta)) @ pd.v.T
        side = -pd.h @ np.diag(np.sin(pd.theta)) @ pd.v.T
        assert np.linalg.norm(p1.basis.T @ p2.basis - top) < 1e-8
        residual = p2.basis - p1.basis @ (p1.basis.T @ p2.basis)
        assert np.linalg.norm(residual - side) < 1e-8

    def test_u_factors_orthonormal(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = random_subspace(12, 3, rng)
        pd = principal_decomposition(p1, p2)
        assert np.abs(pd.u1.T @ pd.u1 - np.eye(3)).max() < 1e-10
        assert np.abs(pd.v.T @ pd.v - np.eye(3)).max() < 1e-10
        assert pd.h.shape == (12, 3)
        assert np.abs(pd.h.T @ pd.h - np.eye(3)).max() < 1e-10
        assert np.abs(p1.basis.T @ pd.h).max() < 1e-10

    def test_degenerate_directions_get_zero_h_columns(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = Subspace(p1.basis[:, [2, 0, 1]])
        pd = principal_decomposition(p1, p2)
        assert np.abs(pd.theta).max() < 1e-12
        assert np.array_equal(pd.h, np.zeros((12, 3)))

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            principal_decomposition(
                random_subspace(12, 3, rng), random_subspace(12, 4, rng)
            )

    def test_angles_invariant_to_basis_rotation(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = random_subspace(12, 3, rng)
        rot, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        p1_rot = Subspace(p1.basis @ rot)
        t1 = principal_angles(p1, p2)
        t2 = principal_angles(p1_rot, p2)
        assert np.abs(t1 - t2).max() < 1e-8


class TestGeodesic:
    def test_constant_flow_for_identical_endpoints(self, rng):
        p = random_subspace(12, 3, rng)
        flow = geodesic(p, p)
        for t in (0.0, 0.25, 0.5, 1.0):
            assert geodesic_distance(geodesic_point(flow, t), p) < 1e-10

    def test_plane_rotation_midpoint(self):
        flow = geodesic(line(0.0), line(0.6))
        mid = geodesic_point(flow, 0.5)
        assert abs(line_angle(mid) - 0.3) < 1e-10

    def test_endpoint_constraints(self, rng):
        for (k, d) in [(1, 2), (3, 12), (5, 30)]:
            p1 = random_subspace(d, k, rng)
            p2 = random_subspace(d, k, rng)
            flow = geodesic(p1, p2)
            assert geodesic_distance(geodesic_point(flow, 0.0), p1) < 1e-8
            assert geodesic_distance(geodesic_point(flow, 1.0), p2) < 1e-8

    def test_metric_additivity_along_flow(self, rng):
        p1 = random_subspace(20, 4, rng)
        p2 = random_subspace(20, 4, rng)
        flow = geodesic(p1, p2)
        mid = geodesic_point(flow, 0.3)
        total = geodesic_distance(p1, p2)
        assert abs(geodesic_distance(p1, mid) + geodesic_distance(mid, p2) - total) < 1e-6

    def test_constant_speed(self, rng):
        p1 = random_subspace(20, 4, rng)
        p2 = random_subspace(20, 4, rng)
        flow = geodesic(p1, p2)
        total = geodesic_distance(p1, p2)
        for t in (0.2, 0.5, 0.8):
            assert abs(geodesic_distance(p1, geodesic_point(flow, t)) - t * total) < 1e-6

    def test_cut_locus_rejected(self):
        e1 = Subspace(np.array([[1.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0]]))
        with pytest.raises(CutLocusError):
            geodesic(e1, e2)

    def test_extrapolation_doubles_angle(self):
        flow = geodesic(line(0.0), line(0.3))
        assert abs(line_angle(geodesic_point(flow, 2.0)) - 0.6) < 1e-10

    def test_point_is_orthonormal_at_fractional_t(self, rng):
        p1 = random_subspace(12, 3, rng)
        p2 = random_subspace(12, 3, rng)
        point = geodesic_point(geodesic(p1, p2), 1.0 / 3.0)
        gram = point.basis.T @ point.basis
        assert np.abs(gram - np.eye(3)).max() < 1e-10


class TestDistance:
    def test_identity_of_indiscernibles(self, rng):
        p = random_subspace(10, 3, rng)
        assert geodesic_distance(p, p) < 1e-12

    def test_orthogonal_lines(self):
        e1 = Subspace(np.array([[1.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0]]))
        assert abs(geodesic_distance(e1, e2) - np.pi / 2) < 1e-12

    def test_metric_properties_random_sweep(self, rng):
        for _ in range(100):
            a = random_subspace(10, 3, rng)
            b = random_subspace(10, 3, rng)
            c = random_subspace(10, 3, rng)
            dab = geodesic_distance(a, b)
            assert abs(dab - geodesic_distance(b, a)) < 1e-9
            assert geodesic_distance(a, c) <= dab + geodesic_distance(b, c) + 1e-9

    def test_norm_of_principal_angles(self, rng):
        p1 = random_subspace(14, 4, rng)
        p2 = random_subspace(14, 4, rng)
        assert abs(
            geodesic_distance(p1, p2) - np.linalg.norm(principal_angles(p1, p2))
        ) < 1e-12


class TestLogExp:
    def test_log_at_base_is_zero(self, rng):
        p = random_subspace(12, 3, rng)
        assert np.abs(log_map(p, p)).max() < 1e-12

    def test_single_angle_tangent_norm(self):
        delta = log_map(line(0.0), line(0.4))
        sv = np.linalg.svd(delta, compute_uv=False)
        assert abs(sv[0] - 0.4) < 1e-12

    def test_tangent_orthogonal_to_base(self, rng):
        base = random_subspace(16, 4, rng)
        x = random_subspace(16, 4, rng)
        delta = log_map(base, x)
        assert np.abs(base.basis.T @ delta).max() < 1e-10

    def test_singular_values_are_angles(self, rng):
        base = random_subspace(16, 4, rng)
        x = random_subspace(16, 4, rng)
        delta = log_map(base, x)
        sv = np.sort(np.linalg.svd(delta, compute_uv=False))
        assert np.abs(sv - principal_angles(base, x)).max() < 1e-8

    def test_exp_log_round_trip(self, rng):
        base = random_subspace(16, 4, rng)
        x = random_subspace(16, 4, rng)
        assert geodesic_distance(exp_map(base, log_map(base, x)), x) < 1e-8

    def test_log_exp_round_trip(self, rng):
        base = random_subspace(16, 4, rng)
        z = rng.standard_normal((16, 4))
        tangent = z - base.basis @ (base.basis.T @ z)
        tangent *= 0.4 / np.linalg.norm(tangent)
        recovered = log_map(base, exp_map(base, tangent))
        assert np.linalg.norm(recovered - tangent) < 1e-7

    @pytest.mark.parametrize("d, k", [(12, 3), (30, 5), (40, 20)])
    def test_matches_textbook_formula(self, d, k, rng):
        for _ in range(10):
            base = random_subspace(d, k, rng)
            x = random_subspace(d, k, rng)
            assert np.abs(log_map(base, x) - textbook_log(base, x)).max() < 1e-12

    def test_exp_of_zero_is_base(self, rng):
        base = random_subspace(12, 3, rng)
        assert geodesic_distance(exp_map(base, np.zeros((12, 3))), base) < 1e-12

    def test_exp_single_angle(self):
        base = line(0.0)
        tangent = np.array([[0.0], [0.25]])
        assert abs(line_angle(exp_map(base, tangent)) - 0.25) < 1e-12

    def test_exp_rejects_non_tangent(self, rng):
        base = random_subspace(12, 3, rng)
        with pytest.raises(NotTangentError):
            exp_map(base, base.basis * 0.1)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_exp_rejects_non_finite_tangent(self, value):
        base = orthonormalize(np.eye(30)[:, :5])
        tangent = np.zeros((30, 5))
        tangent[10, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            exp_map(base, tangent)

    def test_log_at_cut_locus_rejected(self):
        e1 = Subspace(np.array([[1.0], [0.0]]))
        e2 = Subspace(np.array([[0.0], [1.0]]))
        with pytest.raises(CutLocusError):
            log_map(e1, e2)

    def test_round_trips_bounded_angles_sweep(self, rng):
        base = random_subspace(12, 3, rng)
        for _ in range(20):
            other = perturbed(base, rng.uniform(0.05, 0.5), rng)
            delta = log_map(base, other)
            assert geodesic_distance(exp_map(base, delta), other) < 1e-7
