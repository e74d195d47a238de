from dataclasses import replace

import numpy as np
import pytest

from driftalign import (
    AngleOutOfRange,
    CutLocusError,
    DimensionMismatch,
    LengthMismatch,
    TransformMatrix,
    apply_transform,
    cumulative_transform,
    delta_blocks,
    gfk_transform,
    lambda_blocks,
    principal_decomposition,
)

from conftest import (
    line,
    perturbed,
    principal_angles,
    projector,
    quadrature_transform,
    random_subspace,
)


def simpson_weights(nodes):
    w = np.ones(nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / (3.0 * (nodes - 1))


def scalar_simpson(f, nodes=513):
    ts = np.linspace(0.0, 1.0, nodes)
    return float(np.sum(simpson_weights(nodes) * f(ts)))


class TestLambdaBlocks:
    def test_zero_angle_limit(self):
        l1, l2, l3 = lambda_blocks(np.zeros(3))
        assert np.allclose(l1, 2.0) and np.allclose(l2, 0.0) and np.allclose(l3, 0.0)

    def test_quarter_pi_analytic(self):
        l1, l2, l3 = lambda_blocks(np.array([np.pi / 4]))
        assert abs(l1[0] - (1 + 2 / np.pi)) < 1e-12
        assert abs(l2[0] - (-2 / np.pi)) < 1e-12
        assert abs(l3[0] - (1 - 2 / np.pi)) < 1e-12

    @pytest.mark.parametrize("theta", [0.1, 0.5, 1.0, 1.5])
    def test_scalar_quadrature_oracle(self, theta):
        l1, l2, l3 = lambda_blocks(np.array([theta]))
        q1 = scalar_simpson(lambda t: 2.0 * np.cos(t * theta) ** 2)
        q2 = scalar_simpson(lambda t: -2.0 * np.cos(t * theta) * np.sin(t * theta))
        q3 = scalar_simpson(lambda t: 2.0 * np.sin(t * theta) ** 2)
        assert abs(l1[0] - q1) < 1e-10
        assert abs(l2[0] - q2) < 1e-10
        assert abs(l3[0] - q3) < 1e-10

    def test_taylor_branch_agrees_at_the_switch(self):
        # Exact formula evaluated just above the switch vs the quadratic
        # limits just below it: the truncation error is O(theta^3).
        theta = 1.0001e-4
        exact = lambda_blocks(np.array([theta]))
        taylor = (
            2.0 - (2.0 / 3.0) * theta**2,
            -theta,
            (2.0 / 3.0) * theta**2,
        )
        for got, expected in zip(exact, taylor):
            assert abs(got[0] - expected) < 1e-11

    def test_out_of_range_rejected(self):
        with pytest.raises(AngleOutOfRange):
            lambda_blocks(np.array([np.pi / 2]))
        with pytest.raises(AngleOutOfRange):
            lambda_blocks(np.array([-0.1]))


class TestGfkTransform:
    def test_identical_subspaces_double_projector(self, rng):
        p = random_subspace(12, 3, rng)
        g = gfk_transform(p, p)
        assert np.abs(g.g - 2.0 * projector(p)).max() < 1e-12

    def test_plane_matches_quadrature(self):
        g = gfk_transform(line(0.0), line(0.5))
        q = quadrature_transform(line(0.0), line(0.5), 513)
        assert np.abs(g.g - q.g).max() < 1e-8

    def test_random_pairs_match_quadrature(self, rng):
        for _ in range(10):
            p1 = random_subspace(15, 3, rng)
            p2 = random_subspace(15, 3, rng)
            g = gfk_transform(p1, p2)
            q = quadrature_transform(p1, p2, 513)
            assert np.abs(g.g - q.g).max() < 1e-8

    def test_spectrum_bounded(self, rng):
        p1 = random_subspace(24, 4, rng)
        p2 = random_subspace(24, 4, rng)
        eigenvalues = np.linalg.eigvalsh(gfk_transform(p1, p2).g)
        assert eigenvalues.min() > -1e-8
        assert eigenvalues.max() < 2.0 + 1e-8

    def test_symmetry(self, rng):
        p1 = random_subspace(15, 3, rng)
        p2 = random_subspace(15, 3, rng)
        g = gfk_transform(p1, p2).g
        assert np.abs(g - g.T).max() < 1e-9

    def test_angle_permutation_invariance(self, rng):
        # Permuting the principal-angle order together with the matched
        # direction columns leaves the assembled matrix unchanged.
        from driftalign.transforms import _sandwich

        p1 = random_subspace(15, 3, rng)
        p2 = random_subspace(15, 3, rng)
        pd = principal_decomposition(p1, p2)
        u3, theta, h = pd.u1, pd.theta, pd.h
        perm = [2, 0, 1]
        direct = _sandwich(pd, lambda_blocks(theta))
        shuffled = _sandwich(
            replace(
                pd, u1=u3[:, perm], theta=theta[perm], h=h[:, perm],
                pu1=p1.basis @ u3[:, perm],
            ),
            lambda_blocks(theta[perm]),
        )
        assert np.abs(direct.g - shuffled.g).max() < 1e-9

    def test_cut_locus_rejected(self):
        import driftalign as da

        e1 = da.Subspace(np.array([[1.0], [0.0]]))
        e2 = da.Subspace(np.array([[0.0], [1.0]]))
        with pytest.raises(CutLocusError):
            gfk_transform(e1, e2)


class TestQuadratureTransform:
    def test_constant_integrand(self, rng):
        p = random_subspace(12, 3, rng)
        for nodes in (3, 33):
            q = quadrature_transform(p, p, nodes)
            assert np.abs(q.g - 2.0 * projector(p)).max() < 1e-12

    def test_simpson_convergence_order(self):
        p1, p2 = line(0.0), line(0.8)
        exact = gfk_transform(p1, p2).g
        coarse = np.abs(quadrature_transform(p1, p2, 3).g - exact).max()
        fine = np.abs(quadrature_transform(p1, p2, 513).g - exact).max()
        assert coarse / max(fine, 1e-300) >= 1e4

    def test_oracle_equivalence_small_pair(self, rng):
        p1 = random_subspace(8, 2, rng)
        p2 = random_subspace(8, 2, rng)
        assert np.abs(
            quadrature_transform(p1, p2, 513).g - gfk_transform(p1, p2).g
        ).max() <= 1e-8

    @pytest.mark.parametrize("nodes", [1, 2, 4])
    def test_bad_node_counts(self, nodes, rng):
        p = random_subspace(8, 2, rng)
        with pytest.raises(ValueError, match="odd node count"):
            quadrature_transform(p, p, nodes)


class TestDeltaBlocks:
    def test_zero_angles(self):
        d1, d2, d3 = delta_blocks(np.zeros(2), np.zeros(2))
        assert np.allclose(d1, 2.0) and np.allclose(d2, 0.0) and np.allclose(d3, 0.0)

    def test_constant_path_reduces_to_small_angle_lambdas(self):
        theta = np.array([0.15])
        d1, d2, d3 = delta_blocks(theta, theta)
        assert abs(d1[0] - (2 - (2 / 3) * theta[0] ** 2)) < 1e-12
        assert abs(d2[0] - (-theta[0])) < 1e-12
        assert abs(d3[0] - (2 / 3) * theta[0] ** 2) < 1e-12

    def test_two_level_quadrature_oracle(self):
        theta0, theta1 = 0.1, 0.2
        d1, d2, d3 = delta_blocks(np.array([theta0]), np.array([theta1]))

        def path(beta):
            return theta0 + (theta1 - theta0) * beta

        small = [
            lambda b: 2.0 - (2.0 / 3.0) * path(b) ** 2,
            lambda b: -path(b),
            lambda b: (2.0 / 3.0) * path(b) ** 2,
        ]
        exact = [
            lambda b: 1.0 + np.sin(2 * path(b)) / (2 * path(b)),
            lambda b: (np.cos(2 * path(b)) - 1.0) / (2 * path(b)),
            lambda b: 1.0 - np.sin(2 * path(b)) / (2 * path(b)),
        ]
        for value, f_small, f_exact in zip((d1[0], d2[0], d3[0]), small, exact):
            assert abs(value - scalar_simpson(f_small, 65)) < 1e-10
            q = scalar_simpson(f_exact, 65)
            assert abs(value - q) <= 0.02 * abs(q)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            delta_blocks(np.zeros(2), np.zeros(3))

    def test_out_of_range(self):
        with pytest.raises(AngleOutOfRange):
            delta_blocks(np.array([1.6]), np.array([0.1]))


class TestCumulativeTransform:
    def test_all_equal_double_projector(self, rng):
        p = random_subspace(12, 3, rng)
        g = cumulative_transform(p, p, gfk_transform(p, p))
        assert np.abs(g.g - 2.0 * projector(p)).max() < 1e-12

    def test_degenerate_sweep_matches_small_angle_gfk(self, rng):
        ps = random_subspace(12, 3, rng)
        pm = perturbed(ps, 0.18, rng)
        cumulative = cumulative_transform(ps, pm, gfk_transform(ps, pm))
        plain = gfk_transform(ps, pm)
        rel = np.linalg.norm(cumulative.g - plain.g) / np.linalg.norm(plain.g)
        assert rel < 0.02

    def test_double_quadrature_oracles(self, rng):
        from driftalign.transforms import _sandwich

        ps = random_subspace(12, 3, rng)
        pm_prev = perturbed(ps, 0.15, rng)
        pm_cur = perturbed(pm_prev, 0.05, rng)
        closed = cumulative_transform(ps, pm_cur, gfk_transform(ps, pm_prev))

        theta0 = principal_angles(ps, pm_prev)
        end = principal_decomposition(ps, pm_cur)
        theta1 = end.theta
        nodes = 65
        betas = np.linspace(0.0, 1.0, nodes)
        weights = simpson_weights(nodes)

        def sweep(lambda_of_theta):
            total = np.zeros((12, 12))
            for w, beta in zip(weights, betas):
                th = theta0 + (theta1 - theta0) * beta
                total += w * _sandwich(end, lambda_of_theta(th)).g
            return total

        small = sweep(
            lambda th: (2 - (2 / 3) * th**2, -th, (2 / 3) * th**2)
        )
        assert np.abs(closed.g - small).max() < 1e-8

        exact = sweep(
            lambda th: (
                1 + np.sin(2 * th) / (2 * th),
                (np.cos(2 * th) - 1) / (2 * th),
                1 - np.sin(2 * th) / (2 * th),
            )
        )
        rel = np.linalg.norm(closed.g - exact) / np.linalg.norm(exact)
        assert rel < 0.02

    def test_symmetry_and_small_angle_spectrum(self, rng):
        ps = random_subspace(12, 3, rng)
        pm_prev = perturbed(ps, 0.15, rng)
        pm_cur = perturbed(pm_prev, 0.05, rng)
        g = cumulative_transform(ps, pm_cur, gfk_transform(ps, pm_prev)).g
        assert np.abs(g - g.T).max() < 1e-9
        eigenvalues = np.linalg.eigvalsh(g)
        assert eigenvalues.min() > -1e-8
        assert eigenvalues.max() < 2.0 + 1e-8

    def test_previous_without_factors_rejected(self, rng):
        ps = random_subspace(12, 3, rng)
        pm = perturbed(ps, 0.1, rng)
        with pytest.raises(ValueError, match="carries no decomposition"):
            cumulative_transform(ps, pm, TransformMatrix.identity(12))

    def test_previous_of_another_dimension_rejected(self, rng):
        ps = random_subspace(12, 3, rng)
        pm = perturbed(ps, 0.1, rng)
        wider = random_subspace(12, 4, rng)
        previous = gfk_transform(wider, perturbed(wider, 0.1, rng))
        with pytest.raises(ValueError, match="from 4 angles, expected k=3"):
            cumulative_transform(ps, pm, previous)

    def test_direction_mismatch_warned(self, rng, caplog):
        import logging

        ps = random_subspace(12, 3, rng)
        pm_prev = random_subspace(12, 3, rng)
        pm_cur = random_subspace(12, 3, rng)
        with caplog.at_level(logging.WARNING, logger="driftalign.transforms"):
            cumulative_transform(ps, pm_cur, gfk_transform(ps, pm_prev))
        assert any("pairing" in record.message for record in caplog.records)


class TestApplyTransform:
    def test_identity(self, rng):
        x = rng.standard_normal((7, 6))
        assert np.array_equal(apply_transform(x, TransformMatrix.identity(6)), x)

    def test_diagonal_doubling(self):
        x = np.array([[1.0, -2.0, 3.0]])
        g = TransformMatrix(2.0 * np.eye(3))
        assert np.allclose(apply_transform(x, g), 2.0 * x)

    def test_transpose_identity(self, rng):
        x = rng.standard_normal((5, 6))
        m = rng.standard_normal((6, 6))
        g = TransformMatrix(m + m.T)
        assert np.abs(apply_transform(x, g).T - g.g.T @ x.T).max() < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            apply_transform(rng.standard_normal((3, 5)), TransformMatrix.identity(6))

    def test_zero_row_stays_zero(self, rng):
        x = rng.standard_normal((3, 6))
        x[1] = 0.0
        m = rng.standard_normal((6, 6))
        assert np.abs(apply_transform(x, TransformMatrix(m + m.T))[1]).max() == 0.0

    def test_composition_associativity(self, rng):
        x = rng.standard_normal((5, 6))
        m1 = rng.standard_normal((6, 6))
        m2 = rng.standard_normal((6, 6))
        g1, g2 = TransformMatrix(m1 + m1.T), TransformMatrix(m2 + m2.T)
        stepwise = apply_transform(apply_transform(x, g1), g2)
        direct = x @ (g1.g @ g2.g)
        assert np.abs(stepwise - direct).max() < 1e-10


class TestTransformMatrix:
    def test_rejects_asymmetric(self, rng):
        m = rng.standard_normal((4, 4))
        m[0, 1] += 1.0
        with pytest.raises(ValueError):
            TransformMatrix(m)

    def test_stores_exactly_symmetrized(self, rng):
        m = rng.standard_normal((4, 4))
        g = TransformMatrix(m + m.T + 1e-12 * rng.standard_normal((4, 4)))
        assert np.array_equal(g.g, g.g.T)

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_sandwich_core_is_the_block_diagonal_build(self, rng, k):
        # The strided writes put each block's diagonal where np.block does,
        # and the closed form's own factors are frozen, not shared.
        from driftalign.transforms import _sandwich

        p1, p2 = random_subspace(4 * k, k, rng), random_subspace(4 * k, k, rng)
        pd = principal_decomposition(p1, p2)
        b1, b2, b3 = blocks = lambda_blocks(pd.theta)
        transform = _sandwich(pd, blocks)
        expected = np.block([[np.diag(b1), np.diag(b2)], [np.diag(b2), np.diag(b3)]])
        assert np.array_equal(transform.core, expected)
        assert np.array_equal(transform.left, np.hstack([pd.pu1, pd.h]))
        assert transform.decomposition is pd
        for array in (transform.core, transform.left):
            assert not array.flags.writeable
            assert not np.shares_memory(array, pd.pu1)
            assert not np.shares_memory(array, pd.h)

    def test_sandwich_keeps_the_constructor_checks(self, rng):
        from driftalign.transforms import _sandwich

        p1, p2 = random_subspace(12, 3, rng), random_subspace(12, 3, rng)
        pd = principal_decomposition(p1, p2)
        b1, b2, b3 = lambda_blocks(pd.theta)
        with pytest.raises(ValueError, match="non-finite"):
            _sandwich(pd, (b1, b2, np.full(3, np.inf)))
        with pytest.raises(ValueError, match="non-finite"):
            _sandwich(replace(pd, h=np.full_like(pd.h, np.nan)), (b1, b2, b3))


def dense_closed_form(ps, u3, h, blocks):
    """The d x d build L @ C @ L.T the factored form replaces."""
    b1, b2, b3 = blocks
    left = np.hstack([ps.basis @ u3, h])
    core = np.block([[np.diag(b1), np.diag(b2)], [np.diag(b2), np.diag(b3)]])
    return left @ core @ left.T


@pytest.mark.parametrize("d, k", [(30, 5), (512, 100)])
class TestFactoredForm:
    def test_gfk_matches_dense_build(self, rng, d, k):
        ps = random_subspace(d, k, rng)
        pt = perturbed(ps, 0.15 * np.sqrt(k), rng)
        transform = gfk_transform(ps, pt)
        assert transform.left.shape == (d, 2 * k)
        assert transform.core.shape == (2 * k, 2 * k)
        pd = principal_decomposition(ps, pt)
        dense = dense_closed_form(ps, pd.u1, pd.h, lambda_blocks(pd.theta))
        x = rng.standard_normal((7, d))
        assert np.abs(apply_transform(x, transform) - x @ dense).max() < 1e-10
        assert np.abs(transform.g - dense).max() < 1e-10
        theta = transform.decomposition.theta
        assert np.abs(theta - principal_angles(ps, pt)).max() < 1e-12

    def test_cumulative_matches_dense_build(self, rng, d, k):
        ps = random_subspace(d, k, rng)
        prev = perturbed(ps, 0.1 * np.sqrt(k), rng)
        cur = perturbed(prev, 0.02 * np.sqrt(k), rng)
        transform = cumulative_transform(ps, cur, gfk_transform(ps, prev))
        end = principal_decomposition(ps, cur)
        blocks = delta_blocks(principal_angles(ps, prev), end.theta)
        dense = dense_closed_form(ps, end.u1, end.h, blocks)
        x = rng.standard_normal((7, d))
        assert np.abs(apply_transform(x, transform) - x @ dense).max() < 1e-10
        assert np.abs(transform.g - dense).max() < 1e-10
        theta = transform.decomposition.theta
        assert np.abs(theta - principal_angles(ps, cur)).max() < 1e-12


class TestFactoredTransformMatrix:
    def test_dense_built_once_on_request(self, rng):
        ps = random_subspace(12, 3, rng)
        transform = gfk_transform(ps, perturbed(ps, 0.2, rng))
        assert "g" not in vars(transform)
        g = transform.g
        assert transform.g is g
        assert np.array_equal(g, g.T) and not g.flags.writeable
        assert transform.dim == 12

    def test_dense_forms_carry_no_factors(self):
        identity = TransformMatrix.identity(4)
        assert identity.left is None and identity.g is identity.core
        assert identity.decomposition is None
        assert identity.dim == 4

    def test_rejects_bad_factors(self, rng):
        left = rng.standard_normal((8, 4))
        core = np.diag([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValueError, match="not symmetric"):
            TransformMatrix(core + np.triu(np.ones((4, 4)), 1), left)
        with pytest.raises(ValueError, match="non-finite"):
            TransformMatrix(core, np.where(left > 1.0, np.nan, left))
        with pytest.raises(ValueError, match="do not chain"):
            TransformMatrix(core[:3, :3], left)
        with pytest.raises(ValueError, match="must be square"):
            TransformMatrix(core[:3], left)

    def test_immutable(self, rng):
        transform = TransformMatrix.identity(3)
        with pytest.raises(AttributeError):
            transform.left = np.eye(3)
        ps = random_subspace(12, 3, rng)
        factored = gfk_transform(ps, perturbed(ps, 0.2, rng))
        u1 = factored.decomposition.u1
        assert u1.shape == (3, 3) and not u1.flags.writeable
        with pytest.raises(ValueError):
            u1[0, 0] = 2.0
        with pytest.raises(AttributeError):
            factored.decomposition = None
