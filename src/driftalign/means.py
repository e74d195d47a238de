"""Mean-subspace computation: the incremental update, the iterative Karcher
reference, the matrix-averaging baseline, and stationarity diagnostics.

The incremental rule replaces the iterative Karcher computation in the
streaming setting: absorbing the n-th subspace moves the running mean a
fraction 1/n of the way along the geodesic toward it, the manifold analogue
of the running average of n points in Euclidean space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence
from .grassmann import (
    PrincipalDecomposition,
    Subspace,
    exp_map,
    geodesic,
    geodesic_point,
    log_map,
)
from .transforms import TransformMatrix


@dataclass(frozen=True, eq=False)
class MeanState:
    """Running mean over the subspaces absorbed so far.

    ``count`` is the number of subspaces absorbed. ``flow`` is the geodesic
    of the most recent :func:`icms_update`, the read-only decomposition of
    (previous mean, observed subspace): it passes through ``mean`` at
    t = 1/count, so evaluating it at t = 2/count continues the last step by
    one more equal arc. It is None until the second subspace, and for means
    that do not come from ``icms_update``. ``step`` is the geodesic
    distance from the previous mean to ``mean`` (0 until the second
    subspace).
    """

    mean: Subspace
    flow: PrincipalDecomposition | None
    count: int
    step: float = 0.0


def init_mean(p_first: Subspace) -> MeanState:
    """Start the running mean at the first observed subspace."""
    return MeanState(mean=p_first, flow=None, count=1)


def icms_update(state: MeanState, p_new: Subspace) -> MeanState:
    """Absorb one more subspace into the running mean.

    With n = state.count + 1, the new mean is the point at t = 1/n on the
    geodesic from the current mean (t=0) to ``p_new`` (t=1), which splits
    the arc in the ratio 1 : (n-1). The result basis is re-orthonormalized
    so that arbitrarily long streams cannot accumulate drift. The step
    length is read off the same principal angles: ||theta|| / n.

    Raises:
        CutLocusError: if the new subspace is at the cut locus of the mean.
        DimensionMismatch: on incompatible shapes.
    """
    n = state.count + 1
    flow = geodesic(state.mean, p_new, "icms_update")
    return MeanState(
        mean=geodesic_point(flow, 1.0 / n),
        flow=flow,
        count=n,
        step=float(np.linalg.norm(flow.theta)) / n,
    )


@dataclass(frozen=True, eq=False)
class KarcherResult:
    """Outcome of the iterative Karcher computation."""

    subspace: Subspace
    iterations: int
    residual: float


def karcher_mean(
    subspaces: list[Subspace] | tuple[Subspace, ...],
    tol: float = 1e-6,
    max_iter: int = 100,
) -> KarcherResult:
    """Iterative Karcher mean via the standard tangent-space gradient step.

    Starting from the first subspace, repeat

        mu <- exp_mu( (1/m) * sum_i log_mu(P_i) )

    with unit step size until the Frobenius norm of the tangent average
    drops below ``tol`` or ``max_iter`` steps were taken.

    Raises:
        NoConvergence: if the budget is exhausted and the residual is
            still above 10 * tol.
        CutLocusError: if some subspace reaches the cut locus of an iterate.
        ValueError: on an empty input or a negative ``max_iter``.
    """
    if len(subspaces) == 0:
        raise ValueError("karcher_mean needs at least one subspace")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    m = len(subspaces)
    mu = subspaces[0]
    for iteration in range(max_iter + 1):
        average = sum(log_map(mu, p) for p in subspaces) / m
        residual = float(np.linalg.norm(average))
        if residual < tol or iteration == max_iter:
            break
        mu = exp_map(mu, average)
    if residual > 10.0 * tol:
        raise NoConvergence(
            f"Karcher iteration hit max_iter={max_iter} with residual "
            f"{residual:.3e} > 10*tol"
        )
    return KarcherResult(subspace=mu, iterations=iteration, residual=residual)


def incremental_average_transform(
    g_prev_avg: TransformMatrix | None, g_new: TransformMatrix, n: int
) -> TransformMatrix:
    """Running arithmetic average of alignment matrices, the flat baseline.

    Returns (1 - 1/n) * prev_average + (1/n) * g_new; with n = 1 the new
    matrix is returned exactly and the previous average may be None.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return g_new
    if g_prev_avg is None:
        raise ValueError("previous average required when n > 1")
    if g_prev_avg.g.shape != g_new.g.shape:
        raise DimensionMismatch(
            f"transform shapes differ: {g_prev_avg.g.shape} vs {g_new.g.shape}"
        )
    return TransformMatrix((1.0 - 1.0 / n) * g_prev_avg.g + (1.0 / n) * g_new.g)


def perturbed_subspace(
    base: Subspace, magnitude: float, rng: np.random.Generator
) -> Subspace:
    """A subspace at the given geodesic distance from ``base``, direction random.

    The synthetic stream generator jitters its frames with it.
    """
    if magnitude == 0.0:
        return base
    z = rng.standard_normal(base.basis.shape)
    tangent = z - base.basis @ (base.basis.T @ z)
    norm = np.linalg.norm(tangent)
    if norm == 0.0:
        return base
    # Singular values of the tangent are the step angles; scaling the
    # Frobenius norm scales the geodesic distance exactly.
    return exp_map(base, tangent * (magnitude / norm))
