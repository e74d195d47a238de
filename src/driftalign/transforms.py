"""Domain-alignment transformation matrices built from geodesic flows.

The plain alignment matrix integrates projections onto every intermediate
subspace along the source-to-target geodesic and has the closed form

    G = [P U1, R U2k] [[L1, L2], [L2, L3]] [U1^T P^T; U2k^T R^T]

with diagonal blocks

    lambda1 = 1 + sin(2 theta) / (2 theta)
    lambda2 = (cos(2 theta) - 1) / (2 theta)
    lambda3 = 1 - sin(2 theta) / (2 theta)

which equals twice the integral of Phi(t) Phi(t)^T over t in [0, 1]; the
quadrature oracle below therefore integrates 2 * Phi Phi^T so the two
routes agree. The global positive scale is immaterial to nearest-class-mean
decisions once source and target are transformed consistently.

The cumulative variant additionally integrates over the family of geodesics
swept while the mean-target subspace moves between two consecutive states,
assuming the principal angles change linearly along the sweep. Its delta
blocks are the exact integrals of the second-order small-angle expansions
of the lambda blocks, so the closed form is a small-angle approximation:
accurate to O(theta^2) relative error and indefinite for large angles.

Both closed forms are kept factored, G = L C L^T with L = [P U3, H]
(d x 2k) and the symmetric block-diagonal core C (2k x 2k), and applied as
((x L) C) L^T in O(n d k) instead of O(n d^2). The dense d x d matrix is
built only when asked for. The identity, the Simpson oracle and the
running average of matrices have no such factors and are stored dense.
"""

from __future__ import annotations

import logging

import numpy as np

from .errors import (
    AngleOutOfRange,
    BadNodeCount,
    CutLocusError,
    DimensionMismatch,
    LengthMismatch,
)
from .grassmann import (
    CUT_LOCUS_TOL,
    Subspace,
    _flow_basis,
    _thin_components,
    geodesic,
)

logger = logging.getLogger(__name__)

# Below this angle the direct lambda formulas lose ~8 digits to
# cancellation; switch to the Taylor limits.
SMALL_ANGLE = 1e-4

# Principal-direction rotation between consecutive decompositions above
# which the printed cumulative pairing is a questionable approximation.
DIRECTION_MISMATCH_LIMIT = 0.3


class TransformMatrix:
    """A d x d symmetric alignment matrix G applied to feature rows as x @ G.

    How the transform was made picks its form. The closed forms
    (:func:`gfk_transform`, :func:`cumulative_transform`) come from
    :meth:`factored` and keep G = left @ core @ left.T, with ``left`` d x 2k
    and ``core`` 2k x 2k symmetric, plus the principal angles ``theta`` of
    the source-to-target pair they were built from. Constructing from a
    d x d array (the identity, the Simpson oracle, the running average of
    matrices) keeps that array; ``left``, ``core`` and ``theta`` are then
    None. ``g`` is the dense matrix in either form, built from the factors
    on first access and cached.
    """

    __slots__ = ("left", "core", "theta", "_g")

    def __init__(self, g: np.ndarray):
        g = np.array(g, dtype=float, copy=True, order="C")
        if g.ndim != 2 or g.shape[0] != g.shape[1]:
            raise ValueError(f"transform must be square, got shape {g.shape}")
        if not np.isfinite(g).all():
            raise ValueError("transform contains non-finite entries")
        if np.abs(g - g.T).max() > 1e-9:
            raise ValueError("transform is not symmetric within 1e-9")
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        self._set(left=None, core=None, theta=None, _g=g)

    @classmethod
    def factored(
        cls, left: np.ndarray, core: np.ndarray, theta: np.ndarray | None = None
    ) -> "TransformMatrix":
        """The transform left @ core @ left.T, kept as its factors."""
        left = np.array(left, dtype=float, copy=True, order="C")
        core = np.array(core, dtype=float, copy=True, order="C")
        if left.ndim != 2 or core.shape != (left.shape[1], left.shape[1]):
            raise ValueError(
                f"factor shapes {left.shape} and {core.shape} do not chain"
            )
        if not (np.isfinite(left).all() and np.isfinite(core).all()):
            raise ValueError("transform factors contain non-finite entries")
        if np.abs(core - core.T).max() > 1e-9:
            raise ValueError("transform core is not symmetric within 1e-9")
        core = 0.5 * (core + core.T)
        if theta is not None:
            theta = np.array(theta, dtype=float)
        for array in (left, core, theta):
            if array is not None:
                array.setflags(write=False)
        transform = cls.__new__(cls)
        transform._set(left=left, core=core, theta=theta, _g=None)
        return transform

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"TransformMatrix is immutable; cannot set {name!r}")

    @property
    def g(self) -> np.ndarray:
        if self._g is None:
            g = self.left @ self.core @ self.left.T
            g = 0.5 * (g + g.T)
            g.setflags(write=False)
            self._set(_g=g)
        return self._g

    @property
    def dim(self) -> int:
        return (self._g if self.left is None else self.left).shape[0]

    @classmethod
    def identity(cls, d: int) -> "TransformMatrix":
        return cls(np.eye(d))


def _validate_angles(theta: np.ndarray, name: str = "theta") -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.ndim != 1:
        raise ValueError(f"{name} must be a vector")
    if (theta < 0.0).any() or (theta >= np.pi / 2).any():
        raise AngleOutOfRange(f"{name} entries must lie in [0, pi/2)")
    return theta


def lambda_blocks(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal blocks (lambda1, lambda2, lambda3) of the closed form.

    Angles below 1e-4 rad use the Taylor limits
    (2 - (2/3) theta^2, -theta, (2/3) theta^2).
    """
    theta = _validate_angles(theta)
    small = theta < SMALL_ANGLE
    safe = np.where(small, 1.0, 2.0 * theta)
    ratio = np.sin(2.0 * theta) / safe
    l1 = np.where(small, 2.0 - (2.0 / 3.0) * theta**2, 1.0 + ratio)
    l2 = np.where(small, -theta, (np.cos(2.0 * theta) - 1.0) / safe)
    l3 = np.where(small, (2.0 / 3.0) * theta**2, 1.0 - ratio)
    return l1, l2, l3


def delta_blocks(
    theta0: np.ndarray, theta1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonal blocks (delta1, delta2, delta3) of the cumulative closed form.

    These are the exact integrals over the sweep parameter of the
    small-angle lambda blocks along the linear angle path
    theta(beta) = theta0 + (theta1 - theta0) * beta:

        delta1 = 2 - (2/9) (theta1^2 + theta1 theta0 + theta0^2)
        delta2 = -(theta1 + theta0) / 2
        delta3 = (2/9) (theta1^2 + theta1 theta0 + theta0^2)
    """
    theta0 = _validate_angles(theta0, "theta0")
    theta1 = _validate_angles(theta1, "theta1")
    if theta0.shape != theta1.shape:
        raise LengthMismatch(
            f"angle vectors have different lengths: {theta0.size} vs {theta1.size}"
        )
    quad = theta1**2 + theta1 * theta0 + theta0**2
    d1 = 2.0 - (2.0 / 9.0) * quad
    d2 = -0.5 * (theta1 + theta0)
    d3 = (2.0 / 9.0) * quad
    return d1, d2, d3


def _sandwich(
    p_source: Subspace,
    u3: np.ndarray,
    h: np.ndarray,
    blocks: tuple[np.ndarray, np.ndarray, np.ndarray],
    theta: np.ndarray | None = None,
) -> TransformMatrix:
    """The factored transform [P U3, H] diag-block core [.]^T.

    H carries the ambient sine directions R U4[:, :k]; the trailing
    d - 2k columns of the full U4 never contribute because the core
    blocks are zero outside the leading k x k diagonals.
    """
    b1, b2, b3 = blocks
    left = np.hstack([p_source.basis @ u3, h])
    core = np.block(
        [[np.diag(b1), np.diag(b2)], [np.diag(b2), np.diag(b3)]]
    )
    return TransformMatrix.factored(left, core, theta)


def _check_below_cut_locus(theta: np.ndarray, what: str) -> None:
    if theta.size and theta[-1] >= np.pi / 2 - CUT_LOCUS_TOL:
        raise CutLocusError(
            f"{what}: principal angle {theta[-1]:.6f} at the cut locus"
        )


def gfk_transform(p_source: Subspace, p_target: Subspace) -> TransformMatrix:
    """Closed-form alignment matrix for the source-to-target geodesic."""
    u3, _, theta, h = _thin_components(p_source, p_target)
    _check_below_cut_locus(theta, "gfk_transform")
    return _sandwich(p_source, u3, h, lambda_blocks(theta), theta)


def quadrature_transform(
    p_source: Subspace, p_target: Subspace, nodes: int
) -> TransformMatrix:
    """Composite-Simpson approximation of 2 * integral of Phi(t) Phi(t)^T.

    Independent numerical route for :func:`gfk_transform`; converges to the
    closed form as the node count grows.

    Raises:
        BadNodeCount: unless ``nodes`` is odd and at least 3.
    """
    if nodes < 3 or nodes % 2 == 0:
        raise BadNodeCount(f"Simpson rule needs an odd node count >= 3, got {nodes}")
    flow = geodesic(p_source, p_target)
    ts = np.linspace(0.0, 1.0, nodes)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (ts[1] - ts[0]) / 3.0
    d = p_source.ambient_dim
    g = np.zeros((d, d))
    for w, t in zip(weights, ts):
        phi = _flow_basis(flow, t)
        g += (2.0 * w) * (phi @ phi.T)
    return TransformMatrix(0.5 * (g + g.T))


def cumulative_transform(
    p_source: Subspace, p_mean_prev: Subspace, p_mean_cur: Subspace
) -> TransformMatrix:
    """Alignment matrix integrated over the sweep between consecutive means.

    The angle path start theta(0) comes from (source, previous mean) and the
    end theta(1), along with the U3/U4 directions, from (source, current
    mean); the two angle vectors are paired by sort order as printed. When
    the principal directions of the two decompositions differ by more than
    0.3 rad this pairing is a rough approximation and a warning is logged.
    """
    u3_prev, _, theta0, _ = _thin_components(p_source, p_mean_prev)
    _check_below_cut_locus(theta0, "cumulative_transform (source vs previous mean)")
    # Only the largest (prev, cur) angle matters here, and the cosine route
    # is exact near pi/2.
    cos_step = np.linalg.svd(
        p_mean_prev.basis.T @ p_mean_cur.basis, compute_uv=False
    )
    _check_below_cut_locus(
        np.arccos(np.clip(cos_step, 0.0, 1.0)),
        "cumulative_transform (previous vs current mean)",
    )
    u3, _, theta1, h = _thin_components(p_source, p_mean_cur)
    _check_below_cut_locus(theta1, "cumulative_transform (source vs current mean)")

    # Per-column mismatch between the paired principal directions, sign
    # ambiguity removed; columns of both factors are angle-sorted.
    matched = np.abs(np.einsum("ij,ij->j", u3_prev, u3))
    rotation = np.arccos(np.clip(matched, 0.0, 1.0))
    if rotation.max() > DIRECTION_MISMATCH_LIMIT:
        logger.warning(
            "cumulative_transform: principal directions of the consecutive "
            "decompositions differ by %.3f rad (> %.1f); the printed angle "
            "pairing is a rough approximation here",
            float(rotation.max()),
            DIRECTION_MISMATCH_LIMIT,
        )

    return _sandwich(p_source, u3, h, delta_blocks(theta0, theta1), theta1)


def apply_transform(x: np.ndarray, transform: TransformMatrix) -> np.ndarray:
    """Apply the alignment matrix to a batch of feature rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != transform.dim:
        raise DimensionMismatch(
            f"batch of shape {x.shape} cannot be multiplied by a "
            f"{transform.dim} x {transform.dim} transform"
        )
    if transform.left is None:
        return x @ transform.g
    return ((x @ transform.left) @ transform.core) @ transform.left.T
