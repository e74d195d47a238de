"""Domain-alignment transformation matrices built from geodesic flows.

The plain alignment matrix integrates projections onto every intermediate
subspace along the source-to-target geodesic and has the closed form

    G = [P U1, H] [[L1, L2], [L2, L3]] [U1^T P^T; H^T]

with diagonal blocks

    lambda1 = 1 + sin(2 theta) / (2 theta)
    lambda2 = (cos(2 theta) - 1) / (2 theta)
    lambda3 = 1 - sin(2 theta) / (2 theta)

which equals twice the integral of Phi(t) Phi(t)^T over t in [0, 1]. The
global positive scale is immaterial to nearest-class-mean decisions once
source and target are transformed consistently.

The cumulative variant additionally integrates over the family of geodesics
swept while the mean-target subspace moves between two consecutive states,
assuming the principal angles change linearly along the sweep. Its delta
blocks are the exact integrals of the second-order small-angle expansions
of the lambda blocks, so the closed form is a small-angle approximation:
accurate to O(theta^2) relative error and indefinite for large angles.

Every transform is one :class:`TransformMatrix`, G = L C L^T. Both closed
forms keep it factored, with L = [P U3, H] (d x 2k) and the symmetric
block-diagonal core C (2k x 2k), and are applied as ((x L) C) L^T in
O(n d k) instead of O(n d^2); the dense d x d matrix is built only when
asked for. The identity and the running average of matrices have no such
factors: their L is None and C is the dense G.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AngleOutOfRange, DimensionMismatch, LengthMismatch
from .grassmann import Subspace, _check_cut_locus, principal_decomposition

logger = logging.getLogger(__name__)

# Below this angle the direct lambda formulas lose ~8 digits to
# cancellation; switch to the Taylor limits.
SMALL_ANGLE = 1e-4

# Principal-direction rotation between consecutive decompositions above
# which the printed cumulative pairing is a questionable approximation.
DIRECTION_MISMATCH_LIMIT = 0.3


@dataclass(frozen=True, eq=False)
class TransformMatrix:
    """A d x d symmetric alignment matrix G = left @ core @ left.T.

    G is applied to feature rows as x @ G. The closed forms
    (:func:`gfk_transform`, :func:`cumulative_transform`) keep G factored:
    ``left`` is d x 2k and ``core`` the 2k x 2k symmetric block core. They
    also carry the principal angles ``theta`` and the k x k rotation ``u1``
    of the source-to-target decomposition they were built from, which the
    next :func:`cumulative_transform` reads as the start of its sweep (its
    ``previous``), so that pair is not decomposed twice. With ``left`` None
    (the identity, the running average of matrices) ``core`` is G itself,
    and ``theta`` and ``u1`` are None. ``g`` is the dense matrix in either
    form, built from the factors on first access and cached. Every stored
    array is a read-only copy.
    """

    core: np.ndarray
    left: np.ndarray | None = None
    theta: np.ndarray | None = None
    u1: np.ndarray | None = None

    def __post_init__(self):
        core = np.array(self.core, dtype=float, copy=True, order="C")
        if core.ndim != 2 or core.shape[0] != core.shape[1]:
            raise ValueError(f"transform core must be square, got shape {core.shape}")
        left = self.left
        if left is not None:
            left = np.array(left, dtype=float, copy=True, order="C")
            if left.ndim != 2 or left.shape[1] != core.shape[0]:
                raise ValueError(
                    f"factor shapes {left.shape} and {core.shape} do not chain"
                )
        if not all(np.isfinite(a).all() for a in (core, left) if a is not None):
            raise ValueError("transform contains non-finite entries")
        if np.abs(core - core.T).max() > 1e-9:
            raise ValueError("transform core is not symmetric within 1e-9")
        core = 0.5 * (core + core.T)
        theta = None if self.theta is None else np.array(self.theta, dtype=float)
        u1 = None if self.u1 is None else np.array(self.u1, dtype=float)
        for name, array in {"core": core, "left": left, "theta": theta, "u1": u1}.items():
            if array is not None:
                array.setflags(write=False)
            object.__setattr__(self, name, array)

    @cached_property
    def g(self) -> np.ndarray:
        if self.left is None:
            return self.core
        g = self.left @ self.core @ self.left.T
        g = 0.5 * (g + g.T)
        g.setflags(write=False)
        return g

    @property
    def dim(self) -> int:
        return (self.core if self.left is None else self.left).shape[0]

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

    U3 and H are the ``u1`` and ``h`` of the source-to-target
    :class:`~driftalign.grassmann.PrincipalDecomposition`.
    """
    b1, b2, b3 = blocks
    left = np.hstack([p_source.basis @ u3, h])
    core = np.block(
        [[np.diag(b1), np.diag(b2)], [np.diag(b2), np.diag(b3)]]
    )
    return TransformMatrix(core, left, theta, u3)


def gfk_transform(p_source: Subspace, p_target: Subspace) -> TransformMatrix:
    """Closed-form alignment matrix for the source-to-target geodesic."""
    decomposition = principal_decomposition(p_source, p_target)
    theta = decomposition.theta
    _check_cut_locus(theta, "gfk_transform")
    return _sandwich(
        p_source, decomposition.u1, decomposition.h, lambda_blocks(theta), theta
    )


def cumulative_transform(
    p_source: Subspace,
    p_mean_prev: Subspace,
    p_mean_cur: Subspace,
    *,
    previous: TransformMatrix | None = None,
) -> TransformMatrix:
    """Alignment matrix integrated over the sweep between consecutive means.

    The angle path start theta(0) comes from (source, previous mean) and the
    end theta(1), along with the U3 and H directions, from (source, current
    mean); the two angle vectors are paired by sort order as printed. When
    the principal directions of the two decompositions differ by more than
    0.3 rad this pairing is a rough approximation and a warning is logged.

    ``previous``, when given, is the closed-form transform already built
    for (``p_source``, ``p_mean_prev``): theta(0) and the start directions
    are read from its ``theta`` and ``u1``, whose angles were checked when
    it was built, instead of decomposing that pair again. The (previous,
    current mean) cut-locus check is then the caller's. The pipeline can
    skip it: :func:`~driftalign.means.icms_update` refuses an observed
    subspace whose largest angle to the previous mean reaches
    pi/2 - 1e-8 and puts the new mean at t = 1/n, n >= 2, on that geodesic,
    so the largest (previous, current) angle is at most pi/4. Without
    ``previous`` all three pairs are checked, each under its stage name.

    Raises:
        CutLocusError: if a checked pair is at the cut locus.
        ValueError: if ``previous`` has no (theta, u1) factors or was built
            for another subspace dimension.
    """
    if previous is None:
        start = principal_decomposition(p_source, p_mean_prev)
        theta0, u1_start = start.theta, start.u1
        _check_cut_locus(theta0, "cumulative_transform (source vs previous mean)")
        # Only the largest (prev, cur) angle matters here, and the cosine
        # route is exact near pi/2.
        cos_step = np.linalg.svd(
            p_mean_prev.basis.T @ p_mean_cur.basis, compute_uv=False
        )
        _check_cut_locus(
            np.arccos(np.clip(cos_step, 0.0, 1.0)),
            "cumulative_transform (previous vs current mean)",
        )
    else:
        theta0, u1_start = previous.theta, previous.u1
        if theta0 is None or u1_start is None:
            raise ValueError("previous transform carries no (theta, u1) factors")
        if theta0.shape != (p_source.sub_dim,):
            raise ValueError(
                f"previous transform starts from {theta0.size} angles, "
                f"expected k={p_source.sub_dim}"
            )
    end = principal_decomposition(p_source, p_mean_cur)
    theta1 = end.theta
    _check_cut_locus(theta1, "cumulative_transform (source vs current mean)")

    # Per-column mismatch between the paired principal directions, sign
    # ambiguity removed; columns of both factors are angle-sorted.
    matched = np.abs(np.einsum("ij,ij->j", u1_start, end.u1))
    rotation = np.arccos(np.clip(matched, 0.0, 1.0))
    if rotation.max() > DIRECTION_MISMATCH_LIMIT:
        logger.warning(
            "cumulative_transform: principal directions of the consecutive "
            "decompositions differ by %.3f rad (> %.1f); the printed angle "
            "pairing is a rough approximation here",
            float(rotation.max()),
            DIRECTION_MISMATCH_LIMIT,
        )

    return _sandwich(p_source, end.u1, end.h, delta_blocks(theta0, theta1), theta1)


def apply_transform(x: np.ndarray, transform: TransformMatrix) -> np.ndarray:
    """Apply the alignment matrix to a batch of feature rows."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != transform.dim:
        raise DimensionMismatch(
            f"batch of shape {x.shape} cannot be multiplied by a "
            f"{transform.dim} x {transform.dim} transform"
        )
    if transform.left is None:
        return x @ transform.core
    return ((x @ transform.left) @ transform.core) @ transform.left.T
