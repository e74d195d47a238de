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
assuming the principal angles change linearly along the sweep. It extends
the transform built for the previous mean, reading its angles and
directions instead of decomposing that pair again. Its delta blocks are the
exact integrals of the second-order small-angle expansions of the lambda
blocks, so the closed form is a small-angle approximation, accurate to
O(theta^2) relative error. A 2 x 2 block of a constant-angle sweep
(theta0 = theta1 = theta) has determinant theta^2/3 - 4 theta^4/9, negative
above theta = sqrt(3)/2 ~ 0.866 rad: there the core, and so G, is
indefinite and no longer a kernel.

Every transform is one :class:`TransformMatrix`, G = L C L^T. Both closed
forms keep it factored, with L = [P U3, H] (d x 2k, read off the
source-to-target decomposition, which the transform carries) and the
symmetric block-diagonal core C (2k x 2k), and are applied as ((x L) C) L^T in
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
from .grassmann import PrincipalDecomposition, Subspace, geodesic

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
    also carry the read-only source-to-target ``decomposition`` they were
    built from, whose angles and directions the next
    :func:`cumulative_transform` reads as the start of its sweep (its
    ``previous``), so that pair is not decomposed twice. With ``left`` None
    (the identity, the running average of matrices) ``core`` is G itself,
    and ``decomposition`` is None. ``g`` is the dense matrix in either
    form, built from the factors on first access and cached. ``core`` and
    ``left`` are read-only: the constructor copies the caller's arrays,
    and the closed forms' own factors are frozen in place.
    """

    core: np.ndarray
    left: np.ndarray | None = None
    decomposition: PrincipalDecomposition | None = None

    def __post_init__(self):
        core = np.ascontiguousarray(self.core, dtype=float)
        left = self.left
        if left is not None:
            left = np.array(left, dtype=float, order="C")
        _check_factors(core, left)
        # The symmetrized core is a new array, so the caller's is not kept.
        self._store(0.5 * (core + core.T), left, self.decomposition)

    @classmethod
    def _factored(
        cls, core: np.ndarray, left: np.ndarray, decomposition: PrincipalDecomposition
    ) -> "TransformMatrix":
        """Wrap factors built here, with an exactly symmetric core.

        The constructor's checks run; the two C-contiguous float arrays
        are frozen in place, not copied, so no caller may hold them.
        """
        _check_factors(core, left)
        transform = object.__new__(cls)
        transform._store(core, left, decomposition)
        return transform

    def _store(self, core, left, decomposition) -> None:
        for array in (core, left):
            if array is not None:
                array.setflags(write=False)
        object.__setattr__(self, "core", core)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "decomposition", decomposition)

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


def _check_factors(core: np.ndarray, left: np.ndarray | None) -> None:
    """Refuse factors that do not make a finite symmetric d x d matrix."""
    if core.ndim != 2 or core.shape[0] != core.shape[1]:
        raise ValueError(f"transform core must be square, got shape {core.shape}")
    if left is not None and (left.ndim != 2 or left.shape[1] != core.shape[0]):
        raise ValueError(f"factor shapes {left.shape} and {core.shape} do not chain")
    if not all(np.isfinite(a).all() for a in (core, left) if a is not None):
        raise ValueError("transform contains non-finite entries")
    if np.abs(core - core.T).max() > 1e-9:
        raise ValueError("transform core is not symmetric within 1e-9")


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
    double = 2.0 * theta
    safe = np.where(small, 1.0, double)
    ratio = np.sin(double) / safe
    l1 = 1.0 + ratio
    l2 = (np.cos(double) - 1.0) / safe
    l3 = 1.0 - ratio
    if small.any():
        tiny = theta[small]
        l1[small] = 2.0 - (2.0 / 3.0) * tiny**2
        l2[small] = -tiny
        l3[small] = (2.0 / 3.0) * tiny**2
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
    pd: PrincipalDecomposition, blocks: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> TransformMatrix:
    """The factored transform [P U3, H] diag-block core [.]^T, carrying ``pd``.

    P U3 and H are the ``pu1`` and ``h`` of ``pd``, the source-to-target
    decomposition.
    """
    b1, b2, b3 = blocks
    k = pd.h.shape[1]
    left = np.hstack([pd.pu1, pd.h])
    core = np.zeros((2 * k, 2 * k))
    # The three block diagonals, as strided slices of the flat core: entry
    # (r, c) sits at 2k r + c, so each diagonal steps by 2k + 1.
    flat, step, half = core.reshape(-1), 2 * k + 1, 2 * k * k
    flat[:half:step] = b1              # (i, i)
    flat[k:half:step] = b2             # (i, i + k)
    flat[half::step] = b2              # (i + k, i)
    flat[half + k :: step] = b3        # (i + k, i + k)
    return TransformMatrix._factored(core, left, pd)


def gfk_transform(p_source: Subspace, p_target: Subspace) -> TransformMatrix:
    """Closed-form alignment matrix for the source-to-target geodesic."""
    pd = geodesic(p_source, p_target, "gfk_transform")
    return _sandwich(pd, lambda_blocks(pd.theta))


def cumulative_transform(
    p_source: Subspace, p_mean_cur: Subspace, previous: TransformMatrix
) -> TransformMatrix:
    """Alignment matrix integrated over the sweep between consecutive means.

    ``previous`` is the closed-form transform for (source, previous mean):
    :func:`gfk_transform` for the first sweep, this function after that.
    The angle path start theta(0) and its directions are read from its
    ``decomposition``, whose angles were checked when it was built. The
    end theta(1), along with the U3 and H directions, comes from (source,
    current mean); the two angle vectors are paired by sort order as
    printed. When the principal directions of the two decompositions differ
    by more than 0.3 rad this pairing is a rough approximation and a
    warning is logged.

    No (previous, current mean) geodesic is evaluated, so the step between
    the two means is the caller's to keep small. The pipeline's is at most
    pi/4: :func:`~driftalign.means.icms_update` refuses an observed subspace
    whose largest angle to the previous mean reaches pi/2 - 1e-8 and puts
    the new mean at t = 1/n, n >= 2, on that geodesic.

    Raises:
        CutLocusError: if (source, current mean) is at the cut locus.
        ValueError: if ``previous`` carries no decomposition or was built
            for another subspace dimension.
    """
    start = previous.decomposition
    if start is None:
        raise ValueError("previous transform carries no decomposition")
    if start.theta.shape != (p_source.sub_dim,):
        raise ValueError(
            f"previous transform starts from {start.theta.size} angles, "
            f"expected k={p_source.sub_dim}"
        )
    end = geodesic(
        p_source, p_mean_cur, "cumulative_transform (source vs current mean)"
    )

    # Per-column mismatch between the paired principal directions, sign
    # ambiguity removed; columns of both factors are angle-sorted.
    matched = np.abs(np.einsum("ij,ij->j", start.u1, end.u1))
    rotation = np.arccos(np.clip(matched, 0.0, 1.0))
    if rotation.max() > DIRECTION_MISMATCH_LIMIT:
        logger.warning(
            "cumulative_transform: principal directions of the consecutive "
            "decompositions differ by %.3f rad (> %.1f); the printed angle "
            "pairing is a rough approximation here",
            float(rotation.max()),
            DIRECTION_MISMATCH_LIMIT,
        )

    return _sandwich(end, delta_blocks(start.theta, end.theta))


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
