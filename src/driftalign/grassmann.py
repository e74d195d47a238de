"""Grassmann manifold primitives: subspaces, principal angles, geodesics.

A point on G(k, d) is a k-dimensional linear subspace of R^d, stored as any
d x k matrix with orthonormal columns. Bases are never canonical: two
Subspace values describe the same point exactly when their projectors
``basis @ basis.T`` agree, so every comparison in this module goes through
principal angles rather than through the basis entries.

The geodesic between two subspaces rotates each principal direction at
constant angular speed. It is parameterized by the thin decomposition

    P1^T P2 = U1 diag(cos theta) V^T
    (I - P1 P1^T) P2 = -H diag(sin theta) V^T

with k x k orthogonal U1 and V, and H (d x k) with orthonormal columns
orthogonal to P1. The shared right factor V pins the curve

    Psi(t) = P1 U1 cos(t theta) - H sin(t theta)

to pass through the second subspace at t = 1. Its initial velocity,
written for the basis P1 rather than P1 U1, is the log map

    Delta = Psi'(0) U1^T = -H diag(theta) U1^T.

The decomposition carries the start directions P1 U1 beside (U1, theta,
H): the flow and the closed-form transforms' left factor [P1 U1, H] (Gong
et al., CVPR 2012) read them instead of forming the product again. H is
built from them too: with sigma = cos theta the singular values of P1^T P2,
P2 V = P1 U1 diag(sigma) + (I - P1 P1^T) P2 V, so

    H diag(sin theta) = P1 U1 diag(sigma) - P2 V.

Everything costs O(d k^2); no d x d completion of P1 is ever formed
(Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl. 1998).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    CutLocusError,
    DimensionMismatch,
    NotTangentError,
    RankDeficient,
)

# Column orthonormality required of every stored basis.
ORTHONORMALITY_TOL = 1e-10
# Angles within this of pi/2 sit on the cut locus; geodesics through them
# are not unique and the operations that need one refuse to continue.
CUT_LOCUS_TOL = 1e-8
# Sine values at most this are treated as exact zeros: the matching columns
# of H are left zero, which is exact wherever H is weighted by sin(t theta).
_DEGENERATE_SIN = 1e-8


@dataclass(frozen=True, eq=False)
class Subspace:
    """A point on G(k, d): a d x k matrix with orthonormal columns.

    The basis is one representative of an equivalence class; use
    :func:`geodesic_distance` (zero iff equal) to compare points, never
    the raw entries.
    """

    basis: np.ndarray

    def __post_init__(self):
        basis = _frozen_basis(np.array(self.basis, dtype=float, order="C"))
        if not np.isfinite(basis).all():
            raise ValueError("basis contains non-finite entries")
        gram = basis.T @ basis
        if np.abs(gram - np.eye(basis.shape[1])).max() > ORTHONORMALITY_TOL:
            raise ValueError("basis columns are not orthonormal within 1e-10")
        object.__setattr__(self, "basis", basis)

    @classmethod
    def _orthonormal(cls, basis: np.ndarray) -> "Subspace":
        """Wrap a basis built here whose columns were found orthonormal.

        Only the shape is checked. A C-contiguous float array is frozen in
        place, not copied, so it must be one that no caller holds; any
        other layout is copied first, as the constructor copies.
        """
        subspace = object.__new__(cls)
        basis = _frozen_basis(np.ascontiguousarray(basis, dtype=float))
        object.__setattr__(subspace, "basis", basis)
        return subspace

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def sub_dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class PrincipalDecomposition:
    """Paired rotations and principal angles relating two subspaces.

    ``theta`` is nondecreasing in [0, pi/2], except among angles below
    about 1e-8: their cosines round to 1, so they are resolved only jointly
    (their norm is exact). ``u1`` and ``v`` (k x k) are orthogonal and
    ``h`` (d x k) satisfies the identities in the module notes. Its columns
    are orthonormal and orthogonal to the start basis, except that a column
    whose sin(theta) is at most 1e-8 is zero. ``pu1`` (d x k) is the
    product P1 U1 of the start basis and ``u1``, the principal directions
    in the start subspace, from which ``h`` was built (module notes).
    It is also the geodesic from the start to the end subspace, as
    :func:`geodesic` returns it checked. Its arrays are read-only.
    """

    u1: np.ndarray
    v: np.ndarray
    theta: np.ndarray
    h: np.ndarray
    pu1: np.ndarray


def _frozen_basis(basis: np.ndarray) -> np.ndarray:
    """The d x k basis, 1 <= k <= d/2, marked read-only in place."""
    if basis.ndim != 2:
        raise ValueError(f"basis must be 2-D, got shape {basis.shape}")
    d, k = basis.shape
    if k < 1:
        raise ValueError("subspace dimension must be at least 1")
    if 2 * k > d:
        raise ValueError(
            f"subspace dimension k={k} must satisfy k <= d/2 for d={d}"
        )
    basis.setflags(write=False)
    return basis


def _check_same_manifold(p1: Subspace, p2: Subspace) -> None:
    if (p1.ambient_dim, p1.sub_dim) != (p2.ambient_dim, p2.sub_dim):
        raise DimensionMismatch(
            f"subspaces live on different manifolds: "
            f"G({p1.sub_dim},{p1.ambient_dim}) vs G({p2.sub_dim},{p2.ambient_dim})"
        )


def orthonormalize(m: np.ndarray) -> Subspace:
    """Return the subspace spanned by the columns of a full-rank matrix.

    The caller's matrix is copied, never kept.

    Raises:
        RankDeficient: if the smallest singular value is below
            1e-10 times the largest.
        ValueError: if the matrix has a non-finite entry.
    """
    return _orthonormalize(np.array(m, dtype=float))


def _orthonormalize(m: np.ndarray) -> Subspace:
    """:func:`orthonormalize` of a float matrix built here, kept if orthonormal."""
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {m.shape}")
    k = m.shape[1]
    gram = m.T @ m
    gram.flat[:: k + 1] -= 1.0  # gram - I
    if np.abs(gram).max() <= 1e-12:
        # Already orthonormal, so finite (a NaN or inf fails the comparison)
        # and within the constructor's 1e-10: keep the basis bit for bit
        # without forming its Gram matrix again.
        return Subspace._orthonormal(m)
    if not np.isfinite(m).all():
        # LAPACK's SVD can spin forever on an inf entry.
        raise ValueError("matrix contains non-finite entries")
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    if s[0] == 0.0 or s[-1] <= 1e-10 * s[0]:
        raise RankDeficient(
            f"matrix has numerical rank < {k} (singular values {s.min():.3e}"
            f" .. {s.max():.3e})"
        )
    return Subspace(u[:, :k])


def principal_decomposition(p1: Subspace, p2: Subspace) -> PrincipalDecomposition:
    """Rotations and principal angles relating p1 to p2 (see module notes).

    h is computed as (P1 U1 diag(sigma) - P2 V) / sin(theta) in O(d k^2),
    with sigma the singular values of P1^T P2 before clipping to [0, 1].
    Degenerate directions (sin at most 1e-8) get zero columns; every
    consumer weights column i by a factor that vanishes with
    sin(theta_i), so the zeros are exact there.
    """
    _check_same_manifold(p1, p2)
    u1, sigma, vt = np.linalg.svd(p1.basis.T @ p2.basis)  # theta ascending
    v = vt.T
    pu1 = p1.basis @ u1
    c = pu1 * sigma - p2.basis @ v     # columns: h_i * sin(theta_i)
    sin_sv = np.sqrt((c * c).sum(axis=0))  # column norms
    # arctan2 stays fully accurate at both ends of [0, pi/2], where either
    # arccos or arcsin alone would lose half the digits. Singular values
    # are nonnegative, so clipping them to [0, 1] only caps them at 1.
    theta = np.arctan2(sin_sv, np.minimum(sigma, 1.0))
    # A degenerate column is divided by inf, which leaves it exactly zero.
    h = c / np.where(sin_sv > _DEGENERATE_SIN, sin_sv, np.inf)
    for array in (u1, v, theta, h, pu1):
        array.setflags(write=False)
    return PrincipalDecomposition(u1=u1, v=v, theta=theta, h=h, pu1=pu1)


def geodesic_distance(p1: Subspace, p2: Subspace) -> float:
    """Arc length ||theta||_2 in radians, read off principal_decomposition."""
    return float(np.linalg.norm(principal_decomposition(p1, p2).theta))


def geodesic(
    p1: Subspace, p2: Subspace, stage: str = "geodesic"
) -> PrincipalDecomposition:
    """The geodesic from p1 (t=0) to p2 (t=1), refused at the cut locus.

    The geodesic is the pair's decomposition. Every stage that follows a
    geodesic or reads the decomposition gets it here, so this is the one
    place that refuses the cut locus.
    ``stage`` only names the caller in the error; it changes nothing else.

    Raises:
        CutLocusError: naming ``stage``, if any principal angle is within
            1e-8 of pi/2, where the connecting geodesic stops being unique.
    """
    pd = principal_decomposition(p1, p2)
    largest = pd.theta[-1]
    if largest >= np.pi / 2 - CUT_LOCUS_TOL:
        raise CutLocusError(
            f"{stage}: principal angle {largest:.6f} is at the cut locus (pi/2)"
        )
    return pd


def geodesic_point(pd: PrincipalDecomposition, t: float) -> Subspace:
    """Evaluate the geodesic at t; t outside [0, 1] extrapolates the curve."""
    if not np.isfinite(t):
        raise ValueError("geodesic parameter t must be finite")
    angles = float(t) * pd.theta
    point = pd.pu1 * np.cos(angles) - pd.h * np.sin(angles)
    return _orthonormalize(point)


def log_map(base: Subspace, x: Subspace) -> np.ndarray:
    """Tangent matrix at ``base`` pointing to ``x``: -H diag(theta) U1^T.

    The result delta is d x k with base^T delta = 0 and singular values
    equal to the principal angles; :func:`exp_map` inverts it. It is read
    off the thin decomposition, so it stays accurate up to the cut locus.
    Directions whose sin(theta) is below 1e-8 have zero columns of H, so
    angles below 1e-8 are dropped, an error of at most 1e-8 each.

    Raises:
        CutLocusError: if any principal angle is within 1e-8 of pi/2.
    """
    pd = geodesic(base, x, "log_map")
    return -(pd.h * pd.theta) @ pd.u1.T


def exp_map(base: Subspace, delta: np.ndarray) -> Subspace:
    """Follow the geodesic leaving ``base`` with tangent ``delta`` for unit time.

    Raises:
        NotTangentError: if base^T delta is not zero within 1e-8.
        ValueError: if delta has a non-finite entry.
    """
    delta = np.asarray(delta, dtype=float)
    if delta.shape != base.basis.shape:
        raise DimensionMismatch(
            f"tangent shape {delta.shape} does not match basis shape "
            f"{base.basis.shape}"
        )
    if not np.isfinite(delta).all():
        # The tangency check below is False for NaN, and eigh fails on it.
        raise ValueError("tangent contains non-finite values")
    overlap = np.linalg.norm(base.basis.T @ delta)
    if overlap > 1e-8:
        raise NotTangentError(
            f"base^T delta has norm {overlap:.3e}; not a tangent vector"
        )
    # With delta = U diag(s) V^T, the geodesic endpoint
    # (base V cos(s) + U sin(s)) V^T becomes
    # base V cos(s) V^T + delta V (sin(s)/s) V^T, needing only the k x k
    # eigendecomposition of delta^T delta; sin(s)/s -> 1 handles s = 0.
    gram = delta.T @ delta
    evals, v = np.linalg.eigh(gram)
    s = np.sqrt(np.clip(evals, 0.0, None))
    sinc = np.where(s > 1e-12, np.sin(s) / np.where(s > 1e-12, s, 1.0), 1.0)
    point = base.basis @ (v * np.cos(s)) @ v.T + delta @ (v * sinc) @ v.T
    return _orthonormalize(point)
