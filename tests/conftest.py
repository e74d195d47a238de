import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import driftalign
from driftalign import Subspace, TransformMatrix, exp_map, log_map, orthonormalize

# The package's own generator, under the name the test files import.
from driftalign import perturbed_subspace as perturbed


def random_subspace(d, k, rng):
    """Uniformly random point on G(k, d) (QR of a Gaussian matrix)."""
    return orthonormalize(rng.standard_normal((d, k)))


def projector(s):
    """The d x d orthogonal projector onto the subspace (basis-free)."""
    return s.basis @ s.basis.T


def principal_angles(p1, p2):
    """Principal angles in [0, pi/2], nondecreasing.

    Independent of the thin decomposition that ``geodesic_distance`` and
    every geodesic read: small angles come from the sine route (singular
    values of the projection residual) and large ones from the cosine
    route, so the result is accurate across the whole range.
    """
    m = p1.basis.T @ p2.basis
    cos_sv = np.clip(np.linalg.svd(m, compute_uv=False), 0.0, 1.0)
    residual = p2.basis - p1.basis @ m
    sin_sv = np.clip(np.linalg.svd(residual, compute_uv=False), 0.0, 1.0)
    # cos descending and sin ascending both order theta ascending.
    return np.arctan2(sin_sv[::-1], cos_sv)


def karcher_residual(mean, subspaces):
    """Norm of the Karcher first-order condition ||sum_i log_mean(P_i)||_F.

    Zero means ``mean`` is exactly stationary for the sum of squared
    geodesic distances.
    """
    total = sum(log_map(mean, p) for p in subspaces)
    return float(np.linalg.norm(total))


def line(angle):
    """The 1-D subspace of R^2 at the given angle from e1."""
    return Subspace(np.array([[np.cos(angle)], [np.sin(angle)]]))


def line_angle(s):
    """Angle in [0, pi) of a 1-D subspace of R^2."""
    x, y = s.basis[:, 0]
    return float(np.arctan2(y, x)) % np.pi


def textbook_log(base, x):
    """Log map by the textbook route, independent of the thin decomposition.

    With w = (I - P P^T) Q (P^T Q)^-1 = U diag(tan theta) V^T (thin SVD),
    the tangent is U diag(arctan tan theta) V^T (Absil, Mahony & Sepulchre,
    2008). Inverting P^T Q loses digits near the cut locus, so it is a
    reference only for pairs well inside it.
    """
    m = base.basis.T @ x.basis
    w = (x.basis - base.basis @ m) @ np.linalg.inv(m)
    u, tan, vt = np.linalg.svd(w, full_matrices=False)
    return (u * np.arctan(tan)) @ vt


def quadrature_transform(p_source, p_target, nodes):
    """Composite-Simpson approximation of 2 * integral of Phi(t) Phi(t)^T.

    Independent numerical route for ``gfk_transform``: the flow points come
    from exp_map(P_s, t textbook_log(P_s, P_t)), not from the principal
    decomposition the closed form uses. Converges to the closed form as the
    node count grows. Raises ValueError unless ``nodes`` is odd and >= 3.
    """
    if nodes < 3 or nodes % 2 == 0:
        raise ValueError(f"Simpson rule needs an odd node count >= 3, got {nodes}")
    velocity = textbook_log(p_source, p_target)
    ts = np.linspace(0.0, 1.0, nodes)
    weights = np.ones(nodes)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights *= (ts[1] - ts[0]) / 3.0
    d = p_source.ambient_dim
    g = np.zeros((d, d))
    for w, t in zip(weights, ts):
        g += (2.0 * w) * projector(exp_map(p_source, t * velocity))
    return TransformMatrix(0.5 * (g + g.T))


def error_in_child(code):
    """Run ``code`` in a fresh interpreter; return the error it raised.

    For inputs on which a LAPACK call may never return: a regression then
    fails on a 60 s deadline instead of stalling the suite. The child runs
    ``code`` and prints the type and message of any exception.
    """
    wrapped = "try:\n" + textwrap.indent(textwrap.dedent(code), "    ") + (
        "\nexcept Exception as err:\n"
        "    print(type(err).__name__ + ': ' + str(err))\n"
    )
    src = str(Path(driftalign.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", wrapped], capture_output=True, text=True,
        timeout=60, env=env,
    )
    return done.stdout.strip()


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
