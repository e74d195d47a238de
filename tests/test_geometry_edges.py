"""Edge cases of the one geodesic path: property tests on analytic pairs and
the stage named by every cut-locus refusal.

The pairs are built from their principal angles, P1 = A and
P2 = A cos(theta) + B sin(theta) with [A B] orthonormal, then rotated within
each subspace, so the expected angles are known exactly. Near the cut locus
the exp/log route loses digits (endpoint errors up to about 5e-3 at
pi/2 - 1e-7 on G(4, 20)), so it is not used as the reference here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftalign import (
    CutLocusError,
    Subspace,
    compensate,
    cumulative_transform,
    geodesic,
    geodesic_distance,
    geodesic_point,
    gfk_transform,
    icms_update,
    init_mean,
    predict_next,
    principal_decomposition,
)

from conftest import line

# Largest principal angle of a drawn pair: near zero, generic, and just
# inside the cut locus.
LARGEST_ANGLES = (1e-9, 0.7, np.pi / 2 - 1e-7)
TOL = 1e-8  # directions with sin(theta) < 1e-8 are zeroed by design
SHARP = 1e-12  # the error bound once every angle is above that


def _tol(theta):
    return TOL if theta[-1] < TOL else SHARP


def _rotation(k, rng):
    q, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return q


@st.composite
def analytic_pairs(draw):
    """(p1, p2, theta) on G(k, d) with k = 1 or k = d/2 and known angles."""
    d = draw(st.integers(min_value=2, max_value=24))
    k = draw(st.sampled_from(sorted({1, d // 2})))
    largest = draw(st.sampled_from(LARGEST_ANGLES))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((d, 2 * k)))
    a, b = q[:, :k], q[:, k:]
    theta = np.sort(rng.uniform(0.0, largest, k))
    theta[-1] = largest
    p1 = Subspace(a @ _rotation(k, rng))
    p2 = Subspace((a * np.cos(theta) + b * np.sin(theta)) @ _rotation(k, rng))
    return p1, p2, theta


edge_settings = settings(max_examples=120, deadline=None, derandomize=True)


@edge_settings
@given(analytic_pairs())
def test_decomposition_identities(pair):
    p1, p2, theta = pair
    pd = principal_decomposition(p1, p2)
    # Angles whose cosines round to 1 are resolved only jointly.
    assert abs(np.linalg.norm(pd.theta) - np.linalg.norm(theta)) < SHARP
    assert np.abs(pd.theta - theta).max() < _tol(theta)
    cos_part = pd.u1 @ np.diag(np.cos(pd.theta)) @ pd.v.T
    sin_part = -pd.h @ np.diag(np.sin(pd.theta)) @ pd.v.T
    overlap = p1.basis.T @ p2.basis
    assert np.abs(overlap - cos_part).max() < SHARP
    assert np.abs(p2.basis - p1.basis @ overlap - sin_part).max() < _tol(theta)


@edge_settings
@given(analytic_pairs())
def test_endpoints(pair):
    p1, p2, theta = pair
    flow = geodesic(p1, p2)
    assert geodesic_distance(geodesic_point(flow, 0.0), p1) < SHARP
    assert geodesic_distance(geodesic_point(flow, 1.0), p2) < _tol(theta)


@edge_settings
@given(analytic_pairs(), st.floats(min_value=0.0, max_value=1.0))
def test_distance_along_flow_is_t_times_arc_length(pair, t):
    p1, p2, theta = pair
    point = geodesic_point(geodesic(p1, p2), t)
    arc = t * np.linalg.norm(theta)
    assert abs(geodesic_distance(p1, point) - arc) < _tol(theta)


@pytest.mark.parametrize(
    "stage, call",
    [
        ("icms_update", lambda a, b: icms_update(init_mean(a), b)),
        ("predict_next", predict_next),
        ("compensate", lambda a, b: compensate(b, a, 0.5)),
        ("gfk_transform", gfk_transform),
        (
            r"cumulative_transform \(source vs previous mean\)",
            lambda a, b: cumulative_transform(a, b, b),
        ),
        (
            r"cumulative_transform \(previous vs current mean\)",
            lambda a, b: cumulative_transform(a, line(np.pi / 4), line(3 * np.pi / 4)),
        ),
        (
            r"cumulative_transform \(source vs current mean\)",
            lambda a, b: cumulative_transform(a, line(0.1), b),
        ),
    ],
)
def test_cut_locus_error_names_its_stage(stage, call):
    # line(pi/2) is orthogonal to line(0): a principal angle of pi/2.
    with pytest.raises(CutLocusError, match=stage):
        call(line(0.0), line(np.pi / 2))
