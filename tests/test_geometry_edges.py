"""Edge cases of the one geodesic path: property tests on analytic pairs (the
decomposition, the flow, the exp/log round trip, the incremental mean and
the closed-form transform) and the stage named by every cut-locus refusal.

The pairs are built from their principal angles, P1 = A and
P2 = A cos(theta) + B sin(theta) with [A B] orthonormal, then rotated within
each subspace, so the expected angles are known exactly. The log map is
read off the same thin decomposition as the flow, so the exp/log round trip
holds to the same bounds up to pi/2 - 1e-7.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftalign import (
    CutLocusError,
    MeanState,
    Subspace,
    apply_transform,
    compensate,
    cumulative_transform,
    exp_map,
    geodesic,
    geodesic_distance,
    geodesic_point,
    gfk_transform,
    icms_update,
    init_mean,
    log_map,
    predict_next,
    principal_angles,
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
@given(analytic_pairs())
def test_exp_of_log_returns_to_the_second_point(pair):
    p1, p2, theta = pair
    assert geodesic_distance(exp_map(p1, log_map(p1, p2)), p2) < _tol(theta)


@edge_settings
@given(analytic_pairs(), st.floats(min_value=0.0, max_value=1.0))
def test_distance_along_flow_is_t_times_arc_length(pair, t):
    p1, p2, theta = pair
    point = geodesic_point(geodesic(p1, p2), t)
    arc = t * np.linalg.norm(theta)
    assert abs(geodesic_distance(p1, point) - arc) < _tol(theta)


@edge_settings
@given(analytic_pairs(), st.sampled_from((2, 5, 50)))
def test_icms_update_splits_the_arc_one_to_n_minus_one(pair, n):
    p1, p2, theta = pair
    arc = np.linalg.norm(theta)
    new = icms_update(MeanState(mean=p1, flow=None, count=n - 1), p2).mean
    assert abs(geodesic_distance(p1, new) - arc / n) < _tol(theta)
    assert abs(geodesic_distance(new, p2) - (n - 1) * arc / n) < _tol(theta)
    # The bound a carried cumulative_transform start relies on: the mean
    # moves by at most theta_max / n <= pi/4, far from the cut locus.
    step = principal_angles(p1, new)[-1]
    assert abs(step - theta[-1] / n) < _tol(theta)
    assert step <= np.pi / 4


@edge_settings
@given(analytic_pairs())
def test_gfk_dense_form_is_symmetric_and_equals_the_factored_apply(pair):
    p1, p2, theta = pair
    transform = gfk_transform(p1, p2)
    g = transform.g
    assert np.abs(g - g.T).max() < _tol(theta)
    identity = np.eye(p1.ambient_dim)
    assert np.abs(apply_transform(identity, transform) - g).max() < _tol(theta)


@pytest.mark.parametrize(
    "stage, call",
    [
        ("icms_update", lambda a, b: icms_update(init_mean(a), b)),
        ("predict_next", predict_next),
        ("compensate", lambda a, b: compensate(b, a, 0.5)),
        ("gfk_transform", gfk_transform),
        ("log_map", log_map),
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
