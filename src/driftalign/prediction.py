"""Next-subspace prediction by geodesic extrapolation, and compensation of a
noisy observed subspace against the prediction.

The mean-target subspace is assumed to move along a continuous curve; its
last step from the previous to the current mean defines a velocity, and
continuing the geodesic for one more equal arc (t = 2 on the flow fit
through t = 0 and t = 1) predicts where the subspace goes next. A noisy
observation is then pulled toward the prediction by blending along the
geodesic between them.

The pipeline does not call :func:`predict_next`. The incremental mean
already lies at t = 1/n on the flow its update followed from the previous
mean (``MeanState.flow``), so the pipeline evaluates that flow at t = 2/n,
the same curve one equal arc on, without decomposing the pair again.
Every step angle there is below pi/4, so the clamp cannot fire.
:func:`predict_next` is for direct callers with an arbitrary pair.

The prediction extrapolates the running mean, not the observations, so it
trades per-batch noise for mean lag under sustained drift. On noisy
drifting streams such as the one in acceptance criterion 7, the prediction
lies a little ahead of the mean along the drift and the compensated
subspace lies closer to the true one than the raw observation does, but
the mean that absorbs it trails the drift further than the plain
incremental mean. The paper's abstract says the prediction serves the
recursive-feedback stage; it leaves open whether the paper applies the
prediction inside that stage instead of on the mean update, as done here.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np

from .errors import AngleClampWarning, BlendOutOfRange
from .grassmann import (
    GeodesicFlow,
    Subspace,
    _check_cut_locus,
    geodesic_point,
    principal_decomposition,
)

# Per-direction extrapolation step cap: doubling an angle above pi/4 would
# shoot past the cut locus, so noisy streams are clamped here.
MAX_STEP_ANGLE = np.pi / 4


def predict_next(p_mean_prev: Subspace, p_mean_cur: Subspace) -> Subspace:
    """Continue the prev -> cur geodesic by one more equal arc.

    Equivalent to evaluating the fitted geodesic at t = 2, i.e. to
    exp_map(prev, 2 * log_map(prev, cur)): the velocity of the step is
    log_map(prev, cur). Step angles above pi/4 are clamped there before
    doubling (with an :class:`AngleClampWarning`) so that extrapolation
    cannot overshoot the cut locus on noisy streams.
    """
    decomposition = principal_decomposition(p_mean_prev, p_mean_cur)
    theta = decomposition.theta
    _check_cut_locus(theta, "predict_next")
    if theta[-1] > MAX_STEP_ANGLE:
        warnings.warn(
            f"extrapolation step angle {theta[-1]:.4f} exceeds pi/4; clamping",
            AngleClampWarning,
            stacklevel=2,
        )
        decomposition = replace(decomposition, theta=np.minimum(theta, MAX_STEP_ANGLE))
    return geodesic_point(GeodesicFlow(p_mean_prev, decomposition), 2.0)


def compensate(
    p_predicted: Subspace, p_observed: Subspace, blend: float
) -> Subspace:
    """Blend the observation toward the prediction along their geodesic.

    blend = 0 returns the observation untouched, blend = 1 the prediction;
    intermediate values move the observation a proportional fraction of the
    geodesic arc.
    """
    if not 0.0 <= blend <= 1.0:
        raise BlendOutOfRange(f"blend must be in [0, 1], got {blend}")
    decomposition = principal_decomposition(p_observed, p_predicted)
    _check_cut_locus(decomposition.theta, "compensate")
    return geodesic_point(GeodesicFlow(p_observed, decomposition), blend)
