"""Skip transparency: a batch the loop refuses leaves no trace.

A bad batch is inserted at a random position (at least 2) of criterion 7's
noisy-rotation stream, d=30, k=5, 20-row batches, cut to 32 batches, for
every stepping variant, frozen and adaptive. A variant that refuses it
returns (None, None, state) with the very state it was given, and every
later record equals the clean run's.

- A constant batch has a centered scatter of rank 0, so every stepping
  variant refuses it.
- A batch of rows off span(P_s, M), M the mean at that point, lies at the
  cut locus of the mean: icms, icms-cumul and avg refuse it there. The
  fed-back transform maps such rows into that span, leaving rounding noise,
  so the three feedback variants refuse it as annihilated. icms-pred and
  karcher absorb it by construction (compensation moves the subspace off
  the cut locus first, and karcher's iterate is not the previous mean), so
  nothing is asserted about them.
"""

import logging
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from driftalign import (
    DriftParams,
    PipelineConfig,
    StreamBatch,
    generate_drift_stream,
    init_pipeline,
    process_batch,
)
from driftalign.pipeline import VARIANTS

N_BATCHES = 32
STEPPING = sorted(name for name, stages in VARIANTS.items() if stages.step)
FEEDBACK = [name for name in STEPPING if VARIANTS[name].feedback]


def _constant(state, rng):
    return np.tile(rng.normal(0.0, 8.0, size=30), (20, 1))


def _off_span(state, rng):
    span, _ = np.linalg.qr(
        np.hstack([state.source_subspace.basis, state.mean_state.mean.basis])
    )
    rows = rng.normal(0.0, 8.0, size=(20, 30))
    return rows - (rows @ span) @ span.T


# Each kind of bad batch, and the reason each variant that refuses it logs.
BAD_BATCHES = {
    "constant": (_constant, {name: "rank deficient" for name in STEPPING}),
    "off-span": (_off_span, {
        **{name: "cut locus" for name in ("icms", "icms-cumul", "avg")},
        **{name: "rounding noise" for name in FEEDBACK},
    }),
}


def _key(record):
    """A record without its wall-clock time."""
    return (record.index, record.accuracy, record.dist_source_mean,
            record.dist_mean_step)


@lru_cache(maxsize=None)
def _clean_run(variant, adaptive):
    """The config, the state before each batch and each batch's record key."""
    stream = generate_drift_stream(
        DriftParams(
            seed=0, feature_dim=30, n_classes=2, n_batches=N_BATCHES,
            batch_size=20, drift_kind="noisy-rotation", drift_rate=0.01,
            noise=0.1, class_sep=30.0, n_source=400,
        )
    )
    cfg = PipelineConfig(
        subspace_dim=5, batch_size=20, variant=variant,
        adaptive_classifier=adaptive,
    )
    state = init_pipeline(stream.source_x, stream.source_y, cfg)
    states, records = [], []
    for batch in stream.batches:
        states.append(state)
        y_hat, _, state = process_batch(state, batch, cfg)
        assert y_hat is not None
        records.append(_key(state.record))
    return stream, cfg, states, records


@pytest.mark.parametrize("kind", sorted(BAD_BATCHES))
@pytest.mark.parametrize("adaptive", [False, True], ids=["frozen", "adaptive"])
@pytest.mark.parametrize("variant", STEPPING)
@settings(
    max_examples=4, deadline=None, derandomize=True,
    # caplog is cleared before each example.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(position=st.integers(2, N_BATCHES - 1), seed=st.integers(0, 2**32 - 1))
def test_a_refused_batch_leaves_no_trace(
    variant, adaptive, kind, position, seed, caplog
):
    stream, cfg, states, records = _clean_run(variant, adaptive)
    make_rows, refusals = BAD_BATCHES[kind]
    state = states[position]
    bad = StreamBatch(make_rows(state, np.random.default_rng(seed)))
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="driftalign.pipeline"):
        y_hat, accuracy, after = process_batch(state, bad, cfg)
    if variant not in refusals:
        return  # absorbed by construction
    assert y_hat is None and accuracy is None
    assert after is state
    assert refusals[variant] in caplog.text
    for batch, expected in zip(stream.batches[position:], records[position:]):
        _, _, after = process_batch(after, batch, cfg)
        assert _key(after.record) == expected
