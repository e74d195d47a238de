"""In-memory span tracing of the pipeline's layers, from outside the package.

``traced`` swaps the names ``driftalign.pipeline`` imports from each layer
(and ``numpy.linalg.svd``) for timing wrappers and puts the originals back on
exit, so untraced passes never call through a wrapper. Spans nest through a
stack; a span's self time is its duration minus the durations of its direct
children. SVD calls are recorded inclusively beside the tree: they overlap
the layer spans and are not subtracted from them.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from driftalign import pipeline

# Attribute of driftalign.pipeline -> span name ("<layer module>.<function>").
LAYER_SPANS = {
    "pca_subspace": "pipeline.pca_subspace",
    "geodesic_distance": "grassmann.geodesic_distance",
    "gfk_transform": "transforms.gfk_transform",
    "cumulative_transform": "transforms.cumulative_transform",
    "apply_transform": "transforms.apply_transform",
    "icms_update": "means.icms_update",
    "predict_next": "prediction.predict_next",
    "compensate": "prediction.compensate",
    "classify": "classifiers.classify",
    "update_classifier": "classifiers.update_classifier",
}
BATCH_SPAN = "pipeline.process_batch"
SVD = "linalg.svd"


@dataclass
class Span:
    name: str
    batch: int | None  # index of the enclosing batch span, None during set-up
    start: float
    end: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """Collects spans and inclusive SVD timings in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.svd_calls: dict[int | None, int] = defaultdict(int)
        self.svd_s: dict[int | None, float] = defaultdict(float)
        self._stack: list[Span] = []
        self._batches = 0

    @contextmanager
    def span(self, name: str):
        batch = self._stack[-1].batch if self._stack else None
        if name == BATCH_SPAN and not self._stack:
            batch = self._batches
            self._batches += 1
        span = Span(name, batch, time.perf_counter())
        self._stack.append(span)
        try:
            yield
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1].children_s += span.duration
            self.spans.append(span)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced_call

    def wrap_svd(self, fn):
        @functools.wraps(fn)
        def counted_svd(*args, **kwargs):
            batch = self._stack[-1].batch if self._stack else None
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.svd_s[batch] += time.perf_counter() - started
                self.svd_calls[batch] += 1

        return counted_svd


@contextmanager
def traced(tracer: Tracer):
    """Install the tracer's wrappers for the duration of the block."""
    originals = {attr: getattr(pipeline, attr) for attr in LAYER_SPANS}
    original_svd = np.linalg.svd
    try:
        for attr, name in LAYER_SPANS.items():
            setattr(pipeline, attr, tracer.wrap(name, originals[attr]))
        np.linalg.svd = tracer.wrap_svd(original_svd)
        yield tracer
    finally:
        for attr, fn in originals.items():
            setattr(pipeline, attr, fn)
        np.linalg.svd = original_svd
