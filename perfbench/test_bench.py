"""Tests of the benchmark itself: tracing accounting and a tiny smoke run.

    python3 -m pytest perfbench -q
"""

import json
import logging
import warnings

import numpy as np
import pytest

import run
from driftalign import pipeline
from driftalign.errors import AngleClampWarning
from spans import BATCH_SPAN, LAYER_SPANS, Tracer, traced
from workloads import WORKLOADS, Source

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = 3


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_self_times_sum_to_batch_time(name, tmp_path):
    workload = WORKLOADS[name]
    originals = {attr: getattr(pipeline, attr) for attr in LAYER_SPANS}
    svd = np.linalg.svd
    tracer = Tracer()
    with traced(tracer):
        run.run_pass(Source(workload, 0, TINY, tmp_path), workload.config(0),
                     workload.drift["n_classes"], tracer)
    assert {attr: getattr(pipeline, attr) for attr in LAYER_SPANS} == originals
    assert np.linalg.svd is svd

    roots = [s for s in tracer.spans if s.name == BATCH_SPAN]
    assert len(roots) == TINY
    for root in roots:
        inside = [s for s in tracer.spans if s.batch == root.batch]
        assert len(inside) > 1
        assert sum(s.self_s for s in inside) == pytest.approx(root.duration, rel=1e-9)
    assert sum(tracer.svd_calls[s.batch] for s in roots) > 0


def test_wrappers_restored_after_an_error():
    originals = {attr: getattr(pipeline, attr) for attr in LAYER_SPANS}
    svd = np.linalg.svd
    with pytest.raises(RuntimeError):
        with traced(Tracer()):
            assert pipeline.pca_subspace is not originals["pca_subspace"]
            raise RuntimeError
    assert {attr: getattr(pipeline, attr) for attr in LAYER_SPANS} == originals
    assert np.linalg.svd is svd


def test_events_are_counted_by_source():
    with run.captured_events() as counts:
        logging.getLogger("driftalign.transforms").warning("pairing mismatch")
        warnings.warn("clamped", AngleClampWarning)
        warnings.warn("clamped", AngleClampWarning)
    assert counts == {"driftalign.transforms": 1, "AngleClampWarning": 2}
    assert all(not isinstance(h, run._EventCounter) for h in logging.getLogger("driftalign").handlers)


def test_benchmark_json_matches_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    for section, metrics in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}
        assert listed == metrics
    assert set(run.LAYER_EFFECTS) >= {
        name if name in run.LAYER_EFFECTS else name.rsplit(".", 1)[0] for name in run.PER_LAYER
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_every_metric_emitted(name, tmp_path):
    workload = WORKLOADS[name]
    for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        context, result = run.measure(workload, 1, 0.0, trace, n_batches=TINY, work_dir=tmp_path)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == TINY * context["passes"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            k: unit for k, (unit, _) in expected.items()
        }
        assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_repeats_svd_calls_and_accuracy(name, tmp_path):
    workload = WORKLOADS[name]
    runs = [run.measure(workload, 2, 0.0, True, n_batches=TINY, work_dir=tmp_path)[1]
            for _ in range(2)]
    calls = [r["metrics"]["linalg.svd.calls"]["value"] for r in runs]
    assert calls[0] == calls[1] > 0
    accuracy = [run.measure(workload, 2, 0.0, False, n_batches=TINY, work_dir=tmp_path)[1]
                ["metrics"]["avg_accuracy"]["value"] for _ in range(2)]
    assert accuracy[0] == accuracy[1]
