"""Per-batch records of every variant on one fixed stream, pinned to a file.

A change that restructures the pipeline without meaning to alter its
numbers must reproduce these records: the accuracies exactly, the distance
diagnostics to 1e-12 (every variant's diagnostics, the ``karcher``
reference's included, are independent of the basis that represents each
subspace up to rounding, so a larger drift means the numbers changed).
Regenerate the file only for a change that is meant to alter the numbers:

    PYTHONPATH=src python tests/test_golden_records.py

It prints the run ids whose records differ from the file it overwrites,
by the test's own comparison, and rewrites only those runs, so a
regeneration states what it changed.
"""

import json
from dataclasses import replace
from pathlib import Path

from driftalign import DriftParams, PipelineConfig, generate_drift_stream, run_experiment
from driftalign.classifiers import KINDS
from driftalign.pipeline import VARIANTS

GOLDEN = Path(__file__).parent / "data" / "golden_records.json"
DIST_TOL = 1e-12


def golden_runs() -> dict:
    """Run id -> [[index, accuracy, dist_source_mean, dist_mean_step], ...]."""
    stream = generate_drift_stream(
        DriftParams(
            seed=0, feature_dim=30, n_classes=2, n_batches=30, batch_size=20,
            drift_kind="noisy-rotation", drift_rate=0.01, noise=0.1,
            class_sep=30.0, n_source=400,
        )
    )
    runs = {}
    for kind in KINDS:
        for adaptive in (False, True):
            cfg = PipelineConfig(
                subspace_dim=5, batch_size=20, seed=0,
                adaptive_classifier=adaptive, classifier_kind=kind,
            )
            mode = "adaptive" if adaptive else "frozen"
            for variant in VARIANTS:
                report = run_experiment(stream, replace(cfg, variant=variant))
                runs[f"{variant}/{kind}/{mode}"] = [
                    [r.index, r.accuracy, r.dist_source_mean, r.dist_mean_step]
                    for r in report.records
                ]
    return runs


def records_differ(records, expected) -> bool:
    """The test's comparison: indices and accuracies exact, distances to 1e-12."""
    if [r[0] for r in records] != [r[0] for r in expected]:
        return True
    return any(
        acc != acc0
        or not abs(dist_source - dist_source0) <= DIST_TOL
        or not abs(step - step0) <= DIST_TOL
        for (_, acc, dist_source, step), (_, acc0, dist_source0, step0) in zip(
            records, expected
        )
    )


def differing_runs(runs: dict, golden: dict) -> list[str]:
    """Run ids whose records differ, or that only one of the two holds."""
    return sorted(
        run_id
        for run_id in runs.keys() | golden.keys()
        if run_id not in runs
        or run_id not in golden
        or records_differ(runs[run_id], golden[run_id])
    )


def test_records_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = golden_runs()
    assert sorted(runs) == sorted(golden)
    assert differing_runs(runs, golden) == []


if __name__ == "__main__":
    runs = golden_runs()
    old = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    changed = differing_runs(runs, old)
    # A run that still matches keeps its old records, last-digit rounding
    # included, so the file's diff holds the changed runs only.
    kept = {k: v if k in changed else old[k] for k, v in runs.items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in kept.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"{len(changed)} of {len(runs)} runs differ from the overwritten file")
    for run_id in changed:
        print(f"  {run_id}")
