"""Per-batch records of every variant on one fixed stream, pinned to a file.

A change that restructures the pipeline without meaning to alter its
numbers must reproduce these records: the accuracies exactly, the distance
diagnostics to 1e-8 (the ``karcher`` diagnostics depend on the basis that
represents each observed subspace at ~1e-10). Regenerate the file only for
a change that is meant to alter the numbers:

    PYTHONPATH=src python tests/test_golden_records.py
"""

import json
from pathlib import Path

from driftalign import DriftParams, PipelineConfig, generate_drift_stream, run_experiment
from driftalign.classifiers import KINDS
from driftalign.experiments import VARIANTS

GOLDEN = Path(__file__).parent / "data" / "golden_records.json"
DIST_TOL = 1e-8


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
                report = run_experiment(stream, cfg, variant)
                runs[f"{variant}/{kind}/{mode}"] = [
                    [r.index, r.accuracy, r.dist_source_mean, r.dist_mean_step]
                    for r in report.records
                ]
    return runs


def test_records_match_golden_file():
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    runs = golden_runs()
    assert sorted(runs) == sorted(golden)
    for run_id, records in runs.items():
        expected = golden[run_id]
        assert [r[0] for r in records] == [r[0] for r in expected], run_id
        for (index, acc, dist_source, step), (_, acc0, dist_source0, step0) in zip(
            records, expected
        ):
            assert acc == acc0, (run_id, index)
            assert abs(dist_source - dist_source0) <= DIST_TOL, (run_id, index)
            assert abs(step - step0) <= DIST_TOL, (run_id, index)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in golden_runs().items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
