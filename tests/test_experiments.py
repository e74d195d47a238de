import json
from dataclasses import replace

import numpy as np
import pytest

from driftalign import (
    BadParameter,
    ConfigError,
    CsvParseError,
    DatasetSpec,
    DriftParams,
    PipelineConfig,
    average_accuracy,
    compare_means,
    config_for_variant,
    generate_drift_stream,
    load_csv_stream,
    rerun_from_report,
    run_experiment,
    stream_from_params,
    sweep,
    write_csv_stream,
)
from driftalign import experiments


def mild_drift_stream(seed=21, n_batches=60):
    return generate_drift_stream(
        DriftParams(
            seed=seed, feature_dim=30, n_classes=2, n_batches=n_batches,
            batch_size=20, drift_kind="rotation", drift_rate=0.004,
            class_sep=30.0, n_source=300,
        )
    )


def base_config(seed=21):
    return PipelineConfig(subspace_dim=5, batch_size=20, seed=seed)


def record_numbers(report):
    return [(r.accuracy, r.dist_source_mean, r.dist_mean_step) for r in report.records]


class TestVariantMapping:
    def test_flag_combinations(self):
        cfg = config_for_variant(base_config(), "icms-fb-pred")
        assert cfg.variant == "icms-fb-pred" and cfg.use_feedback
        cfg = config_for_variant(base_config(), "icms-cumul")
        assert cfg.variant == "icms-cumul" and not cfg.use_feedback
        adaptive = replace(base_config(), adaptive_classifier=True)
        assert config_for_variant(adaptive, "avg").adaptive_classifier

    def test_unknown_variant(self):
        with pytest.raises(ConfigError):
            config_for_variant(base_config(), "icms-magic")


class TestRunExperiment:
    def test_report_summary_consistent_with_records(self):
        stream = mild_drift_stream()
        report = run_experiment(stream, replace(base_config(), variant="icms"))
        accuracies = [r.accuracy for r in report.records if r.accuracy is not None]
        assert abs(report.summary["average_accuracy"] - average_accuracy(accuracies)) < 1e-12
        assert report.summary["batches"] == len(stream.batches)

    def test_step_distances_converge_on_stationary_stream(self):
        stream = generate_drift_stream(
            DriftParams(
                seed=11, feature_dim=30, n_classes=2, n_batches=120,
                batch_size=20, drift_kind="stationary", class_sep=30.0,
                n_source=300, target_offset=0.35,
            )
        )
        report = run_experiment(stream, replace(base_config(11), variant="icms"))
        steps = np.array([r.dist_mean_step for r in report.records])
        assert steps[80:].mean() < steps[5:25].mean() / 3.0

    def test_variants_share_everything_but_their_flags(self):
        stream = mild_drift_stream()
        a = run_experiment(stream, replace(base_config(), variant="icms"))
        b = run_experiment(stream, replace(base_config(), variant="icms-fb"))
        assert a.seed == b.seed
        keys_a = dict(a.config, variant=None)
        keys_b = dict(b.config, variant=None)
        assert keys_a == keys_b

    def test_json_and_csv_written(self, tmp_path):
        stream = mild_drift_stream(n_batches=10)
        out = tmp_path / "report.json"
        csv = tmp_path / "batches.csv"
        cfg = replace(base_config(), variant="icms")
        run_experiment(stream, cfg, output_path=out, csv_path=csv)
        payload = json.loads(out.read_text())
        assert payload["variant"] == "icms"
        assert len(payload["records"]) == 10
        lines = csv.read_text().strip().splitlines()
        assert lines[0].startswith("batch,accuracy")
        assert len(lines) == 11

    def test_rerun_from_echoed_config_reproduces(self):
        stream = mild_drift_stream(n_batches=15)
        report = run_experiment(stream, replace(base_config(), variant="icms-fb"))
        replay = rerun_from_report(report.config)
        assert replay.summary["average_accuracy"] == report.summary["average_accuracy"]
        for a, b in zip(report.records, replay.records):
            assert a.accuracy == b.accuracy
            assert abs(a.dist_source_mean - b.dist_source_mean) <= 1e-12

    def test_rerun_from_report_echoing_the_removed_confidence_gate(self):
        # Reports written while PipelineConfig had a confidence_threshold
        # field echo it as null; reports written while it had one flag per
        # stage echo those flags beside the variant id.
        stream = mild_drift_stream(n_batches=5)
        report = run_experiment(stream, replace(base_config(), variant="icms-fb-pred"))
        stage_flags = dict(
            use_feedback=True, use_prediction=True, use_cumulative=False,
            mean_method="icms",
        )
        for old_echo in (
            dict(report.config, confidence_threshold=None),
            dict(report.config, **stage_flags),
        ):
            replay = rerun_from_report(old_echo)
            assert replay.variant == "icms-fb-pred"
            assert record_numbers(replay) == record_numbers(report)

    def test_rerun_of_a_grown_csv_file_is_refused(self, tmp_path):
        path = tmp_path / "stream.csv"
        write_csv_stream(mild_drift_stream(n_batches=5), path)
        spec = DatasetSpec(
            path=path, feature_dim=30, n_classes=2, source_fraction=300 / 400
        )
        cfg = replace(base_config(), variant="icms")
        report = run_experiment(load_csv_stream(path, spec, 20), cfg)
        replay = rerun_from_report(report.config)
        assert [r.accuracy for r in replay.records] == [r.accuracy for r in report.records]
        rows = path.read_text().splitlines(keepends=True)
        with open(path, "a", encoding="utf-8") as handle:
            handle.writelines(rows[-5:])
        with pytest.raises(CsvParseError, match="expected 400 data rows, found 405"):
            rerun_from_report(report.config)
        # Params echoed without the row count still load, whatever the size.
        params = dict(report.config["stream"])
        del params["total_rows"]
        assert stream_from_params(params).params["total_rows"] == 405

    def test_partial_report_flushed_on_abort(self, tmp_path):
        stream = mild_drift_stream(n_batches=10)
        bad = stream.batches[:3] + (object(),)  # poison the fourth batch
        import dataclasses

        broken = dataclasses.replace(stream, batches=bad)
        out = tmp_path / "partial.json"
        cfg = replace(base_config(), variant="icms")
        with pytest.raises(AttributeError):
            run_experiment(broken, cfg, output_path=out)
        payload = json.loads(out.read_text())
        assert len(payload["records"]) == 3


class TestSweep:
    def test_single_cell_matches_run(self):
        stream = mild_drift_stream(n_batches=20)
        cells = sweep(stream.params, replace(base_config(), variant="icms"), [5], [20])
        assert len(cells) == 1
        cell = cells[0]
        rebuilt = generate_drift_stream(
            DriftParams(**{k: v for k, v in stream.params.items() if k != "kind"})
        )
        direct = run_experiment(
            rebuilt, replace(base_config(cell.seed), variant="icms")
        ).summary["average_accuracy"]
        assert cell.average_accuracy == pytest.approx(direct, abs=1e-12)

    def test_config_variant_runs_when_no_variant_is_given(self, monkeypatch):
        ran = []

        def recorded(*args, **kwargs):
            report = run_experiment(*args, **kwargs)
            ran.append(report.variant)
            return report

        monkeypatch.setattr(experiments, "run_experiment", recorded)
        stream = mild_drift_stream(n_batches=8)
        cfg = replace(base_config(), variant="icms-fb")
        cells = sweep(stream.params, cfg, [4, 5], [20])
        assert all(c.error is None for c in cells)
        assert ran == ["icms-fb", "icms-fb"]
        sweep(stream.params, replace(cfg, variant="icms-pred"), [5], [20])
        assert ran[-1] == "icms-pred"

    def test_grid_shape_and_finiteness(self):
        stream = mild_drift_stream(n_batches=15)
        cells = sweep(stream.params, base_config(), [3, 4, 5], [15, 20, 25])
        assert len(cells) == 9
        assert all(c.error is None and np.isfinite(c.average_accuracy) for c in cells)

    def test_failed_cell_is_isolated(self):
        stream = mild_drift_stream(n_batches=15)
        # batch size 6 cannot support k=8 (PCA needs k <= N-1): that cell
        # fails, the rest of the sweep must survive.
        cells = sweep(stream.params, base_config(), [4, 8], [6, 20])
        by_key = {(c.subspace_dim, c.batch_size): c for c in cells}
        assert by_key[(8, 6)].error is not None
        assert by_key[(8, 6)].average_accuracy is None
        for key in [(4, 6), (4, 20), (8, 20)]:
            assert by_key[key].error is None

    def test_no_convergence_marks_the_cell(self):
        # A Karcher budget of zero iterations cannot meet a tight tolerance
        # once two subspaces differ: NoConvergence, a RuntimeError.
        stream = mild_drift_stream(n_batches=6)
        cfg = replace(
            base_config(), variant="karcher", karcher_tol=1e-9, karcher_max_iter=0
        )
        cells = sweep(stream.params, cfg, [4, 5], [20])
        assert len(cells) == 2
        for cell in cells:
            assert cell.error.startswith("NoConvergence"), cell.error
            assert cell.average_accuracy is None

    def test_stream_error_is_raised_not_marked(self):
        # A batch size below 1 is a bad stream parameter, not a failed run.
        stream = mild_drift_stream(n_batches=6)
        with pytest.raises(BadParameter):
            sweep(stream.params, base_config(), [4], [20, 0])

    def test_accuracy_peaks_at_planted_rank(self):
        stream = generate_drift_stream(
            DriftParams(
                seed=13, feature_dim=24, n_classes=8, n_batches=60,
                batch_size=24, drift_kind="rotation", drift_rate=0.01,
                signal_dim=4, signal_spread=(3.0, 2.6, 2.3, 2.0),
                class_sep=25.0, n_source=400,
            )
        )
        cells = sweep(stream.params, base_config(13), [2, 3, 4], [24])
        accs = {c.subspace_dim: c.average_accuracy for c in cells}
        assert accs[2] < accs[3] < accs[4]
        assert accs[4] - accs[2] > 0.03


class TestStationarySafety:
    def test_no_variant_hurts_the_stationary_case(self):
        # Target drawn from the source distribution itself: adaptation may
        # not cost more than 2 accuracy points against the static frozen
        # classifier, for any variant.
        stream = generate_drift_stream(
            DriftParams(
                seed=5, feature_dim=30, n_classes=2, n_batches=150,
                batch_size=20, drift_kind="stationary", class_sep=30.0,
                n_source=400,
            )
        )
        cfg = base_config(5)

        def accuracy_of(variant):
            report = run_experiment(stream, replace(cfg, variant=variant))
            return report.summary["average_accuracy"]

        static = accuracy_of("source")
        for variant in (
            "icms", "icms-fb", "icms-pred", "icms-fb-pred",
            "icms-cumul", "avg", "karcher",
        ):
            accuracy = accuracy_of(variant)
            assert abs(accuracy - static) <= 0.02, (variant, accuracy, static)


class TestCompareMeans:
    def test_rows_finite_and_ordered(self):
        stream = mild_drift_stream(n_batches=40)
        rows = compare_means(stream, base_config())
        assert [r.method for r in rows] == ["incremental-averaging", "karcher", "icms"]
        for row in rows:
            assert np.isfinite(row.average_accuracy)
            assert row.total_seconds > 0.0

    def test_icms_much_faster_than_karcher(self, monkeypatch):
        # The work is counted in np.linalg.svd calls, not wall-clock time,
        # so the verdict does not depend on the host's load.
        stream = generate_drift_stream(
            DriftParams(
                seed=33, feature_dim=30, n_classes=2, n_batches=100,
                batch_size=20, drift_kind="stationary", class_sep=30.0,
                n_source=300, target_offset=0.3,
            )
        )
        svd = np.linalg.svd
        calls, svd_calls = [], {}

        def counted_svd(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        def counted_run(stream, cfg):
            before = len(calls)
            report = run_experiment(stream, cfg)
            svd_calls[cfg.variant] = len(calls) - before
            return report

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        monkeypatch.setattr(experiments, "run_experiment", counted_run)
        compare_means(stream, base_config(33))
        assert svd_calls["karcher"] >= 10 * svd_calls["icms"], svd_calls

    def test_averaging_accuracy_close_to_icms(self):
        stream = mild_drift_stream()
        rows = {r.method: r for r in compare_means(stream, base_config())}
        gap = abs(rows["incremental-averaging"].average_accuracy - rows["icms"].average_accuracy)
        assert gap <= 0.10
