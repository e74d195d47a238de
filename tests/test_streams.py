import gc
import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest

from driftalign import streams
from driftalign import (
    BadParameter,
    CsvParseError,
    DatasetSpec,
    DriftParams,
    LabelOutOfRange,
    PipelineConfig,
    generate_drift_stream,
    geodesic_distance,
    load_csv_stream,
    rerun_from_report,
    run_experiment,
    stream_from_params,
    write_csv_stream,
)


def write_rows(path, rows):
    with open(path, "w") as handle:
        for row in rows:
            handle.write(",".join(str(v) for v in row) + "\n")


def simple_rows(n, d=3):
    rng = np.random.default_rng(42)
    rows = []
    for i in range(n):
        rows.append(list(rng.standard_normal(d)) + [int(i % 2)])
    return rows


class TestLoadCsv:
    def test_split_arithmetic(self, tmp_path):
        path = tmp_path / "stream.csv"
        write_rows(path, simple_rows(100))
        spec = DatasetSpec(path=path, feature_dim=3, n_classes=2, source_fraction=0.1)
        stream = load_csv_stream(path, spec, batch_size=2)
        assert stream.source_x.shape == (10, 3)
        assert len(stream.batches) == 45
        assert all(b.features.shape == (2, 3) for b in stream.batches)

    def test_short_final_chunk_dropped(self, tmp_path):
        path = tmp_path / "stream.csv"
        write_rows(path, simple_rows(25))
        spec = DatasetSpec(path=path, feature_dim=3, n_classes=2, source_fraction=0.2)
        stream = load_csv_stream(path, spec, batch_size=3)
        # 5 source rows, 20 target rows -> 6 batches of 3, 2 rows dropped
        assert stream.source_x.shape[0] == 5
        assert len(stream.batches) == 6

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_below_one_rejected(self, tmp_path, batch_size):
        path = tmp_path / "stream.csv"
        write_rows(path, simple_rows(25))
        spec = DatasetSpec(path=path, feature_dim=3, n_classes=2)
        with pytest.raises(BadParameter, match=f"got {batch_size}"):
            load_csv_stream(path, spec, batch_size=batch_size)
        params = {
            "kind": "csv", "path": str(path), "feature_dim": 3, "n_classes": 2,
            "source_fraction": 0.1, "has_header": False,
        }
        with pytest.raises(BadParameter, match=f"got {batch_size}"):
            stream_from_params(params, batch_size=batch_size)

    @pytest.mark.parametrize("fraction", [float("nan"), 0.0, 1.0, -0.5, float("inf")])
    def test_source_fraction_outside_unit_interval_rejected(self, tmp_path, fraction):
        path = tmp_path / "stream.csv"
        write_rows(path, simple_rows(25))
        spec = DatasetSpec(
            path=path, feature_dim=3, n_classes=2, source_fraction=fraction
        )
        with pytest.raises(BadParameter, match=r"in \(0, 1\)"):
            load_csv_stream(path, spec, batch_size=2)

    def test_malformed_float_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = simple_rows(10)
        rows[6][1] = "oops"
        write_rows(path, rows)
        spec = DatasetSpec(path=path, feature_dim=3, n_classes=2)
        with pytest.raises(CsvParseError) as err:
            load_csv_stream(path, spec, batch_size=2)
        assert err.value.row == 7
        assert "row 7" in str(err.value)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_names_row_and_column(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        rows = simple_rows(10)
        rows[4][2] = cell
        write_rows(path, rows)
        spec = DatasetSpec(path=path, feature_dim=3, n_classes=2)
        with pytest.raises(CsvParseError) as err:
            load_csv_stream(path, spec, batch_size=2)
        assert (err.value.row, err.value.column) == (5, 3)
        assert "non-finite" in str(err.value)

    def test_wrong_column_count_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = simple_rows(5)
        rows[2] = rows[2][:-1]
        write_rows(path, rows)
        spec = DatasetSpec(path=path, feature_dim=3, n_classes=2, source_fraction=0.2)
        with pytest.raises(CsvParseError) as err:
            load_csv_stream(path, spec, batch_size=2)
        assert err.value.row == 3

    def test_label_out_of_range(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = simple_rows(10)
        rows[4][-1] = 5
        write_rows(path, rows)
        spec = DatasetSpec(path=path, feature_dim=3, n_classes=2)
        with pytest.raises(LabelOutOfRange):
            load_csv_stream(path, spec, batch_size=2)

    def test_source_split_without_every_class_rejected(self, tmp_path):
        # The 10-row source prefix holds only class 0, so the classifier
        # would be trained for one class of a two-class stream.
        path = tmp_path / "stream.csv"
        rows = simple_rows(100)
        for row in rows[:10]:
            row[-1] = 0
        write_rows(path, rows)
        spec = DatasetSpec(path=path, feature_dim=3, n_classes=2)
        with pytest.raises(BadParameter, match=r"no sample of class\(es\) \[1\]"):
            load_csv_stream(path, spec, batch_size=2)

    def test_header_flag(self, tmp_path):
        path = tmp_path / "stream.csv"
        with open(path, "w") as handle:
            handle.write("a,b,c,label\n")
            for row in simple_rows(20):
                handle.write(",".join(str(v) for v in row) + "\n")
        spec = DatasetSpec(
            path=path, feature_dim=3, n_classes=2, source_fraction=0.1, has_header=True
        )
        stream = load_csv_stream(path, spec, batch_size=2)
        assert stream.source_x.shape[0] == 2

    def test_rows_kept_in_order(self, tmp_path):
        path = tmp_path / "stream.csv"
        rows = [[float(i), 0.0, float(i % 2)] for i in range(30)]
        write_rows(path, [[r[0], r[1], int(r[2])] for r in rows])
        spec = DatasetSpec(path=path, feature_dim=2, n_classes=2, source_fraction=0.1)
        stream = load_csv_stream(path, spec, batch_size=4)
        flattened = np.concatenate([b.features[:, 0] for b in stream.batches])
        assert np.array_equal(flattened, np.arange(3, 27, dtype=float))

    def test_round_trip_bitwise(self, tmp_path):
        params = DriftParams(
            seed=7, feature_dim=8, n_classes=2, n_batches=6, batch_size=5,
            drift_kind="rotation", drift_rate=0.02, signal_dim=3,
            signal_spread=(2.0, 1.5, 1.2), n_source=10,
        )
        stream = generate_drift_stream(params)
        path = tmp_path / "round.csv"
        write_csv_stream(stream, path)
        total = 10 + 6 * 5
        spec = DatasetSpec(
            path=path, feature_dim=8, n_classes=2, source_fraction=10 / total
        )
        loaded = load_csv_stream(path, spec, batch_size=5)
        assert np.array_equal(loaded.source_x, stream.source_x)
        assert np.array_equal(loaded.source_y, stream.source_y)
        assert len(loaded.batches) == len(stream.batches)
        for a, b in zip(loaded.batches, stream.batches):
            assert np.array_equal(a.features, b.features)
            assert np.array_equal(a.labels, b.labels)


class TestGenerator:
    def test_params_echo_follows_the_field_order(self):
        params = DriftParams(
            seed=1, feature_dim=12, n_classes=2, n_batches=8, batch_size=6,
            signal_dim=3, signal_spread=(2.0, 1.5, 1.2),
        )
        echo = params.as_dict()
        assert list(echo) == ["kind"] + [f.name for f in fields(DriftParams)]
        assert echo["kind"] == "synthetic"
        assert echo["signal_spread"] == [2.0, 1.5, 1.2]
        assert echo["target_offset"] == 0.0

    def test_stationary_truth_constant(self):
        params = DriftParams(
            seed=1, feature_dim=12, n_classes=2, n_batches=8, batch_size=6,
            drift_kind="stationary", signal_dim=3, signal_spread=(2.0, 1.5, 1.2),
        )
        stream = generate_drift_stream(params)
        first = stream.truth.clean[0]
        for s in stream.truth.clean[1:]:
            assert geodesic_distance(first, s) < 1e-12

    def test_same_seed_reproduces_batches(self):
        params = DriftParams(
            seed=5, feature_dim=12, n_classes=3, n_batches=5, batch_size=6,
            drift_kind="noisy-rotation", drift_rate=0.01, noise=0.05,
            signal_dim=3, signal_spread=(2.0, 1.5, 1.2),
        )
        a = generate_drift_stream(params)
        b = generate_drift_stream(params)
        assert np.array_equal(a.source_x, b.source_x)
        for ba, bb in zip(a.batches, b.batches):
            assert np.array_equal(ba.features, bb.features)
            assert np.array_equal(ba.labels, bb.labels)

    def test_cumulative_rotation_matches_rate(self):
        # One planted direction: the geodesic distance accumulated over
        # 200 steps of 0.005 rad each is exactly 1.0 rad.
        params = DriftParams(
            seed=3, feature_dim=10, n_classes=2, n_batches=200, batch_size=4,
            drift_kind="rotation", drift_rate=0.005, signal_dim=1,
            signal_spread=(1.5,),
        )
        stream = generate_drift_stream(params)
        start = stream.truth.clean[0]
        end = stream.truth.clean[-1]
        total = geodesic_distance(start, end) + params.drift_rate
        assert abs(total - 1.0) < 1e-6

    def test_noisy_rotation_jitter_magnitude(self):
        params = DriftParams(
            seed=9, feature_dim=12, n_classes=2, n_batches=10, batch_size=6,
            drift_kind="noisy-rotation", drift_rate=0.01, noise=0.1,
            signal_dim=3, signal_spread=(2.0, 1.5, 1.2),
        )
        stream = generate_drift_stream(params)
        for clean, observed in zip(stream.truth.clean, stream.truth.observed):
            assert abs(geodesic_distance(clean, observed) - 0.1) < 1e-6

    def test_mean_shift_moves_batch_means(self):
        params = DriftParams(
            seed=2, feature_dim=12, n_classes=2, n_batches=30, batch_size=40,
            drift_kind="mean-shift", drift_rate=0.5, signal_dim=3,
            signal_spread=(2.0, 1.5, 1.2),
        )
        stream = generate_drift_stream(params)
        first = stream.batches[0].features.mean(axis=0)
        last = stream.batches[-1].features.mean(axis=0)
        assert np.linalg.norm(last - first) > 5.0

    def test_target_offset_distance(self):
        params = DriftParams(
            seed=4, feature_dim=20, n_classes=2, n_batches=3, batch_size=6,
            drift_kind="stationary", signal_dim=4, signal_spread=(2.0, 1.7, 1.4, 1.2),
            target_offset=0.35,
        )
        stream = generate_drift_stream(params)
        # The source frame is recoverable by regenerating without offset.
        base = generate_drift_stream(
            DriftParams(
                seed=4, feature_dim=20, n_classes=2, n_batches=3, batch_size=6,
                drift_kind="stationary", signal_dim=4,
                signal_spread=(2.0, 1.7, 1.4, 1.2),
            )
        )
        d = geodesic_distance(stream.truth.clean[0], base.truth.clean[0])
        assert abs(d - 0.35) < 1e-9

    @pytest.mark.parametrize(
        "bad",
        [
            dict(n_classes=1),
            dict(drift_kind="teleport"),
            dict(signal_dim=20),
            dict(drift_rate=-0.1),
            dict(batch_size=0),
        ],
    )
    def test_bad_parameters(self, bad):
        base = dict(
            seed=0, feature_dim=12, n_classes=2, n_batches=4, batch_size=5,
            drift_kind="stationary", signal_dim=3, signal_spread=(2.0, 1.5, 1.2),
        )
        base.update(bad)
        with pytest.raises(BadParameter):
            generate_drift_stream(DriftParams(**base))

    def test_negative_seed(self):
        # numpy's generator refuses it with a bare ValueError; the stream
        # names the parameter instead.
        with pytest.raises(BadParameter, match="seed must be nonnegative, got -3"):
            generate_drift_stream(DriftParams(seed=-3))

    @pytest.mark.parametrize("seed, missing", [(2, "[2]"), (6, "[0]")])
    def test_source_draw_without_every_class_rejected(self, seed, missing):
        # Six source rows over three classes: seed 2 draws no class 2 (the
        # run went on with a two-class classifier), seed 6 no class 0.
        params = DriftParams(seed=seed, n_classes=3, n_source=6, n_batches=5)
        with pytest.raises(BadParameter, match=re.escape(f"class(es) {missing}")):
            generate_drift_stream(params)

    @pytest.mark.parametrize(
        "bad",
        [
            dict(drift_rate=float("nan")),
            dict(drift_kind="noisy-rotation", noise=float("inf")),
            dict(class_sep=float("nan")),
            dict(ambient_std=float("inf")),
            dict(target_offset=float("-inf")),
            dict(signal_spread=(2.0, float("nan"), 1.2)),
        ],
    )
    def test_non_finite_parameters(self, bad):
        base = dict(
            seed=0, feature_dim=12, n_classes=2, n_batches=4, batch_size=5,
            drift_kind="rotation", signal_dim=3, signal_spread=(2.0, 1.5, 1.2),
        )
        base.update(bad)
        with pytest.raises(BadParameter, match="finite"):
            generate_drift_stream(DriftParams(**base))

    def test_rebuild_from_params(self):
        params = DriftParams(
            seed=6, feature_dim=12, n_classes=2, n_batches=5, batch_size=6,
            drift_kind="rotation", drift_rate=0.01, signal_dim=3,
            signal_spread=(2.0, 1.5, 1.2),
        )
        stream = generate_drift_stream(params)
        rebuilt = stream_from_params(stream.params)
        for a, b in zip(stream.batches, rebuilt.batches):
            assert np.array_equal(a.features, b.features)


def lazy_truth_params(kind, **overrides):
    params = dict(
        seed=8, feature_dim=16, n_classes=2, n_batches=6, batch_size=8,
        drift_kind=kind, drift_rate=0.0 if kind == "stationary" else 0.02,
        signal_dim=3,
        signal_spread=(2.0, 1.5, 1.2),
        noise=0.05 if kind == "noisy-rotation" else 0.0,
    )
    params.update(overrides)
    return DriftParams(**params)


class TestLazyTruth:
    @pytest.mark.parametrize("kind", ["rotation", "stationary", "mean-shift"])
    def test_bases_built_on_first_read(self, kind, monkeypatch):
        calls = []
        orthonormalize = streams.orthonormalize

        def counted(m):
            calls.append(m.shape)
            return orthonormalize(m)

        monkeypatch.setattr(streams, "orthonormalize", counted)
        stream = generate_drift_stream(lazy_truth_params(kind))
        assert calls == []
        clean = stream.truth.clean
        assert len(clean) == 6
        assert calls == [(16, 3)] * (6 if kind == "rotation" else 1)

    def test_generation_retains_little_beyond_features(self):
        # Eagerly built, the truth alone would hold 2 x 100 bases of
        # 128 x 32 doubles (6.6 MB) beside 4.3 MB of features.
        params = DriftParams(
            seed=0, feature_dim=128, n_classes=2, n_batches=100, batch_size=40,
            drift_kind="rotation", drift_rate=0.01, signal_dim=32,
        )
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            stream = generate_drift_stream(params)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        features = stream.source_x.nbytes + sum(b.features.nbytes for b in stream.batches)
        assert retained < features + 2 * 2**20

    @pytest.mark.parametrize("kind", ["rotation", "stationary", "mean-shift"])
    def test_observed_is_clean_without_noise(self, kind):
        truth = generate_drift_stream(lazy_truth_params(kind)).truth
        assert truth.observed is truth.clean
        assert truth.clean is truth.clean

    @pytest.mark.parametrize("kind", ["stationary", "mean-shift"])
    def test_constant_frame_shares_one_subspace(self, kind):
        clean = generate_drift_stream(lazy_truth_params(kind)).truth.clean
        assert all(s is clean[0] for s in clean)

    def test_noisy_observed_frames_are_the_sampled_ones(self):
        truth = generate_drift_stream(lazy_truth_params("noisy-rotation")).truth
        assert truth.observed is not truth.clean
        assert truth.observed is truth.observed
        for frame, observed in zip(truth.jittered, truth.observed):
            assert np.array_equal(observed.basis, frame)

    @pytest.mark.parametrize("offset", [0.0, 0.3])
    def test_rotation_truth_follows_the_rate(self, offset):
        truth = generate_drift_stream(
            lazy_truth_params("rotation", target_offset=offset)
        ).truth
        steps = [geodesic_distance(a, b) for a, b in zip(truth.clean, truth.clean[1:])]
        assert np.allclose(steps, 0.02, atol=1e-12)


class TestStreamSchema:
    """``stream_from_params`` checks a dict against its kind's dataclass."""

    def test_fields_left_out_keep_the_dataclass_defaults(self, tmp_path):
        built = stream_from_params({"kind": "synthetic"})
        direct = generate_drift_stream(DriftParams())
        assert built.params == direct.params
        assert np.array_equal(built.source_x, direct.source_x)
        path = tmp_path / "stream.csv"
        write_rows(path, simple_rows(25))
        csv = stream_from_params({"kind": "csv", "path": str(path), "feature_dim": 3})
        assert csv.params["batch_size"] == DriftParams().batch_size == 20
        assert (csv.params["n_classes"], csv.params["source_fraction"]) == (2, 0.1)
        assert all(b.size == 20 for b in csv.batches)

    @pytest.mark.parametrize(
        "kind, extra",
        [
            ("synthetic", dict(source_fraction=0.2)),
            ("synthetic", dict(has_header=True, path="s.csv")),
            ("csv", dict(noise=0.3)),
            ("csv", dict(seed=3, n_batches=4)),
        ],
    )
    def test_unknown_keys_are_named(self, tmp_path, kind, extra):
        path = tmp_path / "stream.csv"
        write_rows(path, simple_rows(25))
        params = {"kind": kind, **extra}
        if kind == "csv":
            params = {"path": str(path), "feature_dim": 3, **params}
        with pytest.raises(BadParameter) as err:
            stream_from_params(params)
        for key in extra:
            assert repr(key) in str(err.value)

    def test_missing_keys_are_named(self):
        with pytest.raises(BadParameter, match=r"missing keys \['path', 'feature_dim'\]"):
            stream_from_params({"kind": "csv"})
        with pytest.raises(
            BadParameter, match=r"unknown keys \['noise'\], missing keys \['feature_dim'\]"
        ):
            stream_from_params({"kind": "csv", "path": "s.csv", "noise": 0.1})

    def test_unknown_kind_rejected(self):
        for params in ({}, {"kind": "parquet"}):
            with pytest.raises(BadParameter, match="kind"):
                stream_from_params(params)

    def test_report_whose_stream_gained_a_key_is_refused(self):
        stream = generate_drift_stream(
            DriftParams(feature_dim=12, n_batches=3, batch_size=8, signal_dim=3)
        )
        report = run_experiment(stream, PipelineConfig(subspace_dim=3))
        config = dict(report.config)
        assert rerun_from_report(config).records[0].accuracy == (
            report.records[0].accuracy
        )
        config["stream"] = dict(config["stream"], forgetting=0.9)
        with pytest.raises(BadParameter, match="forgetting"):
            rerun_from_report(config)

    @pytest.mark.parametrize(
        "kind, name",
        [
            ("stationary", "noise"),
            ("stationary", "drift_rate"),
            ("rotation", "noise"),
            ("mean-shift", "noise"),
        ],
    )
    def test_kind_refuses_a_parameter_it_never_reads(self, kind, name):
        params = dict(
            feature_dim=12, n_batches=3, batch_size=8, signal_dim=3,
            drift_kind=kind,
        )
        with pytest.raises(BadParameter, match=f"reads no {name}"):
            generate_drift_stream(DriftParams(**params, **{name: 0.2}))
        # The echo of an unset parameter is zero, and it passes.
        echoed = generate_drift_stream(DriftParams(**params, **{name: 0.0}))
        assert stream_from_params(echoed.params).params == echoed.params


def same_stream(a, b):
    """Whether two streams hold the same rows, labels and clean truth, bit for bit."""
    return (
        np.array_equal(a.source_x, b.source_x)
        and np.array_equal(a.source_y, b.source_y)
        and all(
            np.array_equal(x.features, y.features) and np.array_equal(x.labels, y.labels)
            for x, y in zip(a.batches, b.batches, strict=True)
        )
        and all(
            np.array_equal(x.basis, y.basis)
            for x, y in zip(a.truth.clean, b.truth.clean, strict=True)
        )
    )


@pytest.mark.parametrize("feature_dim", [20, 30, 64])
class TestKindsThatCoincide:
    """Drift kinds that one kind with a zero parameter reproduces bit for bit."""

    def params(self, feature_dim, **overrides):
        return DriftParams(
            seed=5, feature_dim=feature_dim, n_batches=12, batch_size=20,
            **overrides,
        )

    def test_rotation_is_noisy_rotation_without_noise(self, feature_dim):
        rotation = self.params(feature_dim, drift_kind="rotation", drift_rate=0.05)
        noisy = self.params(feature_dim, drift_kind="noisy-rotation", drift_rate=0.05)
        assert same_stream(generate_drift_stream(rotation), generate_drift_stream(noisy))

    def test_stationary_is_rotation_without_rate(self, feature_dim):
        stationary = self.params(feature_dim, drift_kind="stationary", target_offset=0.3)
        rotation = self.params(feature_dim, drift_kind="rotation", target_offset=0.3)
        assert same_stream(
            generate_drift_stream(stationary), generate_drift_stream(rotation)
        )
