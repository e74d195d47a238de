import gc
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
    generate_drift_stream,
    geodesic_distance,
    load_csv_stream,
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
        drift_kind=kind, drift_rate=0.02, signal_dim=3,
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
