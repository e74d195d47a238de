"""Dataset ingestion and synthetic drifting-stream generation.

Streams are temporal: the labeled source split is always the chronological
prefix of the rows, and ingestion never reorders anything. The synthetic
generator plants a low-dimensional signal frame in R^d, draws
class-conditional Gaussians inside it, and drifts the frame over time so
that ground-truth subspaces exist for oracle tests.

Only oracle tests read that truth, and held eagerly its bases would
outweigh the stream's own features at wide shapes (two d x k bases per
batch against one batch of rows). So a stream keeps just what regenerates
them, and the bases are built on first read.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, asdict, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import BadParameter, CsvParseError, LabelOutOfRange
from .grassmann import Subspace, orthonormalize
from .means import perturbed_subspace
from .pipeline import StreamBatch

DRIFT_KINDS = ("stationary", "rotation", "mean-shift", "noisy-rotation")


@dataclass(frozen=True)
class DatasetSpec:
    """Shape and split of a CSV stream: d feature columns then one label column."""

    path: str | Path
    feature_dim: int
    n_classes: int = 2
    source_fraction: float = 0.1
    has_header: bool = False
    total_rows: int | None = None


@dataclass(frozen=True, eq=False)
class GroundTruth:
    """Per-batch true subspaces of a synthetic stream, built on first read.

    ``clean`` holds each batch's drifting frame and ``observed`` the frame
    its rows were drawn from (jittered, for "noisy-rotation"); both are
    cached tuples of Subspace. Only what regenerates them is stored: the
    frame and partners after any target offset, each batch's rotation
    angle per direction (None: the frame stays put, and one Subspace
    serves every batch) and the jittered frames, whose draws interleave
    with the sampling. ``n_batches`` is read only when ``angles`` is None;
    otherwise there is one angle per batch. Without jittered frames
    ``observed`` is ``clean``.
    """

    frame: np.ndarray
    partners: np.ndarray
    n_batches: int
    angles: np.ndarray | None = None
    jittered: tuple[np.ndarray, ...] | None = None

    @cached_property
    def clean(self) -> tuple[Subspace, ...]:
        if self.angles is None:
            return (orthonormalize(self.frame),) * self.n_batches
        return tuple(
            orthonormalize(_rotate_frame(self.frame, self.partners, angle))
            for angle in self.angles
        )

    @cached_property
    def observed(self) -> tuple[Subspace, ...]:
        if self.jittered is None:
            return self.clean
        return tuple(orthonormalize(frame) for frame in self.jittered)


@dataclass(frozen=True, eq=False)
class Stream:
    """A loaded or generated stream: labeled source prefix plus target batches."""

    source_x: np.ndarray
    source_y: np.ndarray
    batches: tuple[StreamBatch, ...]
    params: dict
    truth: GroundTruth | None = None

    @property
    def feature_dim(self) -> int:
        return self.source_x.shape[1]


def _source_rows(total: int, fraction: float) -> int:
    # ceil with an epsilon guard: 0.1 * 100 is 10.000000000000002 in binary,
    # which must still yield 10 source rows, not 11.
    return int(math.ceil(fraction * total - 1e-9))


def _check_source_classes(source_y: np.ndarray, n_classes: int) -> None:
    """Refuse a source split without every class: the classifier needs each one."""
    missing = np.flatnonzero(np.bincount(source_y, minlength=n_classes) == 0)
    if missing.size:
        raise BadParameter(
            f"the source split of {source_y.size} rows has no sample of "
            f"class(es) {missing.tolist()}"
        )


def _chunk(
    x: np.ndarray, y: np.ndarray | None, batch_size: int
) -> tuple[StreamBatch, ...]:
    """Consecutive chunks of batch_size rows; a final short chunk is dropped."""
    n_batches = x.shape[0] // batch_size
    batches = []
    for b in range(n_batches):
        rows = slice(b * batch_size, (b + 1) * batch_size)
        batches.append(
            StreamBatch(
                features=x[rows], labels=None if y is None else y[rows]
            )
        )
    return tuple(batches)


def load_csv_stream(
    path: str | Path, spec: DatasetSpec, batch_size: int
) -> Stream:
    """Parse a numeric CSV into a labeled source prefix and target batches.

    Rows are d float feature columns followed by one integer label column;
    an optional single header line is skipped when ``spec.has_header``.
    Parse failures, non-finite feature cells included, name the 1-based
    file row and column. A source split that lacks a class is refused.
    """
    if batch_size < 1:
        raise BadParameter(f"batch size must be at least 1, got {batch_size}")
    if not 0.0 < spec.source_fraction < 1.0:
        raise BadParameter(
            f"source fraction must be in (0, 1), got {spec.source_fraction}"
        )
    path = Path(path)
    d = spec.feature_dim
    features: list[list[float]] = []
    labels: list[int] = []
    row_numbers: list[int] = []
    with open(path, "r", encoding="utf-8", newline="") as handle:
        for row_number, line in enumerate(handle, start=1):
            line = line.rstrip("\r\n")
            if row_number == 1 and spec.has_header:
                continue
            if not line.strip():
                continue
            cells = line.split(",")
            if len(cells) != d + 1:
                raise CsvParseError(
                    f"expected {d + 1} columns, found {len(cells)}", row_number
                )
            row = []
            for column, cell in enumerate(cells[:d], start=1):
                try:
                    row.append(float(cell))
                except ValueError:
                    raise CsvParseError(
                        f"malformed float {cell!r}", row_number, column
                    ) from None
            try:
                label = int(cells[d])
            except ValueError:
                raise CsvParseError(
                    f"malformed label {cells[d]!r}", row_number, d + 1
                ) from None
            if not 0 <= label < spec.n_classes:
                raise LabelOutOfRange(
                    f"label {label} outside [0, {spec.n_classes}) at row {row_number}"
                )
            features.append(row)
            labels.append(label)
            row_numbers.append(row_number)

    x = np.array(features, dtype=float)
    y = np.array(labels, dtype=int)
    total = x.shape[0]
    if total == 0:
        raise CsvParseError("file contains no data rows", 1)
    if not np.isfinite(x).all():
        i, j = np.argwhere(~np.isfinite(x))[0]
        raise CsvParseError(
            f"non-finite feature value {float(x[i, j])}", row_numbers[i], int(j) + 1
        )
    if spec.total_rows is not None and total != spec.total_rows:
        raise CsvParseError(
            f"expected {spec.total_rows} data rows, found {total}", total
        )
    n_source = _source_rows(total, spec.source_fraction)
    if n_source < 1 or n_source >= total:
        raise BadParameter(
            f"source fraction {spec.source_fraction} leaves no usable split "
            f"of {total} rows"
        )
    _check_source_classes(y[:n_source], spec.n_classes)
    batches = _chunk(x[n_source:], y[n_source:], batch_size)
    params = {
        "kind": "csv",
        "path": str(path),
        "feature_dim": d,
        "n_classes": spec.n_classes,
        "source_fraction": spec.source_fraction,
        "has_header": spec.has_header,
        "batch_size": batch_size,
        "total_rows": total,
    }
    return Stream(
        source_x=x[:n_source], source_y=y[:n_source], batches=batches, params=params
    )


def write_csv_stream(stream: Stream, path: str | Path) -> None:
    """Write source rows then target rows so the split round-trips exactly.

    Floats are written with repr, which round-trips bit for bit.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        def emit(x: np.ndarray, y: np.ndarray) -> None:
            for row, label in zip(x, y):
                cells = [repr(float(v)) for v in row]
                cells.append(str(int(label)))
                handle.write(",".join(cells) + "\n")

        emit(stream.source_x, stream.source_y)
        for batch in stream.batches:
            if batch.labels is None:
                raise BadParameter("cannot serialize a stream without labels")
            emit(batch.features, batch.labels)


@dataclass(frozen=True)
class DriftParams:
    """Every parameter of a synthetic stream, with its default (echoed into reports)."""

    seed: int = 0
    feature_dim: int = 30
    n_classes: int = 2
    n_batches: int = 100
    batch_size: int = 20
    drift_kind: str = "stationary"
    drift_rate: float = 0.0
    noise: float = 0.0
    signal_dim: int = 5
    class_sep: float = 12.0
    signal_spread: tuple[float, ...] = ()
    ambient_std: float = 1.0
    n_source: int = 200
    target_offset: float = 0.0

    def as_dict(self) -> dict:
        spread = list(self.signal_spread)
        return {"kind": "synthetic", **asdict(self), "signal_spread": spread}


def _default_spread(signal_dim: int) -> np.ndarray:
    # Strong, decaying extra variance along the planted frame keeps batch
    # PCA concentrated near it even for small mini-batches; the class axis
    # (first direction) is kept tight so the class signal stays crisp.
    spread = np.linspace(3.0, 2.0, signal_dim)
    spread[0] = 0.5
    return spread


CLASS_OFFSETS = (0.8, 1.0)


def _class_directions(n_classes: int, signal_dim: int) -> np.ndarray:
    """Centroid positions in frame coordinates, one row per class.

    Classes pair up on frame axes at radial offsets (0.8, 1.0), like two
    operating regimes of one physical mode. The boundary between a pair is
    far from the frame center, so a classifier frozen at the source
    geometry loses the outer class quickly once the frame rotates, while
    the pair stays separable for any consistently aligned classifier.
    """
    directions = np.zeros((n_classes, signal_dim))
    for j in range(n_classes):
        axis = (j // 2) % signal_dim
        directions[j, axis] = CLASS_OFFSETS[j % 2]
    return directions


def _rotate_frame(
    frame: np.ndarray, partners: np.ndarray, angle_per_direction: float
) -> np.ndarray:
    """Rotate each frame column by the same angle into its orthogonal partner."""
    return frame * np.cos(angle_per_direction) + partners * np.sin(angle_per_direction)


def generate_drift_stream(params: DriftParams) -> Stream:
    """Deterministic synthetic drifting stream with per-step ground truth.

    Class-conditional Gaussians live around centroids inside a planted
    orthonormal frame. Depending on ``drift_kind`` the frame rotates by
    ``drift_rate`` radians of geodesic distance per batch (split evenly
    across the planted directions, each turning into a dedicated
    orthogonal partner), the centroids translate, or the rotation is
    overlaid with per-batch subspace jitter of ``noise`` radians. The
    returned ground truth yields the clean and the jittered frame of
    every batch, built when first read. A nonzero ``noise`` on any kind but
    "noisy-rotation", or ``drift_rate`` on "stationary", is refused: the
    kind never reads it. So is a seed whose source draw lacks a class.
    """
    p = params
    if p.drift_kind not in DRIFT_KINDS:
        raise BadParameter(f"unknown drift kind {p.drift_kind!r}")
    if p.n_classes < 2:
        raise BadParameter("need at least 2 classes")
    if min(p.feature_dim, p.n_batches, p.batch_size, p.n_source, p.signal_dim) < 1:
        raise BadParameter("stream sizes must be positive")
    if 2 * p.signal_dim > p.feature_dim:
        raise BadParameter("signal_dim must be at most feature_dim / 2")
    for name in ("drift_rate", "noise", "class_sep", "ambient_std", "target_offset"):
        value = getattr(p, name)
        if not math.isfinite(value):
            raise BadParameter(f"{name} must be finite, got {value}")
    if p.drift_rate < 0.0 or p.noise < 0.0:
        raise BadParameter("drift_rate and noise must be nonnegative")
    if p.seed < 0:
        raise BadParameter(f"seed must be nonnegative, got {p.seed}")
    # Zero is the echo of a parameter the kind never reads; anything else
    # would be echoed as if it had shaped the stream.
    if p.noise != 0.0 and p.drift_kind != "noisy-rotation":
        raise BadParameter(f"drift kind {p.drift_kind!r} reads no noise, got {p.noise}")
    if p.drift_rate != 0.0 and p.drift_kind == "stationary":
        raise BadParameter(
            f"drift kind 'stationary' reads no drift_rate, got {p.drift_rate}"
        )

    rng = np.random.default_rng(p.seed)
    d, ks = p.feature_dim, p.signal_dim
    # Raw QR: the paired (frame, partner) block spans 2*ks directions,
    # which may exceed the d/2 cap enforced on Subspace values.
    basis_2k, _ = np.linalg.qr(rng.standard_normal((d, 2 * ks)))
    frame0, partners0 = basis_2k[:, :ks], basis_2k[:, ks:]
    # Rotation angles are split across the frame directions so that rates
    # and offsets are geodesic distances on G(signal_dim, d); with one
    # planted direction the cumulative rotation is exactly n * drift_rate.
    per_direction = 1.0 / math.sqrt(ks)
    if p.target_offset != 0.0:
        # Rotate frame and partners together so the per-direction pairing
        # survives the offset.
        a = p.target_offset * per_direction
        target_frame = _rotate_frame(frame0, partners0, a)
        target_partners = partners0 * math.cos(a) - frame0 * math.sin(a)
    else:
        target_frame, target_partners = frame0, partners0

    spread = (
        np.asarray(p.signal_spread, dtype=float)
        if p.signal_spread
        else _default_spread(ks)
    )
    if spread.shape != (ks,):
        raise BadParameter("signal_spread must have one entry per signal dim")
    if not np.isfinite(spread).all():
        raise BadParameter("signal_spread entries must be finite")
    directions = _class_directions(p.n_classes, ks)

    def sample(frame: np.ndarray, labels: np.ndarray, shift: np.ndarray | None):
        latent = rng.standard_normal((labels.size, ks)) * spread
        x = (
            p.class_sep * directions[labels] @ frame.T
            + latent @ frame.T
            + p.ambient_std * rng.standard_normal((labels.size, d))
        )
        if shift is not None:
            x = x + shift
        return x

    source_y = rng.integers(0, p.n_classes, size=p.n_source)
    _check_source_classes(source_y, p.n_classes)
    source_x = sample(frame0, source_y, None)

    shift_direction = rng.standard_normal(d)
    shift_direction /= np.linalg.norm(shift_direction)

    rotating = p.drift_kind in ("rotation", "noisy-rotation")
    angles = (
        np.arange(1, p.n_batches + 1) * p.drift_rate * per_direction
        if rotating
        else None
    )
    batches = []
    jittered = []
    for n in range(1, p.n_batches + 1):
        clean = (
            _rotate_frame(target_frame, target_partners, angles[n - 1])
            if rotating
            else target_frame
        )
        observed = clean
        if p.drift_kind == "noisy-rotation":
            observed = perturbed_subspace(orthonormalize(clean), p.noise, rng).basis
            jittered.append(observed)
        shift = (
            n * p.drift_rate * shift_direction
            if p.drift_kind == "mean-shift"
            else None
        )
        y = rng.integers(0, p.n_classes, size=p.batch_size)
        x = sample(observed, y, shift)
        batches.append(StreamBatch(features=x, labels=y))

    truth = GroundTruth(
        frame=target_frame,
        partners=target_partners,
        n_batches=p.n_batches,
        angles=angles,
        jittered=tuple(jittered) if p.drift_kind == "noisy-rotation" else None,
    )
    return Stream(
        source_x=source_x,
        source_y=source_y,
        batches=tuple(batches),
        params=p.as_dict(),
        truth=truth,
    )


_KINDS = {"synthetic": DriftParams, "csv": DatasetSpec}


def stream_from_params(params: dict, batch_size: int | None = None) -> Stream:
    """Build a stream from a parameter dict (the CLI's, or a report's echo).

    ``kind`` picks the dataclass whose fields the other keys must be (a csv
    stream also takes ``batch_size``); a field left out keeps its default.
    An unknown kind or key, or a missing field without default, raises
    BadParameter.
    """
    params = dict(params)
    kind = params.pop("kind", None)
    if kind not in _KINDS:
        raise BadParameter(f"cannot rebuild a stream of kind {kind!r}")
    if batch_size is not None:
        params["batch_size"] = batch_size
    schema = fields(_KINDS[kind])
    unknown = sorted(set(params) - {f.name for f in schema} - {"batch_size"})
    missing = [f.name for f in schema if f.default is MISSING and f.name not in params]
    if unknown or missing:
        raise BadParameter(
            f"{kind} stream: unknown keys {unknown}, missing keys {missing}"
        )
    if kind == "synthetic":
        params["signal_spread"] = tuple(params.get("signal_spread", ()))
        return generate_drift_stream(DriftParams(**params))
    # A csv stream batches as a synthetic one does by default. An echoed
    # total_rows refuses a file that has since grown or shrunk.
    batch = params.pop("batch_size", DriftParams.batch_size)
    spec = DatasetSpec(**params)
    return load_csv_stream(spec.path, spec, batch)
