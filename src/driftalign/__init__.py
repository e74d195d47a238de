"""Streaming subspace-based domain adaptation on the Grassmann manifold.

The package covers the geometry (subspaces, geodesics, principal angles),
an incremental mean-subspace update with an iterative Karcher reference,
flow-integral alignment matrices (plain and cumulative), next-subspace
prediction with compensation, the end-to-end mini-batch adaptation loop,
and an experiment CLI over CSV or synthetic drifting streams.
"""

from .classifiers import (
    Classifier,
    classify,
    train_source_classifier,
    update_classifier,
)
from .errors import (
    AngleClampWarning,
    AngleOutOfRange,
    BadParameter,
    BlendOutOfRange,
    ConfigError,
    CsvParseError,
    CutLocusError,
    DimensionMismatch,
    DriftAlignError,
    EmptyClassError,
    LabelOutOfRange,
    LengthMismatch,
    NoConvergence,
    NotTangentError,
    RankDeficient,
)
from .experiments import (
    ExperimentReport,
    MeanComparisonRow,
    SweepCell,
    compare_means,
    config_for_variant,
    rerun_from_report,
    run_experiment,
    sweep,
)
from .grassmann import (
    PrincipalDecomposition,
    Subspace,
    exp_map,
    geodesic,
    geodesic_distance,
    geodesic_point,
    log_map,
    orthonormalize,
    principal_decomposition,
)
from .means import (
    KarcherResult,
    MeanState,
    icms_update,
    incremental_average_transform,
    init_mean,
    karcher_mean,
    perturbed_subspace,
)
from .pipeline import (
    BatchRecord,
    PipelineConfig,
    PipelineState,
    StreamBatch,
    VARIANTS,
    average_accuracy,
    init_pipeline,
    pca_subspace,
    process_batch,
)
from .prediction import compensate, predict_next
from .streams import (
    DatasetSpec,
    DriftParams,
    GroundTruth,
    Stream,
    generate_drift_stream,
    load_csv_stream,
    stream_from_params,
    write_csv_stream,
)
from .transforms import (
    TransformMatrix,
    apply_transform,
    cumulative_transform,
    delta_blocks,
    gfk_transform,
    lambda_blocks,
)

__version__ = "0.1.0"
