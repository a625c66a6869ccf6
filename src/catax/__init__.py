"""Correspondence analysis and taxicab correspondence analysis of
contingency tables, with per-point embedding-distortion diagnostics and
intrinsic-dimension bounds."""

from .ca import ca_decompose
from .cli import AnalysisConfig, main, run
from .contingency import (
    COLS,
    ROWS,
    ContingencyTable,
    CorrespondenceModel,
    InvalidTableError,
    build_model,
    load_table,
    sparsity,
    standardized_residual,
)
from .decomposition import FactorDecomposition, numerical_rank
from .distortion import (
    CONTRACTION,
    ISOMETRY,
    STRETCHING,
    DistortionReport,
    IntrinsicDimensionBounds,
    benzecri_distance,
    ca_total_inertia,
    classify,
    distortion_constants,
    distortion_report,
    embedded_l1_distance,
    embedded_sq_distance,
    intrinsic_dimension_bounds,
    profile,
    taxicab_distance,
    tca_total_dispersion,
)
from .report import emit_report, report_to_dict
from .svgmap import emit_map
from .tca import (
    EXHAUSTIVE_LIMIT,
    TsvdStepResult,
    tca_decompose,
    tsvd_step_exhaustive,
    tsvd_step_iterative,
)

__version__ = "0.1.0"

__all__ = [
    "ContingencyTable",
    "CorrespondenceModel",
    "InvalidTableError",
    "load_table",
    "build_model",
    "sparsity",
    "profile",
    "ROWS",
    "COLS",
    "FactorDecomposition",
    "numerical_rank",
    "standardized_residual",
    "ca_decompose",
    "benzecri_distance",
    "ca_total_inertia",
    "embedded_sq_distance",
    "TsvdStepResult",
    "tsvd_step_exhaustive",
    "tsvd_step_iterative",
    "tca_decompose",
    "taxicab_distance",
    "tca_total_dispersion",
    "embedded_l1_distance",
    "EXHAUSTIVE_LIMIT",
    "CONTRACTION",
    "ISOMETRY",
    "STRETCHING",
    "classify",
    "DistortionReport",
    "distortion_report",
    "distortion_constants",
    "IntrinsicDimensionBounds",
    "intrinsic_dimension_bounds",
    "emit_report",
    "report_to_dict",
    "emit_map",
    "AnalysisConfig",
    "run",
    "main",
    "__version__",
]
