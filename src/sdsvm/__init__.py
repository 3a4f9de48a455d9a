"""Kernelized Stahel-Donoho outlyingness, trimmed SVM, and outlier maps."""

from .data import (
    Dataset,
    SimulationSpec,
    gen_simulation,
    gen_toy,
    load_csv,
    load_fasta,
    run_simulation,
)
from .errors import SdsvmError
from .kernels import KernelMatrix, KernelSpec, kernel_cross, kernel_matrix
from .outliermap import (
    OutlierMapPoint,
    build_map,
    emit_csv,
    emit_svg,
)
from .outlyingness import (
    DirectionPolicy,
    OutlyingnessReport,
    default_policy,
    outlyingness,
)
from .pipeline import (
    CvConfig,
    FitResult,
    TrimPlan,
    fit_from_text,
    fit_ranked,
    fit_sdsvm,
    fit_to_text,
    rank,
    select_C,
    trim,
)
from .svm import (
    SvmModel,
    decision_values,
    dual_objective,
    solve_dual,
)

__version__ = "0.1.0"

__all__ = [
    "CvConfig",
    "Dataset",
    "DirectionPolicy",
    "FitResult",
    "KernelMatrix",
    "KernelSpec",
    "OutlierMapPoint",
    "OutlyingnessReport",
    "SdsvmError",
    "SimulationSpec",
    "SvmModel",
    "TrimPlan",
    "build_map",
    "decision_values",
    "default_policy",
    "dual_objective",
    "emit_csv",
    "emit_svg",
    "fit_from_text",
    "fit_ranked",
    "fit_sdsvm",
    "fit_to_text",
    "gen_simulation",
    "gen_toy",
    "kernel_cross",
    "kernel_matrix",
    "load_csv",
    "load_fasta",
    "outlyingness",
    "rank",
    "run_simulation",
    "select_C",
    "solve_dual",
    "trim",
]
