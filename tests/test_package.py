import re
from pathlib import Path

import sdsvm


def test_every_export_is_a_package_attribute():
    # A stale name in __all__ would break `from sdsvm import *`.
    assert [name for name in sdsvm.__all__ if not hasattr(sdsvm, name)] == []


def test_exported_names_are_pinned():
    # Adding or removing a public name shows up as a diff of this list.
    assert sorted(sdsvm.__all__) == [
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
        "model_from_text",
        "model_to_text",
        "outlyingness",
        "rank",
        "run_simulation",
        "select_C",
        "solve_dual",
        "trim",
    ]


def test_readme_names_every_export():
    # An export the README does not name in backticks is one a user cannot find.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in sdsvm.__all__ if not re.search(rf"`{name}\b", readme)] == []
