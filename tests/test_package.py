import ast
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
        "OutlyingnessReport",
        "SdsvmError",
        "SimulationSpec",
        "SvmModel",
        "TrimPlan",
        "decision_values",
        "default_policy",
        "dual_objective",
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
        "map_to_csv",
        "map_to_svg",
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


def test_cross_module_private_imports_are_pinned():
    # A format or rule that leaks from one module into another shows up as
    # a diff of this list.
    package = Path(sdsvm.__file__).resolve().parent
    imports = sorted(
        (path.stem, f"{node.module}.{alias.name}")
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    )
    assert imports == [
        ("data", "kernels._frozen"),
        ("outlyingness", "kernels._frozen"),
        ("pipeline", "kernels._frozen"),
        ("pipeline", "svm._INTERIOR_TOL"),
        ("svm", "kernels._frozen"),
    ]
