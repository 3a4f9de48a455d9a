"""Command-line entry point: fit, map, simulate, and toy workflows.

Exit codes: 0 success, 1 flag/validation problems, 2 computation errors.
All randomness flows from --seed; two runs with identical argv produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .data import (
    SimulationSpec,
    gen_toy,
    load_csv,
    load_fasta,
    run_simulation,
    simulation_rows_csv,
    simulation_summary_csv,
)
from .errors import PipelineError, SdsvmError, read_text, run_stage, write_text
from .kernels import KernelSpec
from .outliermap import MapStyle, build_map, emit_csv, emit_svg
from .outlyingness import DirectionPolicy
from .pipeline import CvConfig, DEFAULT_C, fit_from_text, fit_sdsvm, fit_to_text


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_kernel_flags(parser):
    parser.add_argument(
        "--kernel",
        choices=("linear", "rbf", "polynomial", "spectrum"),
        default="linear",
        help="kernel function",
    )
    parser.add_argument("--gamma", type=float, default=1.0, help="rbf/polynomial scale")
    parser.add_argument("--degree", type=int, default=3, help="polynomial degree")
    parser.add_argument("--coef0", type=float, default=0.0, help="polynomial offset")
    parser.add_argument("--kmer", type=int, default=3, help="spectrum substring length")


def _add_fit_flags(parser):
    parser.add_argument("--kappa", type=float, default=0.5, help="retained fraction per group")
    parser.add_argument("--C", type=float, default=None, help="fixed box constraint")
    parser.add_argument(
        "--cv-grid",
        default=None,
        help="comma list of C values to cross-validate, or 'default' for the built-in grid",
    )
    parser.add_argument("--folds", type=int, default=10, help="cross-validation folds")
    parser.add_argument(
        "--directions",
        default="auto",
        help="'auto' (exhaustive up to 100 samples, else 2000 sampled), "
        "'exhaustive', or a sampled pair count",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def _add_map_output_flags(parser):
    parser.add_argument("--out-csv", default=None, help="map CSV path ('-' for stdout)")
    parser.add_argument("--out-svg", default=None, help="map SVG path")
    parser.add_argument("--label-top", type=int, default=5, help="ids printed for top-N outlyingness")
    parser.add_argument("--threshold", type=float, default=None, help="dashed outlyingness line")


def build_parser() -> _Parser:
    parser = _Parser(prog="sdsvm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"sdsvm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    formatter = argparse.ArgumentDefaultsHelpFormatter

    fit = sub.add_parser(
        "fit",
        help="trim + train on a dataset, write the fit report",
        formatter_class=formatter,
    )
    fit.add_argument("data", help="dataset path (CSV vectors or FASTA strings)")
    fit.add_argument(
        "--format", choices=("auto", "csv", "fasta"), default="auto", help="input file format"
    )
    fit.add_argument("--labels", default=None, help="labels file (FASTA input)")
    fit.add_argument("--label-col", default="last", help="CSV label column: first/last/index")
    fit.add_argument("--coding", default=None, help="two-value label coding NEG,POS")
    _add_kernel_flags(fit)
    _add_fit_flags(fit)
    fit.add_argument("--out-fit", default="-", help="fit report path ('-' for stdout)")

    map_cmd = sub.add_parser(
        "map",
        help="render an outlier map from a dataset or a saved fit report",
        formatter_class=formatter,
    )
    map_cmd.add_argument("data", nargs="?", default=None, help="dataset path (omit with --fit)")
    map_cmd.add_argument("--fit", dest="fit_report", default=None, help="saved fit report to re-render")
    map_cmd.add_argument(
        "--format", choices=("auto", "csv", "fasta"), default="auto", help="input file format"
    )
    map_cmd.add_argument("--labels", default=None, help="labels file (FASTA input)")
    map_cmd.add_argument("--label-col", default="last", help="CSV label column: first/last/index")
    map_cmd.add_argument("--coding", default=None, help="two-value label coding NEG,POS")
    _add_kernel_flags(map_cmd)
    _add_fit_flags(map_cmd)
    _add_map_output_flags(map_cmd)

    sim = sub.add_parser(
        "simulate",
        help="Monte-Carlo benchmark over runs and kappa values",
        formatter_class=formatter,
    )
    sim.add_argument("--runs", type=int, default=50, help="simulation runs")
    sim.add_argument("--kappas", default="0.5,0.7,0.9,1", help="comma list of kappa values")
    sim.add_argument("--contaminated", action="store_true", help="plant 4 outliers per group")
    sim.add_argument("--n", type=int, default=25, help="clean samples per group")
    sim.add_argument("--d", type=int, default=1000, help="dimension")
    sim.add_argument("--shift", type=float, default=0.18, help="positive-group mean shift")
    sim.add_argument("--test-size", type=int, default=600, help="test samples per run")
    _add_kernel_flags(sim)
    _add_fit_flags(sim)
    sim.add_argument("--out-csv", default="-", help="per-run table path ('-' for stdout)")

    toy = sub.add_parser(
        "toy",
        help="generate the 66-point toy dataset, fit it, emit map outputs",
        formatter_class=formatter,
    )
    _add_kernel_flags(toy)
    _add_fit_flags(toy)
    _add_map_output_flags(toy)
    toy.add_argument("--out-fit", default=None, help="fit report path")
    return parser


def _kernel_from_args(parser, args) -> KernelSpec:
    if args.gamma is not None and args.gamma <= 0:
        parser.error(f"--gamma must be positive, got {args.gamma}")
    if args.degree < 1:
        parser.error(f"--degree must be >= 1, got {args.degree}")
    if args.kmer < 1:
        parser.error(f"--kmer must be >= 1, got {args.kmer}")
    return KernelSpec(
        kind=args.kernel,
        gamma=args.gamma,
        degree=args.degree,
        coef0=args.coef0,
        kmer=args.kmer,
    )


def _policy_from_args(parser, args) -> DirectionPolicy | None:
    text = args.directions
    if text == "auto":
        return None
    if text == "exhaustive":
        return DirectionPolicy(mode="exhaustive", seed=args.seed)
    try:
        count = int(text)
    except ValueError:
        parser.error(f"--directions must be 'auto', 'exhaustive', or an integer, got {text!r}")
    if count < 1:
        parser.error(f"--directions count must be >= 1, got {count}")
    return DirectionPolicy(mode="sampled", count=count, seed=args.seed)


def _cv_from_args(parser, args) -> CvConfig:
    if args.C is not None and args.cv_grid is not None:
        parser.error("use exactly one of --C / --cv-grid")
    if args.folds < 2:
        parser.error(f"--folds must be >= 2, got {args.folds}")
    if args.C is not None:
        if args.C <= 0:
            parser.error(f"--C must be positive, got {args.C}")
        grid = (args.C,)
    elif args.cv_grid is not None:
        if args.cv_grid == "default":
            from .pipeline import DEFAULT_C_GRID

            grid = DEFAULT_C_GRID
        else:
            try:
                grid = tuple(float(tok) for tok in args.cv_grid.split(","))
            except ValueError:
                parser.error(f"--cv-grid must be a comma list of numbers, got {args.cv_grid!r}")
            if any(c <= 0 for c in grid):
                parser.error("--cv-grid values must be positive")
    else:
        grid = (DEFAULT_C,)
    return CvConfig(folds=args.folds, grid=grid, seed=args.seed)


def _validate_kappa(parser, kappa):
    if not 0.5 <= kappa <= 1.0:
        parser.error(f"--kappa must be in [0.5, 1], got {kappa}")


def _load_dataset(parser, args):
    fmt = args.format
    if fmt == "auto":
        lower = args.data.lower()
        fmt = "fasta" if lower.endswith((".fa", ".fasta", ".fst", ".faa", ".fna")) else "csv"
    if fmt == "fasta":
        if not args.labels:
            parser.error("--labels is required for FASTA input")
        return load_fasta(args.data, args.labels)
    coding = None
    if args.coding is not None:
        parts = args.coding.split(",")
        if len(parts) != 2:
            parser.error(f"--coding must be NEG,POS, got {args.coding!r}")
        coding = (parts[0], parts[1])
    label_col = args.label_col
    if label_col not in ("first", "last"):
        try:
            label_col = int(label_col)
        except ValueError:
            parser.error(f"--label-col must be first/last or an index, got {label_col!r}")
    return load_csv(args.data, label_col=label_col, coding=coding)


def _emit_map_outputs(args, fit):
    points = build_map(fit)
    style = MapStyle(label_top=args.label_top, threshold=args.threshold)
    wrote = False
    if args.out_csv is not None:
        emit_csv(points, args.out_csv)
        wrote = True
    if args.out_svg is not None:
        emit_svg(points, style, args.out_svg)
        wrote = True
    if not wrote:
        emit_csv(points, "-")


def _fit_from_args(parser, args, load_dataset):
    """Validate the fit flags, then fit the dataset that load_dataset() returns."""
    _validate_kappa(parser, args.kappa)
    spec = _kernel_from_args(parser, args)
    cv = _cv_from_args(parser, args)
    policy = _policy_from_args(parser, args)
    return fit_sdsvm(load_dataset(), spec, kappa=args.kappa, cv=cv, policy=policy)


def _cmd_fit(parser, args) -> int:
    fit = _fit_from_args(parser, args, lambda: run_stage("load", _load_dataset, parser, args))
    run_stage("write", write_text, args.out_fit, fit_to_text(fit))
    return 0


def _cmd_map(parser, args) -> int:
    if (args.data is None) == (args.fit_report is None):
        parser.error("map needs a dataset path or --fit, not both")
    if args.fit_report is not None:
        fit = run_stage("load", lambda: fit_from_text(read_text(args.fit_report)))
    else:
        fit = _fit_from_args(parser, args, lambda: run_stage("load", _load_dataset, parser, args))
    run_stage("render", _emit_map_outputs, args, fit)
    return 0


def _cmd_simulate(parser, args) -> int:
    try:
        kappas = [float(tok) for tok in args.kappas.split(",") if tok]
    except ValueError:
        parser.error(f"--kappas must be a comma list of numbers, got {args.kappas!r}")
    if not kappas:
        parser.error("--kappas must list at least one value")
    for kappa in kappas:
        _validate_kappa(parser, kappa)
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")
    spec = SimulationSpec(
        n_per_group=args.n,
        dim=args.d,
        shift=args.shift,
        outliers_per_group=4 if args.contaminated else 0,
        test_size=args.test_size,
        runs=args.runs,
        kappas=tuple(kappas),
        seed=args.seed,
    )
    kernel = _kernel_from_args(parser, args)
    cv = _cv_from_args(parser, args)
    policy = _policy_from_args(parser, args)
    result = run_simulation(spec, kernel, cv=cv, policy=policy)
    failures = {row.failure for row in result.rows}
    if None not in failures:
        raise SdsvmError(f"every (run, kappa) cell failed: {', '.join(sorted(failures))}")
    run_stage("write", write_text, args.out_csv, simulation_rows_csv(result))
    sys.stdout.write(simulation_summary_csv(result))
    return 0


def _cmd_toy(parser, args) -> int:
    fit = _fit_from_args(parser, args, lambda: gen_toy(args.seed))
    if args.out_fit is not None:
        run_stage("write", write_text, args.out_fit, fit_to_text(fit))
    run_stage("render", _emit_map_outputs, args, fit)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    handlers = {
        "fit": _cmd_fit,
        "map": _cmd_map,
        "simulate": _cmd_simulate,
        "toy": _cmd_toy,
    }
    try:
        return handlers[args.command](parser, args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except PipelineError as exc:
        print(f"sdsvm: error in {exc.stage}: {exc.cause}", file=sys.stderr)
        return 2
    except SdsvmError as exc:
        print(f"sdsvm: error in {args.command}: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
