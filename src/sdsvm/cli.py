"""Command-line entry point: fit, map, simulate, and toy workflows.

Exit codes: 0 success, 1 flag/validation problems, 2 computation errors.
All randomness flows from --seed; two runs with identical argv produce
byte-identical outputs.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, outliermap
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
from .outlyingness import DirectionPolicy
from .pipeline import (
    DEFAULT_C,
    DEFAULT_C_GRID,
    CvConfig,
    check_kappa,
    fit_from_text,
    fit_sdsvm,
    fit_to_text,
)


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _add_data_flags(parser):
    parser.add_argument(
        "--format", choices=("auto", "csv", "fasta"), default="auto", help="input file format"
    )
    parser.add_argument("--labels", default=None, help="labels file (FASTA input)")
    parser.add_argument("--label-col", default="last", help="CSV label column: first/last/index")
    parser.add_argument("--coding", default=None, help="two-value label coding NEG,POS")


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
        help="'auto' (exhaustive up to 100 samples, else 2000 pairs sampled from --seed), "
        "'exhaustive', or a sampled pair count",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")


def _add_map_output_flags(parser):
    parser.add_argument("--out-csv", default=None, help="map CSV path ('-' for stdout)")
    parser.add_argument("--out-svg", default=None, help="map SVG path")
    parser.add_argument("--label-top", type=int, default=5, help="ids printed for top-N outlyingness")
    parser.add_argument("--threshold", type=float, default=None, help="dashed outlyingness line")


@functools.cache
def build_parser() -> _Parser:
    """The sdsvm argument parser, built once per process (2.5 ms a build).

    parse_args leaves it unchanged, so every main() call shares it; callers
    must not modify it.
    """
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
    _add_data_flags(fit)
    _add_kernel_flags(fit)
    _add_fit_flags(fit)
    fit.add_argument("--out-fit", default="-", help="fit report path ('-' for stdout)")
    fit.set_defaults(handler=_cmd_fit, parser=fit)

    map_cmd = sub.add_parser(
        "map",
        help="render an outlier map from a dataset or a saved fit report",
        formatter_class=formatter,
    )
    map_cmd.add_argument("data", nargs="?", default=None, help="dataset path (omit with --fit)")
    map_cmd.add_argument("--fit", dest="fit_report", default=None, help="saved fit report to re-render")
    _add_data_flags(map_cmd)
    _add_kernel_flags(map_cmd)
    _add_fit_flags(map_cmd)
    _add_map_output_flags(map_cmd)
    map_cmd.set_defaults(handler=_cmd_map, parser=map_cmd)

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
    sim.set_defaults(handler=_cmd_simulate, parser=sim)

    toy = sub.add_parser(
        "toy",
        help="generate the 66-point toy dataset, fit it, emit map outputs",
        formatter_class=formatter,
    )
    _add_kernel_flags(toy)
    _add_fit_flags(toy)
    _add_map_output_flags(toy)
    toy.add_argument("--out-fit", default=None, help="fit report path")
    toy.set_defaults(handler=_cmd_toy, parser=toy)
    return parser


def _check_threshold(parser, args):
    """Reject a non-finite or negative --threshold before any work; no
    settings type holds it."""
    threshold = getattr(args, "threshold", None)
    if threshold is not None and not (math.isfinite(threshold) and threshold >= 0):
        parser.error(
            f"--threshold must be finite and >= 0 (outlyingness is never negative), got {threshold}"
        )


def _numbers(parser, flag, text) -> tuple:
    """The floats of a comma list; an empty or non-numeric token exits 1 naming flag."""
    try:
        return tuple(float(tok) for tok in text.split(","))
    except ValueError:
        parser.error(f"{flag} must be a comma list of numbers, got {text!r}")


def _grid_from_args(parser, args) -> tuple:
    if args.C is not None and args.cv_grid is not None:
        parser.error("use exactly one of --C / --cv-grid")
    if args.C is not None:
        return (args.C,)
    if args.cv_grid is None:
        return (DEFAULT_C,)
    if args.cv_grid == "default":
        return DEFAULT_C_GRID
    return _numbers(parser, "--cv-grid", args.cv_grid)


def _policy_from_args(parser, args) -> DirectionPolicy:
    text = args.directions
    if text in ("auto", "exhaustive"):
        return DirectionPolicy(mode=text, seed=args.seed)
    try:
        count = int(text)
    except ValueError:
        parser.error(f"--directions must be 'auto', 'exhaustive', or an integer, got {text!r}")
    return DirectionPolicy(mode="sampled", count=count, seed=args.seed)


def _settings(parser, args) -> dict:
    """The settings the flags describe, as keyword arguments of fit_sdsvm
    (or, under simulate, of run_simulation), built before any work.

    Each settings type checks its own fields; the ValueError of a bad one
    starts with the field's name and exits 1 naming the field's flag.
    """
    grid = _grid_from_args(parser, args)
    if args.command == "simulate":
        kappas = _numbers(parser, "--kappas", args.kappas)
    try:
        kernel = KernelSpec(
            kind=args.kernel,
            gamma=args.gamma,
            degree=args.degree,
            coef0=args.coef0,
            kmer=args.kmer,
        )
        cv = CvConfig(folds=args.folds, grid=grid, seed=args.seed)
        policy = _policy_from_args(parser, args)
        if args.command != "simulate":
            return {"spec": kernel, "kappa": check_kappa(args.kappa), "cv": cv, "policy": policy}
        spec = SimulationSpec(
            n_per_group=args.n,
            dim=args.d,
            shift=args.shift,
            outliers_per_group=4 if args.contaminated else 0,
            test_size=args.test_size,
            runs=args.runs,
            kappas=kappas,
            seed=args.seed,
        )
        return {"spec": spec, "kernel": kernel, "cv": cv, "policy": policy}
    except ValueError as exc:  # "<field> <rule>", reported as "<flag> <rule>"
        field, _, rule = str(exc).partition(" ")
        flag = {
            "n_per_group": "--n",
            "dim": "--d",
            "count": "--directions",
            "grid": "--cv-grid" if args.C is None else "--C",
            "kappa": "--kappas" if args.command == "simulate" else "--kappa",
        }.get(field, "--" + field.replace("_", "-"))
        parser.error(f"{flag} {rule}")


def _loader(parser, args):
    """The dataset loader the data flags describe, checked before any work.

    A data flag that does not apply to the input's format exits 1 naming
    it: --labels with CSV, --coding or a --label-col other than last with
    FASTA.  Under map --fit, which loads no dataset, the flags are checked
    all the same (the format rule only under an explicit --format), and
    --labels, which is read only with a FASTA dataset, exits 1.
    """
    unread_labels = "--labels is read only with a FASTA dataset, and map --fit reads none"
    fmt = args.format
    if fmt == "auto" and args.data is not None:
        lower = args.data.lower()
        fmt = "fasta" if lower.endswith((".fa", ".fasta", ".fst", ".faa", ".fna")) else "csv"
    if fmt == "fasta":
        if args.coding is not None:
            parser.error("--coding applies to CSV input only")
        if args.label_col != "last":
            parser.error("--label-col applies to CSV input only")
        if args.data is not None and not args.labels:
            parser.error("--labels is required for FASTA input")
        if args.data is None and args.labels is not None:
            parser.error(unread_labels)
        return functools.partial(load_fasta, args.data, args.labels)
    if args.labels is not None:
        parser.error("--labels applies to FASTA input only" if fmt == "csv" else unread_labels)
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
    return functools.partial(load_csv, args.data, label_col=label_col, coding=coding)


def _emit_map_outputs(args, fit):
    # The writers are looked up on their module, where perfbench/tracer.py
    # wraps them.  With neither flag the CSV goes to stdout.
    out_csv = "-" if args.out_csv is None and args.out_svg is None else args.out_csv
    if out_csv is not None:
        write_text(out_csv, outliermap.map_to_csv(fit))
    if args.out_svg is not None:
        write_text(args.out_svg, outliermap.map_to_svg(fit, args.label_top, args.threshold))


def _cmd_fit(parser, args) -> int:
    settings = _settings(parser, args)
    fit = fit_sdsvm(run_stage("load", _loader(parser, args)), **settings)
    run_stage("write", write_text, args.out_fit, fit_to_text(fit))
    return 0


def _cmd_map(parser, args) -> int:
    if (args.data is None) == (args.fit_report is None):
        parser.error("map needs a dataset path or --fit, not both")
    # Both built on the --fit path too, so that every flag map takes is checked.
    settings = _settings(parser, args)
    load = _loader(parser, args)
    if args.fit_report is not None:
        fit = run_stage("load", lambda: fit_from_text(read_text(args.fit_report)))
    else:
        fit = fit_sdsvm(run_stage("load", load), **settings)
    run_stage("render", _emit_map_outputs, args, fit)
    return 0


def _cmd_simulate(parser, args) -> int:
    result = run_simulation(**_settings(parser, args))
    failures = {row.failure for row in result.rows}
    if None not in failures:
        raise SdsvmError(f"every (run, kappa) cell failed: {', '.join(sorted(failures))}")
    run_stage("write", write_text, args.out_csv, simulation_rows_csv(result))
    sys.stdout.write(simulation_summary_csv(result))
    return 0


def _cmd_toy(parser, args) -> int:
    fit = fit_sdsvm(gen_toy(args.seed), **_settings(parser, args))
    if args.out_fit is not None:
        run_stage("write", write_text, args.out_fit, fit_to_text(fit))
    run_stage("render", _emit_map_outputs, args, fit)
    return 0


@functools.cache
def _openblas_thread_setter():
    """scipy_openblas_set_num_threads64_ of numpy's bundled OpenBLAS
    (numpy.libs/libscipy_openblas64_*.so), or None when this numpy ships no
    such library or symbol; looked up once per process."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    path = min(libs.glob("libscipy_openblas64_*.so"), default=None)
    if path is None:
        return None
    try:
        setter = ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):  # not loadable, or no such symbol
        return None
    setter.argtypes = [ctypes.c_int]
    setter.restype = None
    return setter


def main(argv=None) -> int:
    """Run one sdsvm command and return its exit code.

    Changes process BLAS state: numpy's bundled OpenBLAS stays on one thread
    for the rest of the process (a no-op under any other BLAS).
    """
    # Every BLAS product of a command is small, and after each threaded call
    # OpenBLAS's idle worker spins on a second core: one thread costs about
    # the same wall time, half the CPU, and leaves no byte depending on
    # OPENBLAS_NUM_THREADS.  Not restored on return: a caller's own threaded
    # BLAS would wake the spinning worker again.
    setter = _openblas_thread_setter()
    if setter is not None:
        setter(1)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # Flag errors found after parsing print the subcommand's usage, as
        # argparse's own errors do.
        _check_threshold(args.parser, args)
        return args.handler(args.parser, args)
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
