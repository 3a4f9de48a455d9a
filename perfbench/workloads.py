"""The three benchmark workloads: one op each, driven through `sdsvm.cli.main`.

A workload builds its inputs from the workload seed, runs one op for an op
seed derived from it, and checks that op's output against `oracle`.  Checks
return a list of problems; an empty list means the op is correct.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import xml.etree.ElementTree as ET

import numpy as np

import oracle

KAPPAS = (0.5, 0.7, 0.9, 1.0)
DEFAULT_C_GRID = tuple(2.0**p for p in range(-5, 16, 2))


def _call(main, argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class Simulate:
    """`sdsvm simulate --runs 1`: one Monte-Carlo run over the kappa grid."""

    def __init__(self, contaminated, flags, c_grid):
        self.contaminated = contaminated
        self.flags = flags
        self.c_grid = c_grid

    def prepare(self, workdir, seed):
        """Inputs come from the op seed alone; nothing to write."""

    def run(self, main, op_seed):
        code, out, err = _call(main, ["simulate", "--runs", "1", "--seed", str(op_seed), *self.flags])
        return [code], {"stdout": out, "stderr": err}

    def check(self, op_seed, outputs):
        lines = outputs["stdout"].splitlines()
        if len(lines) != 2 * (len(KAPPAS) + 1):
            return [f"expected {2 * (len(KAPPAS) + 1)} output lines, got {len(lines)}"]
        if lines[0] != "run,kappa,error" or lines[len(KAPPAS) + 1] != "kappa,median,q1,q3":
            return ["table headers missing"]
        problems, errors = [], {}
        for kappa, row, summary in zip(KAPPAS, lines[1 : len(KAPPAS) + 1], lines[len(KAPPAS) + 2 :]):
            try:
                run, k, error = row.split(",")
                k2, *stats = (float(v) for v in summary.split(","))
                error, k = float(error), float(k)
            except ValueError:
                return [f"unparsable rows {row!r} / {summary!r}"]
            if run != "0" or k != kappa or k2 != kappa:
                problems.append(f"row {row!r} is not run 0 at kappa {kappa}")
            if not (math.isfinite(error) and 0.0 <= error <= 1.0) or abs(error * 600 - round(error * 600)) > 1e-9:
                problems.append(f"kappa {kappa}: error {error!r} is not a count out of 600")
            if stats != [error, error, error]:
                problems.append(f"kappa {kappa}: one-run summary {stats} differs from error {error}")
            errors[kappa] = error
        if problems:
            return problems
        expected = oracle.simulation_expectation(op_seed, self.contaminated, KAPPAS, self.c_grid)
        for kappa, error in errors.items():
            if not any(lo - 1e-12 <= error <= hi + 1e-12 for lo, hi in expected[kappa]):
                problems.append(f"kappa {kappa}: test error {error} outside reference {expected[kappa]}")
        return problems

    def test_error(self, outputs):
        return float(outputs["stdout"].splitlines()[1].split(",")[2])


class FitAndMap:
    """`sdsvm fit` on a 2000 x 20 RBF dataset, then `sdsvm map --fit` re-render."""

    name = "cli-rbf-2000"
    n_per_class, dim, shift = 1000, 20, 0.5
    gamma, kappa, c, directions = 0.05, 0.75, 1.0, 2000
    # 10000 held-out points keep the sampling error of test_err near 3%.
    holdout_per_class = 5000
    _kernel = None

    def prepare(self, workdir, seed):
        x, self.y = self._draw(np.random.default_rng([seed, 2000]), self.n_per_class)
        if self._kernel is not None and not np.array_equal(x, self.x):
            self._kernel = None
        self.x = x
        self.x_holdout, self.y_holdout = self._draw(np.random.default_rng([seed, 2001]), self.holdout_per_class)
        self.paths = {k: os.path.join(workdir, f"{self.name}.{k}") for k in ("csv", "fit", "map.csv", "map.svg")}
        rows = np.column_stack([self.x, self.y])
        with open(self.paths["csv"], "w", encoding="utf-8") as fh:
            fh.write("".join(",".join(repr(float(v)) for v in row[:-1]) + f",{int(row[-1])}\n" for row in rows))

    def _draw(self, rng, n):
        d = self.dim
        x = np.vstack([rng.standard_normal((n, d)), rng.standard_normal((n, d)) + self.shift])
        return x, np.concatenate([-np.ones(n), np.ones(n)])

    def run(self, main, op_seed):
        p = self.paths
        fit = _call(main, [
            "fit", p["csv"], "--kernel", "rbf", "--gamma", str(self.gamma), "--kappa", str(self.kappa),
            "--C", str(self.c), "--seed", str(op_seed), "--directions", str(self.directions), "--out-fit", p["fit"],
        ])
        shown = _call(main, ["map", "--fit", p["fit"], "--out-csv", p["map.csv"], "--out-svg", p["map.svg"]])
        return [fit[0], shown[0]], {"stderr": fit[2] + shown[2]}

    def collect(self, outputs):
        """Read the op's files (outside the timed region)."""
        for key in ("fit", "map.csv", "map.svg"):
            with open(self.paths[key], encoding="utf-8") as fh:
                outputs[key] = fh.read()

    def check(self, op_seed, outputs):
        if self._kernel is None:
            self._kernel = oracle.rbf_gram(self.x, self.gamma)
        try:
            report = parse_fit_report(outputs["fit"])
        except (ValueError, IndexError, KeyError) as exc:
            return [f"fit report does not parse: {exc}"]
        problems = []
        y, kk = self.y, self._kernel
        n = y.size
        if report["kappa"] != self.kappa or report["chosen_c"] != self.c or report["model_c"] != self.c:
            problems.append("kappa or C in the report differ from the command line")
        if report["ids"] != [str(i + 1) for i in range(n)] or not np.array_equal(report["labels"], y):
            return problems + ["sample ids or labels differ from the dataset"]
        r, trimmed, f = report["r"], report["trimmed"], report["f"]
        if not (np.all(np.isfinite(r)) and np.all(np.isfinite(f))):
            problems.append("non-finite outlyingness or decision value")
        for group in (np.flatnonzero(y < 0), np.flatnonzero(y > 0)):
            kept = group[~trimmed[group]]
            if kept.size != oracle.keep_count(self.kappa, group.size):
                problems.append(f"group keeps {kept.size} of {group.size}")
            elif kept.size < group.size and r[kept].max() > r[group[trimmed[group]]].min():
                problems.append("a trimmed sample is less outlying than a retained one")
        expected_r = oracle.group_outlyingness(kk, y, self.directions, op_seed)
        if not np.array_equal(r, expected_r):
            problems.append(f"outlyingness differs from the reference in {np.count_nonzero(r != expected_r)} samples")
        keep = oracle.retained(expected_r, y, self.kappa)
        if not np.array_equal(np.flatnonzero(~trimmed), keep):
            return problems + ["trimmed flags differ from the reference"]
        problems += _model_certificate(report, kk, y, keep, self.c)
        problems += _map_matches(outputs["map.csv"], outputs["map.svg"], outputs["fit"], y, r)
        return problems

    def test_error(self, outputs):
        report = parse_fit_report(outputs["fit"])
        keep = np.array([int(i) - 1 for i in report["model_ids"]])
        beta = report["alpha"] * report["model_labels"]
        wrong = 0
        for start in range(0, self.y_holdout.size, 2000):
            block = slice(start, start + 2000)
            f = beta @ oracle.rbf_cross(self.x[keep], self.x_holdout[block], self.gamma) + report["bias"]
            wrong += np.count_nonzero(np.where(f >= 0.0, 1.0, -1.0) != self.y_holdout[block])
        return wrong / self.y_holdout.size


def parse_fit_report(text):
    lines = text.splitlines()
    if lines[0] != "sdsvm-fit-v1":
        raise ValueError("not a fit report")
    head = {}
    pos = 1
    while not lines[pos].startswith("cv-table "):
        key, _, value = lines[pos].partition(" ")
        head[key] = value
        pos += 1
    pos += 1 + int(lines[pos].split()[1])
    model_lines = int(lines[pos].split()[1])
    model = lines[pos + 1 : pos + 1 + model_lines]
    pos += 1 + model_lines
    n = int(lines[pos].split()[1])
    if lines[pos + 1] != "id label outlyingness trimmed f":
        raise ValueError("sample table header missing")
    rows = [line.split() for line in lines[pos + 2 : pos + 2 + n]]
    if len(rows) != n or any(len(row) != 5 for row in rows) or len(lines) != pos + 2 + n:
        raise ValueError("sample table is malformed")
    fields = dict(tok.split("=", 1) for tok in model[0].split()[1:])
    sv = [line.split() for line in model[1:-1]]
    if not model[-1].startswith("bias "):
        raise ValueError("model block has no bias")
    return {
        "kappa": float(head["kappa"]),
        "chosen_c": float(head["chosen-c"]),
        "model_c": float(fields["C"]),
        "tol": float(fields["tol"]),
        "ids": [row[0] for row in rows],
        "labels": np.array([float(row[1]) for row in rows]),
        "r": np.array([float(row[2]) for row in rows]),
        "trimmed": np.array([{"true": True, "false": False}[row[3]] for row in rows]),
        "f": np.array([float(row[4]) for row in rows]),
        "model_ids": [row[0] for row in sv],
        "model_labels": np.array([float(row[1]) for row in sv]),
        "alpha": np.array([float(row[2]) for row in sv]),
        "bias": float(model[-1].split()[1]),
    }


def _model_certificate(report, kk, y, keep, c):
    """The reported model must be a KKT point within the documented solver tol."""
    tol = oracle.SOLVER_TOL
    if report["tol"] > tol:
        return [f"model solved to tol {report['tol']}, looser than {tol}"]
    if report["model_ids"] != [str(i + 1) for i in keep] or not np.array_equal(report["model_labels"], y[keep]):
        return ["model block does not hold exactly the retained samples"]
    alpha, bias, y_t = report["alpha"], report["bias"], y[keep]
    problems = []
    if alpha.min() < 0.0 or alpha.max() > c:
        problems.append("alpha outside [0, C]")
    if abs(alpha @ y_t) > 1e-9 * c * alpha.size:
        problems.append(f"sum(alpha * y) = {alpha @ y_t:.3e}")
    beta = alpha * y_t
    yg = y_t * (1.0 - y_t * (kk[np.ix_(keep, keep)] @ beta))
    upper, lower = np.where(y_t > 0, c, 0.0), np.where(y_t > 0, 0.0, -c)
    top = np.max(np.where(beta < upper, yg, -np.inf))
    bottom = np.min(np.where(beta > lower, yg, np.inf))
    if top - bottom > oracle.KKT_SLACK * tol:
        problems.append(f"KKT violation {top - bottom:.3e} above tol {tol}")
    if not min(top, bottom) - tol <= bias <= max(top, bottom) + tol:
        problems.append(f"bias {bias!r} outside the KKT interval [{bottom!r}, {top!r}]")
    block = kk[keep]
    f = beta @ block + bias
    scale = np.abs(beta) @ np.abs(block) + abs(bias) + 1.0
    worst = np.max(np.abs(f - report["f"]) / scale)
    if worst > 1e-9:
        problems.append(f"decision values differ from the model's by {worst:.3e} (relative)")
    return problems


def _map_matches(map_csv, svg, fit_text, y, r):
    """Map CSV rows repeat the report's fields; the SVG has one marker per sample."""
    rows = [line.split() for line in fit_text.splitlines()[-y.size :]]
    expected = ["id,label,f,outlyingness,trimmed,misclassified"]
    for sid, label, out, trimmed, f in rows:
        wrong = (1 if float(f) >= 0.0 else -1) != int(label)
        expected.append(f"{sid},{label},{f},{out},{trimmed},{'true' if wrong else 'false'}")
    problems = []
    if map_csv.splitlines() != expected:
        problems.append("map CSV differs from the fit report")
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return problems + [f"map SVG is not well-formed: {exc}"]
    marks = {}
    for element in root.iter():
        cls = element.get("class", "")
        if cls.startswith("marker-"):
            marks[cls] = marks.get(cls, 0) + 1
    finite = np.isfinite(r)
    want = {
        "marker-plus": int(np.sum(finite & (y > 0))),
        "marker-minus": int(np.sum(finite & (y < 0))),
        "marker-inf": int(np.sum(~finite)),
    }
    if {k: v for k, v in want.items() if v} != marks:
        problems.append(f"map SVG markers {marks} != {want}")
    return problems


WORKLOADS = {
    # The paper's headline benchmark: time goes to the normals, the test
    # kernel block and the per-kappa rerun of kernel and outlyingness.
    "sim-contaminated": lambda: Simulate(True, ["--contaminated", "--kappas", "0.5,0.7,0.9,1", "--C", "0.1"], (0.1,)),
    # Clean data with the default 11-point C grid and 10 folds: 440
    # cold-start dual solves per op, so the solver and select_C dominate.
    "sim-cv": lambda: Simulate(False, ["--cv-grid", "default", "--folds", "10"], DEFAULT_C_GRID),
    # The only large kernel matrix, sampled directions, CSV load, report
    # serialization and map rendering; the write and the re-read path.
    "cli-rbf-2000": FitAndMap,
}
