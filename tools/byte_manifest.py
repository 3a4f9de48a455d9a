"""Byte manifest of the sdsvm command line: one sha256 per output.

Runs a fixed list of `sdsvm.cli.main` invocations in one process, on inputs
this script writes from fixed seeds into a temporary directory, and prints
one line per output of each invocation:

    <sha256>  <invocation>/<output>

where <output> is `exit` (the exit code in decimal), `stdout`, `stderr`, or
the name of a file the invocation wrote.  The hashes depend on the host's
numpy and BLAS, so a manifest is compared only with another one made on the
same machine, never with a stored copy.  To compare two source trees, run
the script against each tree's `src` and diff the two manifests:

    PYTHONPATH=/path/to/parent/src python tools/byte_manifest.py > before.txt
    PYTHONPATH=src python tools/byte_manifest.py > after.txt
    diff before.txt after.txt

Names given as arguments run only those invocations, in list order; one
that reads another's output (`map-fit`, `map-fit-data-flags`,
`bench-rbf-2000-map`) needs that one named too.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np

from sdsvm import KernelSpec, fit_sdsvm, fit_to_text, gen_toy
from sdsvm.cli import main as cli_main

# (name, argv); "{out}" is the invocation's own, initially empty, directory.
INVOCATIONS = (
    ("toy", ["toy", "--seed", "5", "--out-csv", "{out}/map.csv", "--out-svg", "{out}/map.svg",
             "--out-fit", "{out}/fit.txt"]),
    ("toy-stdout", ["toy", "--seed", "5"]),
    ("toy-rbf-svg-stdout", ["toy", "--kernel", "rbf", "--gamma", "0.5", "--out-svg", "-"]),
    ("toy-polynomial", ["toy", "--kernel", "polynomial", "--degree", "2", "--coef0", "1",
                        "--out-fit", "{out}/fit.txt"]),
    ("toy-threshold", ["toy", "--threshold", "2.5", "--label-top", "3", "--out-svg", "{out}/map.svg"]),
    # The toy's groups have 30 and 36 samples: 435 and 630 pairs.
    ("toy-directions-100", ["toy", "--directions", "100", "--seed", "3", "--out-fit", "{out}/fit.txt"]),
    ("toy-directions-435", ["toy", "--directions", "435", "--out-fit", "{out}/fit.txt"]),
    ("toy-directions-1000000", ["toy", "--directions", "1000000", "--out-fit", "{out}/fit.txt"]),
    ("fit-cv-list", ["fit", "points.csv", "--cv-grid", "0.1,1,10", "--folds", "3",
                     "--out-fit", "{out}/fit.txt"]),
    ("fit-rbf-cv-default", ["fit", "points.csv", "--kernel", "rbf", "--gamma", "0.2",
                            "--cv-grid", "default", "--out-fit", "{out}/fit.txt"]),
    ("fit-label-first", ["fit", "label-first.csv", "--label-col", "first", "--coding", "no,yes",
                         "--kappa", "0.75"]),
    ("map-fit", ["map", "--fit", "fit-cv-list/fit.txt", "--threshold", "3",
                 "--out-csv", "{out}/map.csv", "--out-svg", "{out}/map.svg"]),
    ("map-csv-threshold", ["map", "points.csv", "--kernel", "polynomial", "--degree", "2",
                           "--threshold", "2", "--out-csv", "{out}/map.csv", "--out-svg", "{out}/map.svg"]),
    ("fit-spectrum", ["fit", "seqs.fa", "--labels", "seqs.labels", "--kernel", "spectrum",
                      "--out-fit", "{out}/fit.txt"]),
    ("map-spectrum", ["map", "seqs.fa", "--labels", "seqs.labels", "--kernel", "spectrum", "--kmer", "2",
                      "--out-svg", "{out}/map.svg"]),
    ("sim-contaminated", ["simulate", "--runs", "2", "--contaminated", "--d", "200"]),
    ("sim-cv-default", ["simulate", "--runs", "1", "--d", "200", "--cv-grid", "default", "--folds", "5"]),
    ("sim-rbf-out-csv", ["simulate", "--runs", "2", "--d", "200", "--kernel", "rbf", "--gamma", "0.002",
                         "--out-csv", "{out}/rows.csv"]),
    ("sim-exhaustive", ["simulate", "--runs", "2", "--d", "100", "--directions", "exhaustive"]),
    ("sim-sampled", ["simulate", "--runs", "2", "--d", "100", "--directions", "150", "--seed", "7"]),
    ("sim-full-count", ["simulate", "--runs", "1", "--d", "100", "--directions", "1000"]),
    # The test-plus stream draws 301 x 333 = 100,233 normals: an odd count
    # over several blocks of pairs.
    ("sim-odd-blocks", ["simulate", "--runs", "1", "--d", "333", "--test-size", "601", "--seed", "2"]),
    # One op of each benchmark workload.
    ("bench-sim-contaminated", ["simulate", "--contaminated", "--runs", "1", "--kappas", "0.5,0.7,0.9,1",
                                "--C", "0.1", "--seed", "1"]),
    ("bench-sim-cv", ["simulate", "--runs", "1", "--cv-grid", "default", "--folds", "10", "--seed", "1"]),
    ("bench-rbf-2000-fit", ["fit", "rbf-2000.csv", "--kernel", "rbf", "--gamma", "0.05", "--kappa", "0.75",
                            "--C", "1.0", "--seed", "1", "--directions", "2000", "--out-fit", "{out}/fit.txt"]),
    ("bench-rbf-2000-map", ["map", "--fit", "bench-rbf-2000-fit/fit.txt",
                            "--out-csv", "{out}/map.csv", "--out-svg", "{out}/map.svg"]),
    # Failures: a group of 4 coincident points has no valid direction.
    ("coincident-sampled", ["fit", "coincident.csv", "--directions", "5"]),
    ("coincident-full-count", ["fit", "coincident.csv", "--directions", "6"]),
    ("coincident-huge-count", ["fit", "coincident.csv", "--directions", "1000000"]),
    ("bad-folds", ["fit", "points.csv", "--cv-grid", "1,2", "--folds", "1"]),
    ("bad-directions", ["toy", "--directions", "0"]),
    ("bad-degree", ["toy", "--kernel", "polynomial", "--degree", "0"]),
    ("missing-file", ["fit", "absent.csv"]),
    # Reader failures, and data flags that do not apply to the input's format.
    ("csv-ragged-row", ["fit", "ragged.csv"]),
    ("csv-token-outside-coding", ["fit", "label-outside.csv", "--label-col", "first", "--coding", "no,yes"]),
    ("fasta-csv-flags", ["fit", "seqs.fa", "--labels", "seqs.labels", "--kernel", "spectrum",
                         "--coding", "garbage", "--label-col", "zz"]),
    ("csv-labels-flag", ["fit", "points.csv", "--labels", "nonexistent"]),
    ("map-fit-data-flags", ["map", "--fit", "fit-cv-list/fit.txt", "--coding", "garbage", "--labels", "nothere",
                            "--label-col", "zz", "--format", "fasta"]),
    ("map-fit-labels", ["map", "--fit", "toy.fit", "--labels", "nothere"]),
    # Reports a fit never writes: an f the map cannot draw, a negative count,
    # folds over a fixed C, a C outside the CV table, a trimmed column that
    # is not the trim of its kappa, a CV table cell that is not a number.
    ("map-fit-inf-f", ["map", "--fit", "toy-inf-f.fit", "--out-svg", "{out}/map.svg"]),
    ("map-fit-negative-cv-table", ["map", "--fit", "toy-negative-cv-table.fit", "--out-csv", "{out}/map.csv"]),
    ("map-fit-folds-over-fixed-c", ["map", "--fit", "toy-folds-9.fit", "--out-csv", "{out}/map.csv"]),
    ("map-fit-c-not-in-table", ["map", "--fit", "toy-c-0.2.fit", "--out-csv", "{out}/map.csv"]),
    ("map-fit-kappa-not-the-trim", ["map", "--fit", "toy-kappa-0.9.fit", "--out-csv", "{out}/map.csv"]),
    ("map-fit-cv-table-token", ["map", "--fit", "toy-cv-table-token.fit", "--out-csv", "{out}/map.csv"]),
    ("sim-kappas-empty-item", ["simulate", "--runs", "1", "--d", "100", "--kappas", "0.5,,1"]),
    # Inputs no run can use: an id that would split its map CSV row, a
    # repeated kappa, and data flags no file satisfies.
    ("map-csv-comma-id", ["map", "seqs-comma.fa", "--labels", "seqs-comma.labels", "--kernel", "spectrum",
                          "--kmer", "2", "--out-csv", "{out}/map.csv", "--out-svg", "{out}/map.svg"]),
    ("sim-kappas-repeated", ["simulate", "--runs", "3", "--d", "50", "--kappas", "0.5,0.5,1"]),
    ("csv-coding-repeated", ["fit", "label-first.csv", "--label-col", "first", "--coding", "yes,yes"]),
    ("csv-label-col-negative", ["fit", "points.csv", "--label-col", "-1"]),
)


def _csv(path, x, labels, label_first=False):
    rows = [[label, *map(repr, row)] if label_first else [*map(repr, row), label]
            for row, label in zip(x.tolist(), labels)]
    path.write_text("".join(",".join(row) + "\n" for row in rows))


def _two_gaussians(seed, n, dim, shift):
    rng = np.random.default_rng(seed)
    x = np.vstack([rng.standard_normal((n, dim)), rng.standard_normal((n, dim)) + shift])
    return x, ["-1"] * n + ["1"] * n


def write_inputs(root: Path) -> None:
    """The data files the invocations read, from fixed seeds."""
    x, labels = _two_gaussians(1, 40, 5, 1.0)
    _csv(root / "points.csv", x, labels)
    coded = [{"-1": "no", "1": "yes"}[v] for v in labels]
    _csv(root / "label-first.csv", x, coded, label_first=True)
    _csv(root / "label-outside.csv", x, coded[:30] + ["maybe"] + coded[31:], label_first=True)
    rows = (root / "points.csv").read_text().splitlines(keepends=True)
    (root / "ragged.csv").write_text("".join(rows[:6] + ["0.5,1.5,-1\n"] + rows[6:]))
    _csv(root / "rbf-2000.csv", *_two_gaussians(2000, 1000, 20, 0.5))
    coincident = np.vstack([np.ones((4, 2)), np.arange(8.0).reshape(4, 2) ** 2])
    _csv(root / "coincident.csv", coincident, ["-1"] * 4 + ["1"] * 4)
    rng = np.random.default_rng(3)
    fasta, label_lines = [], []
    for i in range(16):
        sequence = "".join(rng.choice(list("ACGT" if i % 2 else "AACGTT"), size=rng.integers(30, 60)))
        fasta += [f">s{i} record {i}", sequence[:25], sequence[25:]]
        label_lines.append(f"s{i} {1 if i % 2 else -1}")
    (root / "seqs.fa").write_text("\n".join(fasta) + "\n")
    (root / "seqs.labels").write_text("\n".join(label_lines) + "\n")
    (root / "seqs-comma.fa").write_text("\n".join(fasta).replace(">s0 ", ">s0,x ") + "\n")
    (root / "seqs-comma.labels").write_text("\n".join(label_lines).replace("s0 ", "s0,x ", 1) + "\n")
    report = fit_to_text(fit_sdsvm(gen_toy(1), KernelSpec()))
    (root / "toy.fit").write_text(report)
    lines = report.splitlines(keepends=True)
    first = lines.index("id label outlyingness trimmed f\n") + 1
    lines[first] = lines[first].rsplit(" ", 1)[0] + " inf\n"
    (root / "toy-inf-f.fit").write_text("".join(lines))
    # The toy's fixed C gives a one-row table; -1 rows read as none.
    (root / "toy-negative-cv-table.fit").write_text(report.replace("cv-table 1\n0.1 nan\n", "cv-table -1\n"))
    (root / "toy-folds-9.fit").write_text(report.replace("\nfolds-used 0\n", "\nfolds-used 9\n"))
    (root / "toy-c-0.2.fit").write_text(report.replace("chosen-c 0.1", "chosen-c 0.2").replace("C=0.1", "C=0.2"))
    (root / "toy-kappa-0.9.fit").write_text(report.replace("\nkappa 0.5\n", "\nkappa 0.9\n"))
    (root / "toy-cv-table-token.fit").write_text(report.replace("cv-table 1\n0.1 nan\n", "cv-table 1\n0.1 abc\n"))


def _sha256(data) -> str:
    return hashlib.sha256(data.encode("utf-8") if isinstance(data, str) else data).hexdigest()


def manifest(names=None) -> list:
    """The manifest lines of the named invocations (all by default), run in
    list order with a fresh temporary directory as the working directory."""
    unknown = set(names or ()) - {name for name, _ in INVOCATIONS}
    if unknown:
        raise ValueError(f"unknown invocations: {sorted(unknown)}")
    lines = []
    cwd = os.getcwd()
    # argparse wraps a flag error's usage line to the terminal's width.
    with mock.patch.dict(os.environ, {"COLUMNS": "100"}), tempfile.TemporaryDirectory() as tmp:
        try:
            root = Path(tmp)
            os.chdir(root)
            write_inputs(root)
            for name, argv in INVOCATIONS:
                if names and name not in names:
                    continue
                (root / name).mkdir()
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = cli_main([arg.format(out=name) for arg in argv])
                outputs = [("exit", str(code)), ("stdout", out.getvalue()), ("stderr", err.getvalue())]
                outputs += [(p.name, p.read_bytes()) for p in sorted((root / name).iterdir())]
                lines += [f"{_sha256(data)}  {name}/{item}" for item, data in outputs]
        finally:
            os.chdir(cwd)
    return lines


if __name__ == "__main__":
    try:
        print("\n".join(manifest(sys.argv[1:])))
    except ValueError as exc:
        sys.exit(f"byte_manifest: {exc}")
