import contextlib
import ctypes
import io
import os
import re
import runpy
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdsvm import Dataset, KernelSpec, fit_sdsvm, fit_to_text, gen_toy, load_fasta, map_to_svg
from sdsvm import cli, kernels
from sdsvm.cli import build_parser, main

from conftest import write_csv


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestToy:
    def test_svg_output_with_66_markers(self, tmp_path, capsys):
        target = tmp_path / "map.svg"
        code, out, err = run_cli(capsys, "toy", "--seed", "7", "--out-svg", str(target))
        assert code == 0
        text = target.read_text()
        markers = text.count("marker-plus") + text.count("marker-minus") + text.count("marker-inf")
        assert markers == 66

    def test_csv_to_stdout_by_default(self, capsys):
        code, out, err = run_cli(capsys, "toy", "--seed", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "id,label,f,outlyingness,trimmed,misclassified"
        assert len(lines) == 67

    def test_fit_report_written(self, tmp_path, capsys):
        target = tmp_path / "fit.txt"
        code, _, _ = run_cli(capsys, "toy", "--seed", "2", "--out-fit", str(target))
        assert code == 0
        assert target.read_text().startswith("sdsvm-fit-v1\n")

    def test_threshold_too_large_to_map_leaves_svg_numeric(self, tmp_path, capsys):
        target = tmp_path / "t.svg"
        code, _, _ = run_cli(capsys, "toy", "--threshold=1e308", "--out-svg", str(target))
        assert code == 0
        text = target.read_text()
        assert not {"inf", "-inf", "nan"} & {t.lower() for t in re.split(r'[\s"<>=]+', text)}
        # drawn at the top margin, where an infinite r is drawn
        dashed = [ln for ln in text.splitlines() if "stroke-dasharray" in ln][0]
        assert 'y1="24.00"' in dashed and 'y2="24.00"' in dashed


class TestValidation:
    def test_kappa_out_of_range_names_interval(self, tmp_path, capsys):
        data = tmp_path / "d.csv"
        data.write_text("1,2,-1\n3,4,1\n")
        code, out, err = run_cli(capsys, "fit", str(data), "--kappa", "1.2")
        assert code == 1
        assert "[0.5, 1]" in err

    def test_unknown_flag_prints_usage(self, capsys):
        code, out, err = run_cli(capsys, "toy", "--frobnicate")
        assert code == 1
        assert "usage:" in err

    def test_c_and_grid_mutually_exclusive(self, capsys):
        code, _, err = run_cli(capsys, "toy", "--C", "1", "--cv-grid", "0.1,1")
        assert code == 1
        assert "exactly one" in err

    def test_missing_command_fails(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1

    def test_computation_error_exits_2_with_stage(self, tmp_path, capsys):
        data = tmp_path / "small.csv"
        data.write_text("1,0,-1\n2,0,-1\n3,0,1\n4,0,1\n")
        code, _, err = run_cli(capsys, "fit", str(data))
        assert code == 2
        assert "validate" in err

    @pytest.mark.parametrize(
        "argv, code, stage",
        [
            (["map", "--fit", "{tmp}/missing.fit"], 2, "error in load"),
            (["fit", "{tmp}/d.csv", "--out-fit", "{tmp}/no/dir/x.fit"], 2, "error in write"),
            (["toy", "--out-fit", "{tmp}/no/dir/x.fit"], 2, "error in write"),
            (["simulate", "--kappas", "0.5,abc"], 1, "--kappas"),
            (["fit", "{tmp}/bin.dat"], 2, "error in load"),
            (["map", "--fit", "{tmp}/bin.dat"], 2, "error in load"),
            (["fit", "{tmp}/s.fasta", "--labels", "{tmp}/bin.dat", "--kernel", "spectrum"], 2, "error in load"),
            (["fit", "{tmp}/nan.csv"], 2, "line 3: non-finite"),
            (["fit", "{tmp}/big.csv"], 2, "error in kernel"),
            # 3 samples per class, 1 retained at kappa 0.5: too few for 2 folds
            (["fit", "{tmp}/d.csv", "--cv-grid", "0.1,1"], 2,
             "sdsvm: error in select-c: smallest class has 1 samples; cannot form 2 folds\n"),
        ],
    )
    def test_bad_path_or_value_exits_with_stage(self, tmp_path, capsys, argv, code, stage):
        (tmp_path / "d.csv").write_text("0,0,-1\n1,0,-1\n0,1,-1\n3,3,1\n4,3,1\n3,4,1\n")
        (tmp_path / "nan.csv").write_text("0,0,-1\n1,0,-1\n0,nan,-1\n3,3,1\n4,3,1\n3,4,1\n")
        (tmp_path / "big.csv").write_text(
            "1e200,0,-1\n2e200,0,-1\n0,1e200,-1\n3e200,3e200,1\n4e200,3e200,1\n3e200,4e200,1\n"
        )
        (tmp_path / "bin.dat").write_bytes(bytes(range(128, 256)) * 3)
        (tmp_path / "s.fasta").write_text(">a\nACGT\n>b\nGGTT\n")
        argv = [tok.format(tmp=tmp_path) for tok in argv]
        got, _, err = run_cli(capsys, *argv)
        assert got == code
        assert stage in err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["fit", "{toy}", "--C", "nan"], "--C"),
            (["fit", "{toy}", "--C", "inf"], "--C"),
            (["fit", "{toy}", "--C", "inf", "--kappa", "1"], "--C"),
            (["fit", "{toy}", "--cv-grid", "nan,1"], "--cv-grid"),
            (["fit", "{toy}", "--cv-grid", "1,nan"], "--cv-grid"),
            (["fit", "{toy}", "--cv-grid", "inf,1"], "--cv-grid"),
            (["fit", "{toy}", "--kernel", "rbf", "--gamma", "nan"], "--gamma"),
            (["fit", "{toy}", "--kernel", "rbf", "--gamma", "inf"], "--gamma"),
            (["fit", "{toy}", "--kernel", "polynomial", "--coef0", "nan"], "--coef0"),
            (["fit", "{toy}", "--directions", "10", "--seed", "-1"], "--seed"),
            (["fit", "{toy}", "--seed", "-1"], "--seed"),
            (["fit", "{toy}", "--seed", str(2**64)], "--seed"),
            (["toy", "--threshold", "nan"], "--threshold"),
            (["simulate", "--runs", "1", "--shift", "nan"], "--shift"),
            (["simulate", "--runs", "1", "--n", "0"], "--n"),
            (["simulate", "--runs", "1", "--d", "0"], "--d"),
            (["simulate", "--runs", "1", "--test-size", "1"], "--test-size"),
            (["toy", "--threshold=-1", "--out-svg", "{toy}.svg"], "--threshold"),
            (["fit", "{toy}", "--kernel", "polynomial", "--degree", "0"], "--degree"),
            (["fit", "{toy}", "--kernel", "spectrum", "--kmer", "0"], "--kmer"),
            (["fit", "{toy}", "--cv-grid", "0.1,1", "--folds", "1"], "--folds"),
            (["fit", "{toy}", "--directions", "0"], "--directions"),
            (["fit", "{toy}", "--C", "0"], "--C"),
            (["fit", "{toy}", "--kernel", "linear", "--gamma", "0"], "--gamma"),
            (["toy", "--kappa", "0.4"], "--kappa"),
            (["simulate", "--runs", "1", "--kappas", "0.4"], "--kappas"),
            # comma lists: an empty or non-numeric item
            (["simulate", "--runs", "1", "--kappas", "0.5,,1"], "--kappas"),
            (["simulate", "--runs", "1", "--kappas", "0.5,"], "--kappas"),
            (["simulate", "--runs", "1", "--kappas", "0.5,x"], "--kappas"),
            (["toy", "--cv-grid", "0.1,1,"], "--cv-grid"),
            (["fit", "{toy}", "--cv-grid", "0.1,,1"], "--cv-grid"),
            (["fit", "{toy}", "--cv-grid", "0.1,x"], "--cv-grid"),
            (["map", "--fit", "{report}", "--seed", "-1"], "--seed"),
            (["map", "--fit", "{report}", "--gamma", "nan"], "--gamma"),
            # a repeated kappa once printed a summary row per repeat
            (["simulate", "--runs", "3", "--d", "50", "--kappas", "0.5,0.5,1"], "--kappas must not repeat a value,"),
        ],
    )
    def test_non_finite_or_out_of_range_number_exits_1(self, argv_dir, capsys, argv, flag):
        # toy.fit is a valid report, so that only the flag can fail map --fit.
        argv = [tok.format(toy=argv_dir / "toy.csv", report=argv_dir / "toy.fit") for tok in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert f"error: {flag} " in err
        assert "Traceback" not in err
        assert err.startswith(f"usage: sdsvm {argv[0]} ")  # the subcommand's usage line

    def test_direction_count_beyond_all_pairs_finishes(self, capsys):
        # The sampler stops once every valid pair is accepted instead of
        # drawing until 100 * count rejections.
        code, out, _ = run_cli(capsys, "toy", "--seed", "1", "--directions", "1000000000000")
        assert code == 0
        assert len(out.splitlines()) == 67

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "toy", "--seed", str(2**64 - 1))
        assert code == 0
        assert len(out.splitlines()) == 67

    def test_python_dash_m_runs_the_cli(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["sdsvm", "--help"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("sdsvm", run_name="__main__")
        assert excinfo.value.code == 0
        assert "usage: sdsvm" in capsys.readouterr().out

    def test_help_lists_defaults_for_every_flag(self, capsys):
        import argparse

        parser = build_parser()
        subparsers = parser._subparsers._group_actions[0].choices
        for command in ("fit", "map", "simulate", "toy"):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            help_text = capsys.readouterr().out
            defaulted = 0
            for action in subparsers[command]._actions:
                for flag in action.option_strings:
                    if flag in ("-h", "--help"):
                        continue
                    assert flag in help_text, f"{command}: {flag} missing from help"
                if action.option_strings and action.default is not argparse.SUPPRESS:
                    defaulted += 1
            assert help_text.count("(default:") >= defaulted


class TestSimulate:
    def test_row_count_matches_grid(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate",
            "--contaminated",
            "--runs",
            "5",
            "--kappas",
            "0.5,1",
            "--n",
            "6",
            "--d",
            "10",
            "--test-size",
            "10",
        )
        assert code == 0
        lines = out.splitlines()
        data_rows = [ln for ln in lines if ln and ln[0].isdigit() and "," in ln]
        # 10 per-run rows plus 2 summary rows
        assert lines[0] == "run,kappa,error"
        run_rows = lines[1 : 1 + 10]
        assert len(run_rows) == 10
        assert "kappa,median,q1,q3" in lines

    def test_out_csv_separates_rows_from_summary(self, tmp_path, capsys):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--runs",
            "2",
            "--kappas",
            "1",
            "--n",
            "4",
            "--d",
            "5",
            "--test-size",
            "6",
            "--out-csv",
            str(target),
        )
        assert code == 0
        assert target.read_text().splitlines()[0] == "run,kappa,error"
        assert out.splitlines()[0] == "kappa,median,q1,q3"


    def test_every_cell_failing_exits_2_without_table(self, capsys):
        code, out, err = run_cli(
            capsys, "simulate", "--runs", "1", "--n", "2", "--d", "3", "--test-size", "4"
        )
        assert code == 2
        assert out == ""
        assert "error in simulate" in err and "TooFewSamples" in err


class TestMap:
    def test_id_with_a_comma_exits_2_in_render(self, tmp_path, capsys):
        # Its rows once held 7 fields under the 6-field header, with exit 0.
        ids = ["s0,x", *(f"s{i}" for i in range(1, 8))]
        fasta = "".join(f">{sid}\n{'ACGT' if i % 2 else 'AACCGT'}{'GT' * i}\n" for i, sid in enumerate(ids))
        (tmp_path / "s.fa").write_text(fasta)
        (tmp_path / "s.lab").write_text("".join(f"{sid} {1 if i % 2 else -1}\n" for i, sid in enumerate(ids)))
        argv = ["map", str(tmp_path / "s.fa"), "--labels", str(tmp_path / "s.lab"), "--kernel", "spectrum"]
        argv += ["--kmer", "2"]
        csv_path, svg_path = tmp_path / "m.csv", tmp_path / "m.svg"
        code, out, err = run_cli(capsys, *argv, "--out-csv", str(csv_path))
        assert (code, out) == (2, "")
        assert err == "sdsvm: error in render: id 's0,x' contains a comma or a line break\n"
        assert not csv_path.exists()
        # The SVG escapes nothing a comma needs, and is drawn as before.
        assert run_cli(capsys, *argv, "--out-svg", str(svg_path))[0] == 0
        dataset = load_fasta(tmp_path / "s.fa", tmp_path / "s.lab")
        fit = fit_sdsvm(dataset, KernelSpec(kind="spectrum", kmer=2))
        assert svg_path.read_text() == map_to_svg(fit)

    def test_rerender_from_saved_fit_matches_direct(self, tmp_path, capsys):
        fit_path = tmp_path / "fit.txt"
        direct_csv = tmp_path / "direct.csv"
        code, _, _ = run_cli(
            capsys,
            "toy",
            "--seed",
            "4",
            "--out-fit",
            str(fit_path),
            "--out-csv",
            str(direct_csv),
        )
        assert code == 0
        rerender_csv = tmp_path / "rerender.csv"
        code, _, _ = run_cli(capsys, "map", "--fit", str(fit_path), "--out-csv", str(rerender_csv))
        assert code == 0
        assert rerender_csv.read_bytes() == direct_csv.read_bytes()

    @pytest.mark.parametrize(
        "column, value",
        [(1, "3"), (1, "0.5"), (2, "-1.0"), (2, "nan"), (3, "yes"), (4, "nan")],
    )
    def test_report_with_unmappable_sample_exits_2(self, tmp_path, capsys, column, value):
        fit_path = tmp_path / "fit.txt"
        assert run_cli(capsys, "toy", "--out-fit", str(fit_path), "--out-csv", "-")[0] == 0
        lines = fit_path.read_text().splitlines()
        first = lines.index("id label outlyingness trimmed f") + 1
        cells = lines[first].split()
        cells[column] = value
        lines[first] = " ".join(cells)
        fit_path.write_text("\n".join(lines) + "\n")
        svg = tmp_path / "m.svg"
        code, _, err = run_cli(capsys, "map", "--fit", str(fit_path), "--out-svg", str(svg))
        assert code == 2
        assert "error in load" in err
        assert "Traceback" not in err
        assert not svg.exists()

    @pytest.mark.parametrize("count", ["-1", "3"])
    def test_report_whose_samples_line_is_not_its_row_count_exits_2(self, tmp_path, capsys, count):
        fit_path = tmp_path / "fit.txt"
        assert run_cli(capsys, "toy", "--out-fit", str(fit_path), "--out-csv", "-")[0] == 0
        text = fit_path.read_text()
        assert "\nsamples 66\n" in text
        fit_path.write_text(text.replace("\nsamples 66\n", f"\nsamples {count}\n"))
        code, out, err = run_cli(capsys, "map", "--fit", str(fit_path), "--out-csv", "-")
        assert (code, out) == (2, "")
        assert "error in load" in err
        assert "Traceback" not in err

    def test_report_with_kappa_outside_its_range_exits_2(self, tmp_path, capsys):
        fit_path = tmp_path / "fit.txt"
        assert run_cli(capsys, "toy", "--out-fit", str(fit_path), "--out-csv", "-")[0] == 0
        text = fit_path.read_text()
        assert "\nkappa 0.5\n" in text
        fit_path.write_text(text.replace("\nkappa 0.5\n", "\nkappa 7.0\n"))
        code, out, err = run_cli(capsys, "map", "--fit", str(fit_path), "--out-csv", "-")
        assert (code, out) == (2, "")
        assert "error in load" in err and "kappa must be in [0.5, 1]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["1e308", "-1.7e308", "1.7976931348623157e308"])
    def test_report_with_huge_f_draws_finite_coordinates(self, tmp_path, capsys, value):
        # 2 * 1.05 max|f| (or 1.05 max|f| itself) overflows; the map is drawn
        # on an overflow-free scale instead of with nan coordinates.
        fit_path = tmp_path / "fit.txt"
        assert run_cli(capsys, "toy", "--out-fit", str(fit_path), "--out-csv", "-")[0] == 0
        lines = fit_path.read_text().splitlines()
        first = lines.index("id label outlyingness trimmed f") + 1
        cells = lines[first].split()
        cells[4] = value
        lines[first] = " ".join(cells)
        fit_path.write_text("\n".join(lines) + "\n")
        svg = tmp_path / "m.svg"
        code, _, err = run_cli(capsys, "map", "--fit", str(fit_path), "--out-svg", str(svg))
        assert (code, err) == (0, "")
        text = svg.read_text()
        assert "nan" not in text and "inf" not in text
        xs = [float(x) for x in re.findall(r'<circle cx="([^"]+)"', text)]
        assert xs and all(64.0 <= x <= 620.0 for x in xs)

    def test_map_needs_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "map")
        assert code == 1

    def test_map_from_dataset(self, tmp_path, capsys):
        data = tmp_path / "toy.csv"
        write_csv(gen_toy(3), data)
        svg = tmp_path / "m.svg"
        code, _, _ = run_cli(capsys, "map", str(data), "--out-svg", str(svg))
        assert code == 0
        assert svg.exists()


CODING_RULE = "--coding labels must differ and have no surrounding spaces"


class TestDataFlags:
    """--coding and --label-col are read before any work, under map --fit
    too, and a data flag that does not apply to the input's format exits 1
    naming it."""

    @pytest.fixture(scope="class")
    def seqs(self, argv_dir):
        fasta = "".join(f">s{i}\n{'ACGT' if i % 2 else 'AACCGT'}{'GT' * i}\n" for i in range(8))
        (argv_dir / "seqs.fa").write_text(fasta)
        (argv_dir / "seqs.labels").write_text("".join(f"s{i} {1 if i % 2 else -1}\n" for i in range(8)))
        return argv_dir

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["fit", "{dir}/seqs.fa", "--labels", "{dir}/seqs.labels", "--kernel", "spectrum",
              "--coding", "garbage", "--label-col", "zz"], "--coding applies to CSV input only"),
            (["fit", "{dir}/seqs.fa", "--labels", "{dir}/seqs.labels", "--kernel", "spectrum",
              "--coding", "no,yes"], "--coding applies to CSV input only"),
            (["map", "{dir}/seqs.fa", "--labels", "{dir}/seqs.labels", "--kernel", "spectrum",
              "--label-col", "first"], "--label-col applies to CSV input only"),
            (["fit", "{dir}/seqs.fa", "--kernel", "spectrum"], "--labels is required for FASTA input"),
            (["fit", "{dir}/toy.csv", "--labels", "{dir}/nonexistent"], "--labels applies to FASTA input only"),
            (["map", "{dir}/toy.csv", "--format", "csv", "--labels", "{dir}/seqs.labels"],
             "--labels applies to FASTA input only"),
            (["map", "--fit", "{dir}/toy.fit", "--coding", "garbage", "--labels", "nothere",
              "--label-col", "zz", "--format", "fasta"], "--coding applies to CSV input only"),
            (["map", "--fit", "{dir}/toy.fit", "--coding", "garbage"], "--coding must be NEG,POS, got 'garbage'"),
            (["map", "--fit", "{dir}/toy.fit", "--label-col", "zz"],
             "--label-col must be first/last or an index, got 'zz'"),
            # map --fit reads no dataset, so no labels file either
            (["map", "--fit", "{dir}/toy.fit", "--labels", "{dir}/seqs.labels"],
             "--labels is read only with a FASTA dataset, and map --fit reads none"),
            (["map", "--fit", "{dir}/toy.fit", "--labels", "{dir}/seqs.labels", "--format", "fasta"],
             "--labels is read only with a FASTA dataset, and map --fit reads none"),
            # flags no file satisfies: each once loaded the file and exited 2
            # in stage load, or went unchecked under map --fit
            (["fit", "{dir}/toy.csv", "--coding", "yes,yes"], f"{CODING_RULE}, got 'yes,yes'"),
            (["fit", "{dir}/toy.csv", "--coding", "no, yes"], f"{CODING_RULE}, got 'no, yes'"),
            (["fit", "{dir}/toy.csv", "--label-col", "-1"], "--label-col must be >= 0, got -1"),
            (["map", "--fit", "{dir}/toy.fit", "--coding", "yes,yes"], f"{CODING_RULE}, got 'yes,yes'"),
            (["map", "--fit", "{dir}/toy.fit", "--label-col", "-1"], "--label-col must be >= 0, got -1"),
        ],
    )
    def test_bad_or_inapplicable_data_flag_exits_1(self, seqs, capsys, argv, message):
        argv = [tok.format(dir=seqs) for tok in argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"usage: sdsvm {argv[0]} ")
        assert err.endswith(f"error: {message}\n")

    def test_flags_that_apply_still_run(self, seqs, capsys):
        fasta = ["fit", f"{seqs}/seqs.fa", "--labels", f"{seqs}/seqs.labels", "--kernel", "spectrum"]
        assert run_cli(capsys, *fasta, "--label-col", "last")[0] == 0
        assert run_cli(capsys, "map", "--fit", f"{seqs}/toy.fit", "--coding", "no,yes", "--label-col", "2")[0] == 0


class TestDeterminism:
    def test_identical_argv_identical_bytes(self, tmp_path, capsys):
        outputs = []
        for name in ("a", "b", "c"):
            csv_path = tmp_path / f"{name}.csv"
            svg_path = tmp_path / f"{name}.svg"
            code, _, _ = run_cli(
                capsys,
                "toy",
                "--seed",
                "11",
                "--out-csv",
                str(csv_path),
                "--out-svg",
                str(svg_path),
            )
            assert code == 0
            outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
        assert outputs[0] == outputs[1] == outputs[2]


def _bundled_openblas_function(name):
    """name from numpy's bundled OpenBLAS, found independently of the CLI's
    lookup, or None."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"):
        function = getattr(ctypes.CDLL(str(path)), name, None)
        if function is not None:
            return function
    return None


class TestBlasThreads:
    """The CLI runs numpy's bundled OpenBLAS on one thread, so its bytes do
    not depend on OPENBLAS_NUM_THREADS."""

    @staticmethod
    def _run_all(workdir, threads):
        """(exit code, stdout, stderr) of each command, then every file
        written, run in fresh processes under OPENBLAS_NUM_THREADS=threads."""
        src = str(Path(cli.__file__).parents[1])
        env = {
            **os.environ,
            "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        commands = [
            ["simulate", "--runs", "2", "--contaminated", "--out-csv", "runs.csv"],
            ["fit", "../data.csv", "--kernel", "rbf", "--gamma", "0.5", "--C", "1", "--out-fit", "fit.txt"],
            ["map", "--fit", "fit.txt", "--out-csv", "map.csv", "--out-svg", "map.svg"],
        ]
        workdir.mkdir()
        outcomes = []
        for argv in commands:
            done = subprocess.run(
                [sys.executable, "-m", "sdsvm", *argv],
                cwd=workdir, env=env, capture_output=True, timeout=120, check=False,
            )
            outcomes.append((done.returncode, done.stdout, done.stderr))
        files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
        return outcomes, files

    def test_outputs_do_not_depend_on_the_thread_count(self, tmp_path):
        x = np.random.default_rng(3).normal(size=(120, 5))
        x[60:] += 0.7
        write_csv(Dataset(x=x, labels=np.repeat([-1.0, 1.0], 60)), tmp_path / "data.csv")
        one = self._run_all(tmp_path / "one", "1")
        two = self._run_all(tmp_path / "two", "2")
        assert [code for code, _, _ in one[0]] == [0, 0, 0]
        assert sorted(one[1]) == ["fit.txt", "map.csv", "map.svg", "runs.csv"]
        assert one == two

    def test_main_pins_one_thread(self, tmp_path, capsys):
        getter = _bundled_openblas_function("scipy_openblas_get_num_threads64_")
        setter = _bundled_openblas_function("scipy_openblas_set_num_threads64_")
        if getter is None or setter is None:
            pytest.skip("numpy ships no bundled scipy-openblas64 here")
        getter.restype = ctypes.c_int
        setter.argtypes = [ctypes.c_int]
        setter(2)
        code, _, _ = run_cli(capsys, "toy", "--out-csv", str(tmp_path / "map.csv"))
        assert code == 0
        assert getter() == 1

    @pytest.mark.parametrize("missing", ["library directory", "library", "symbol"])
    def test_pin_is_a_silent_no_op_without_the_bundled_openblas(self, tmp_path, monkeypatch, capsys, missing):
        if missing == "library directory":
            monkeypatch.setattr(np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
        elif missing == "library":
            real_cdll = ctypes.CDLL
            monkeypatch.setattr(ctypes, "CDLL", lambda path: real_cdll(str(tmp_path / "none.so")))
        else:
            monkeypatch.setattr(ctypes, "CDLL", lambda path: object())
        library = kernels._openblas_library.__wrapped__  # uncached
        monkeypatch.setattr(kernels, "_openblas_library", library)
        assert cli._openblas_thread_setter() is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "toy", "--out-csv", str(tmp_path / "map.csv"))
        assert (code, out, err) == (0, "", "")


class TestAutoDirectionsSeed:
    """--directions auto samples the pairs of a group over 100 from --seed."""

    @staticmethod
    def _fit(capsys, tmp_path, *argv):
        """(policy lines, outlyingness column) of the fit report argv writes."""
        target = tmp_path / "fit.txt"
        code, _, _ = run_cli(capsys, *argv, "--out-fit", str(target))
        assert code == 0
        lines = target.read_text().splitlines()
        rows = lines[lines.index("id label outlyingness trimmed f") + 1 :]
        return [ln for ln in lines if ln.startswith("policy-")], [row.split()[2] for row in rows]

    def test_large_groups_sample_from_seed(self, tmp_path, capsys):
        data = tmp_path / "large.csv"
        x = np.random.default_rng(0).normal(size=(300, 2))
        write_csv(Dataset(x=x, labels=np.repeat([-1.0, 1.0], 150)), data)
        fits = {seed: self._fit(capsys, tmp_path, "fit", str(data), "--seed", seed) for seed in "12"}
        for seed, (policies, _) in fits.items():
            assert policies == [f"policy-minus sampled 2000 {seed}", f"policy-plus sampled 2000 {seed}"]
        assert fits["1"][1] != fits["2"][1]

    def test_small_groups_stay_exhaustive_with_seed_0(self, tmp_path, capsys):
        policies, _ = self._fit(capsys, tmp_path, "toy", "--seed", "5")
        assert policies == ["policy-minus exhaustive 2000 0", "policy-plus exhaustive 2000 0"]


# Each flag draws a valid value or a bad one (non-finite, negative, out of
# range or not a number).  Sizes that scale work (--runs, --n, --d,
# --test-size) stay small, and a valid C above 1 appears only on linearly
# separable simulations: a large C on non-separable data is the known slow
# case of the cold solver.
_BAD = ["nan", "inf", "-inf", "-1", "0", "-1e308"]
_HUGE = str(10**20)
_SMALL_C = ["1e-300", "0.01", "0.5"]
_SEPARABLE_C = _SMALL_C + ["1e308", "1e15", "8"]
_FLAG_VALUES = {  # flag: (valid, bad)
    "--gamma": (["1e-308", "0.5", "1e308"], _BAD),
    "--coef0": (["-1", "0", "1", "1e308"], ["nan", "inf", "-inf"]),
    "--kappa": (["0.5", "0.75", "1"], _BAD + ["0.49", "1.01", "1e308"]),
    "--folds": (["2", "3", _HUGE], ["-1", "0", "1", "nan", "1.5"]),
    "--directions": (["1", "7", _HUGE, "exhaustive", "auto"], ["-1", "0", "nan", "abc"]),
    "--seed": (["0", "7", str(2**64 - 1)], ["-1", str(2**64), "1e3", "nan"]),
    "--label-top": (["-1", "0", "3", _HUGE], ["nan", "1.5"]),
    "--threshold": (["0", "2.5", "1e308"], ["nan", "inf", "-inf", "-1e308"]),
    "--shift": (["-1e308", "0", "3", "1e308"], ["nan", "inf", "-inf"]),
    "--runs": (["1", "2"], ["-1", "0"]),
    "--n": (["2", "3", "6"], ["-1", "0"]),  # 2 leaves too few samples to rank
    "--d": (["40"], ["-1", "0"]),  # 40 keeps 2 x (6 + 4) samples separable
    "--test-size": (["2", "10"], ["-1", "1"]),
}
_TARGETS = ["{tmp}/no/dir/out", "{tmp}", "{tmp}/out"]
_FIT_FLAGS = ["--gamma", "--coef0", "--kappa", "--folds", "--directions", "--seed"]
_COMMAND_FLAGS = {
    "fit": _FIT_FLAGS,
    "map": _FIT_FLAGS + ["--label-top", "--threshold"],
    "map --fit": _FIT_FLAGS + ["--label-top", "--threshold"],
    "toy": _FIT_FLAGS + ["--label-top", "--threshold"],
    "simulate": ["--gamma", "--coef0", "--folds", "--directions", "--seed", "--shift"],
}
_COMMAND_TARGETS = {
    "fit": ["--out-fit"],
    "map": ["--out-csv", "--out-svg"],
    "map --fit": ["--out-csv", "--out-svg"],
    "toy": ["--out-fit", "--out-csv", "--out-svg"],
    "simulate": ["--out-csv"],
}


def valid_or_bad(valid, bad):
    """A valid value three times in four, so that most argv get past validation."""
    return st.tuples(st.integers(0, 3), st.sampled_from(valid), st.sampled_from(bad)).map(
        lambda t: t[2] if t[0] == 3 else t[1]
    )


@st.composite
def perturbed_argv(draw):
    """argv of one command with perturbed numbers and output targets ({tmp} unfilled)."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    sometimes = st.integers(0, 3).map(lambda k: k == 0)  # most flags keep their default
    argv = command.split()
    if command in ("fit", "map"):
        argv.append(draw(st.sampled_from(["{tmp}/toy.csv", "{tmp}/missing.csv"])))
    if command == "map --fit":
        argv.append(draw(st.sampled_from(["{tmp}/toy.fit", "{tmp}/missing.fit"])))
    if command == "simulate":
        argv += ["--runs=1", "--n=4", "--d=40", "--test-size=10", "--kernel=linear"]
        for flag in ("--runs", "--n", "--d", "--test-size"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(valid_or_bad(*_FLAG_VALUES[flag]))}")
        if draw(st.booleans()):
            argv.append("--contaminated")
        c_values = valid_or_bad(_SEPARABLE_C, _BAD)
    else:
        argv.append(f"--kernel={draw(st.sampled_from(['linear', 'rbf', 'polynomial']))}")
        c_values = valid_or_bad(_SMALL_C, _BAD)
    box = draw(st.sampled_from(["none", "C", "grid", "both"]))
    if box in ("C", "both"):
        argv.append(f"--C={draw(c_values)}")
    if box in ("grid", "both"):
        tokens = draw(st.lists(c_values | st.just("abc"), min_size=1, max_size=4))
        argv.append(f"--cv-grid={','.join(tokens)}")
    for flag in _COMMAND_FLAGS[command]:
        if draw(sometimes):
            argv.append(f"{flag}={draw(valid_or_bad(*_FLAG_VALUES[flag]))}")
    for flag in _COMMAND_TARGETS[command]:
        if draw(sometimes):
            argv.append(f"{flag}={draw(st.sampled_from(_TARGETS))}")
    return argv


@contextlib.contextmanager
def wall_limit(seconds):
    """Turn an example that runs past `seconds` into a failure instead of a hang."""

    def expire(signum, frame):
        raise TimeoutError(f"example ran past {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def argv_dir(tmp_path_factory):
    """A toy CSV and a valid fit report of it."""
    tmp = tmp_path_factory.mktemp("argv")
    write_csv(gen_toy(1), tmp / "toy.csv")
    (tmp / "toy.fit").write_text(fit_to_text(fit_sdsvm(gen_toy(1), KernelSpec())))
    return tmp


class TestPerturbedArgv:
    @settings(deadline=5000)
    @given(perturbed_argv())
    def test_exits_0_1_or_2_and_never_raises(self, argv_dir, argv):
        argv = [tok.format(tmp=argv_dir) for tok in argv]
        out, err = io.StringIO(), io.StringIO()
        with wall_limit(60), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), argv
        assert "Traceback" not in err.getvalue()
