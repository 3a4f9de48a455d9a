import pytest

from sdsvm.cli import build_parser, main


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
        ],
    )
    def test_bad_path_or_value_exits_with_stage(self, tmp_path, capsys, argv, code, stage):
        (tmp_path / "d.csv").write_text("0,0,-1\n1,0,-1\n0,1,-1\n3,3,1\n4,3,1\n3,4,1\n")
        (tmp_path / "nan.csv").write_text("0,0,-1\n1,0,-1\n0,nan,-1\n3,3,1\n4,3,1\n3,4,1\n")
        (tmp_path / "bin.dat").write_bytes(bytes(range(128, 256)) * 3)
        (tmp_path / "s.fasta").write_text(">a\nACGT\n>b\nGGTT\n")
        argv = [tok.format(tmp=tmp_path) for tok in argv]
        got, _, err = run_cli(capsys, *argv)
        assert got == code
        assert stage in err

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
        assert "error in simulate" in err and "PipelineError" in err


class TestMap:
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

    def test_map_needs_exactly_one_source(self, capsys):
        code, _, err = run_cli(capsys, "map")
        assert code == 1

    def test_map_from_dataset(self, tmp_path, capsys):
        from sdsvm import gen_toy, save_csv

        data = tmp_path / "toy.csv"
        save_csv(gen_toy(3), data)
        svg = tmp_path / "m.svg"
        code, _, _ = run_cli(capsys, "map", str(data), "--out-svg", str(svg))
        assert code == 0
        assert svg.exists()


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
