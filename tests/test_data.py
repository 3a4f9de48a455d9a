import math

import numpy as np
import pytest

from sdsvm import (
    Dataset,
    KernelSpec,
    SimulationSpec,
    gen_simulation,
    gen_toy,
    load_csv,
    load_fasta,
    run_simulation,
)
from sdsvm.data import OUTLIER_MEAN_MINUS, OUTLIER_MEAN_PLUS, simulation_rows_csv, simulation_summary_csv
from sdsvm.errors import DuplicateId, LabelError, MissingLabel, ParseError
from sdsvm.rng import derive_key

from conftest import write_csv
from oracles import stream_normals_reference

LINEAR = KernelSpec(kind="linear")

# kept tiny so the sweep-based tests stay fast
SMALL_SPEC = SimulationSpec(
    n_per_group=6, dim=8, shift=1.5, test_size=20, runs=2, kappas=(0.5, 1.0), seed=3
)


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        target = tmp_path / name
        target.write_text(text)
        return target

    def test_two_rows_last_column_labels(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "1,2,-1\n3,4,1\n"))
        assert len(ds) == 2
        assert np.array_equal(ds.labels, [-1.0, 1.0])
        assert np.array_equal(ds.x[0], [1.0, 2.0])
        assert ds.ids[0] == 1 and ds.ids[1] == 2

    def test_first_column_labels(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "-1,5,6\n1,7,8\n"), label_col="first")
        assert np.array_equal(ds.x[0], [5.0, 6.0])

    @pytest.mark.parametrize("label_col", [1, np.int64(1)])
    def test_integer_label_column(self, tmp_path, label_col):
        ds = load_csv(self.write(tmp_path, "5,-1,6\n7,1,8\n"), label_col=label_col)
        assert np.array_equal(ds.labels, [-1.0, 1.0])
        assert np.array_equal(ds.x[0], [5.0, 6.0])

    @pytest.mark.parametrize("label_col", [2.7, True, "1"])
    def test_label_column_must_be_an_integer(self, tmp_path, label_col):
        with pytest.raises(ValueError, match="^label_col must be an integer"):
            load_csv(self.write(tmp_path, "5,-1,6\n7,1,8\n"), label_col=label_col)

    def test_zero_label_rejected(self, tmp_path):
        with pytest.raises(LabelError) as excinfo:
            load_csv(self.write(tmp_path, "1,2,-1\n3,4,0\n"))
        assert excinfo.value.line == 2

    def test_two_value_coding(self, tmp_path):
        ds = load_csv(self.write(tmp_path, "1,2,tumor\n3,4,normal\n"), coding=("tumor", "normal"))
        assert np.array_equal(ds.labels, [-1.0, 1.0])

    def test_ragged_row(self, tmp_path):
        with pytest.raises(ParseError) as excinfo:
            load_csv(self.write(tmp_path, "1,2,-1\n3,1\n"))
        assert excinfo.value.line == 2

    def test_non_numeric_cell(self, tmp_path):
        with pytest.raises(ParseError) as excinfo:
            load_csv(self.write(tmp_path, "1,x,-1\n"))
        assert excinfo.value.line == 1

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell(self, tmp_path, cell):
        with pytest.raises(ParseError, match="non-finite") as excinfo:
            load_csv(self.write(tmp_path, f"1,2,-1\n3,{cell},1\n"))
        assert excinfo.value.line == 2

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(self.write(tmp_path, ""))

    def test_save_then_load_round_trip(self, tmp_path):
        original = gen_toy(4)
        target = tmp_path / "toy.csv"
        write_csv(original, target)
        back = load_csv(target)
        assert np.array_equal(back.labels, original.labels)
        assert np.array_equal(back.x, original.x)


class TestLoadFasta:
    def write(self, tmp_path, fasta, labels):
        f = tmp_path / "seqs.fasta"
        f.write_text(fasta)
        l = tmp_path / "labels.txt"
        l.write_text(labels)
        return f, l

    def test_two_records(self, tmp_path):
        ds = load_fasta(*self.write(tmp_path, ">a\nACGT\n>b\nGGTT\n", "a 1\nb -1\n"))
        assert len(ds) == 2
        assert ds.x[0] == "ACGT"
        assert ds.ids[0] == "a"
        assert np.array_equal(ds.labels, [1.0, -1.0])

    def test_multi_line_sequence_concatenated(self, tmp_path):
        ds = load_fasta(*self.write(tmp_path, ">a desc here\nACGT\nTTAA\nG\n", "a 1\n"))
        assert ds.x[0] == "ACGTTTAAG"

    def test_missing_label(self, tmp_path):
        with pytest.raises(MissingLabel) as excinfo:
            load_fasta(*self.write(tmp_path, ">a\nAC\n>b\nGT\n", "a 1\n"))
        assert excinfo.value.sample_id == "b"

    def test_duplicate_record_id(self, tmp_path):
        with pytest.raises(DuplicateId):
            load_fasta(*self.write(tmp_path, ">a\nAC\n>a\nGT\n", "a 1\n"))

    def test_duplicate_label_id(self, tmp_path):
        with pytest.raises(DuplicateId):
            load_fasta(*self.write(tmp_path, ">a\nAC\n", "a 1\na -1\n"))

    def test_bad_label_value(self, tmp_path):
        with pytest.raises(LabelError):
            load_fasta(*self.write(tmp_path, ">a\nAC\n", "a 2\n"))


class TestGenerators:
    def test_clean_simulation_sizes(self):
        train, test = gen_simulation(SimulationSpec(), 0)
        assert len(train) == 50
        assert len(test) == 600
        assert train.x[0].shape == (1000,)

    def test_contaminated_adds_eight(self):
        train, _ = gen_simulation(SimulationSpec(outliers_per_group=4), 0)
        assert len(train) == 58
        assert np.array_equal(train.labels[50:], [-1.0] * 4 + [1.0] * 4)

    def test_same_seed_and_run_identical(self):
        spec = SimulationSpec(n_per_group=4, dim=6, test_size=8)
        a_train, a_test = gen_simulation(spec, 3)
        b_train, b_test = gen_simulation(spec, 3)
        for a, b in ((a_train, b_train), (a_test, b_test)):
            assert np.array_equal(a.labels, b.labels)
            assert np.array_equal(a.x, b.x)

    def test_different_runs_differ(self):
        spec = SimulationSpec(n_per_group=4, dim=6, test_size=8)
        a, _ = gen_simulation(spec, 0)
        b, _ = gen_simulation(spec, 1)
        assert not np.array_equal(a.x[0], b.x[0])

    @pytest.mark.parametrize(
        "spec",
        [
            SimulationSpec(n_per_group=3, dim=7, test_size=9, seed=4),
            SimulationSpec(n_per_group=5, dim=9, shift=-0.0, outliers_per_group=3, test_size=4, seed=5),
            # test-plus draws 301 * 333 = 100,233 normals: an odd count over
            # several blocks.
            SimulationSpec(n_per_group=25, dim=333, outliers_per_group=4, test_size=601, seed=2),
        ],
    )
    @pytest.mark.parametrize("run", [0, 3])
    def test_simulation_is_the_documented_construction(self, spec, run):
        # Each group's rows are its own stream's normals plus the group's
        # mean; minus groups add nothing, so -0.0 stays -0.0 there.
        def rows(name, count, mean=None):
            key = derive_key(spec.seed, "sim", run, name)
            block = stream_normals_reference(key, 0, count * spec.dim).reshape(count, spec.dim)
            return block if mean is None else block + mean

        n, m = spec.n_per_group, spec.outliers_per_group
        train = [rows("train-minus", n), rows("train-plus", n, spec.shift)]
        train_labels = [-1.0] * n + [1.0] * n
        if m:
            train += [rows("outliers-minus", m, OUTLIER_MEAN_MINUS), rows("outliers-plus", m, OUTLIER_MEAN_PLUS)]
            train_labels += [-1.0] * m + [1.0] * m
        half = spec.test_size // 2
        test = [rows("test-minus", half), rows("test-plus", spec.test_size - half, spec.shift)]
        test_labels = [-1.0] * half + [1.0] * (spec.test_size - half)
        got_train, got_test = gen_simulation(spec, run)
        assert got_train.x.tobytes() == np.vstack(train).tobytes()
        assert got_test.x.tobytes() == np.vstack(test).tobytes()
        assert got_train.labels.tolist() == train_labels
        assert got_test.labels.tolist() == test_labels

    def test_toy_layout(self):
        ds = gen_toy(0)
        assert len(ds) == 66
        assert np.array_equal(ds.x[65], [0.0, 0.0])
        assert ds.ids[65] == 66
        assert np.array_equal(ds.labels[:30], -np.ones(30))
        assert np.array_equal(ds.labels[30:], np.ones(36))

    @pytest.mark.parametrize("seed", range(5))
    def test_toy_jitter_stays_near_centers(self, seed):
        ds = gen_toy(seed)
        for i in (60, 61, 62):
            assert np.linalg.norm(ds.x[i] - [5.0, 7.0]) < 1.5
        for i in (63, 64):
            assert np.linalg.norm(ds.x[i] - [5.0, -5.0]) < 1.5

    def test_toy_determinism(self):
        a, b = gen_toy(9), gen_toy(9)
        assert np.array_equal(a.x, b.x)

    def test_group_means_land_where_declared(self):
        # loose aggregate sanity check on the generator marginals
        spec = SimulationSpec(n_per_group=40, dim=50, shift=0.18, test_size=2, runs=1)
        pooled_minus, pooled_plus = [], []
        for run in range(5):
            train, _ = gen_simulation(spec, run)
            x = train.x
            pooled_minus.append(x[:40].mean())
            pooled_plus.append(x[40:].mean())
        n_values = 5 * 40 * 50
        bound = 4.0 / math.sqrt(n_values)
        assert abs(float(np.mean(pooled_minus))) < bound
        assert abs(float(np.mean(pooled_plus)) - 0.18) < bound


class TestRunSimulation:
    def test_single_run_error_in_range(self):
        spec = SimulationSpec(n_per_group=6, dim=8, shift=1.5, test_size=20, runs=1, kappas=(1.0,))
        result = run_simulation(spec, LINEAR)
        assert len(result.rows) == 1
        assert 0.0 <= result.rows[0].error <= 1.0

    def test_row_grid_runs_times_kappas(self):
        result = run_simulation(SMALL_SPEC, LINEAR)
        assert len(result.rows) == 4
        assert [(r.run, r.kappa) for r in result.rows] == [
            (0, 0.5),
            (0, 1.0),
            (1, 0.5),
            (1, 1.0),
        ]

    def test_error_fractions_are_multiples_of_test_size(self):
        result = run_simulation(SMALL_SPEC, LINEAR)
        for row in result.rows:
            scaled = row.error * SMALL_SPEC.test_size
            assert scaled == pytest.approx(round(scaled), abs=1e-9)

    def test_summary_has_one_row_per_kappa(self):
        result = run_simulation(SMALL_SPEC, LINEAR)
        assert [s.kappa for s in result.summary] == [0.5, 1.0]
        for s in result.summary:
            assert s.q1 <= s.median <= s.q3

    def test_csv_rendering(self):
        result = run_simulation(SMALL_SPEC, LINEAR)
        rows = simulation_rows_csv(result).splitlines()
        assert rows[0] == "run,kappa,error"
        assert len(rows) == 5
        summary = simulation_summary_csv(result).splitlines()
        assert summary[0] == "kappa,median,q1,q3"
        assert len(summary) == 3

    def test_failures_marked_not_fatal(self):
        # a group of 3 at kappa 0.5 floors to h = 1 which trains fine, but
        # with 2 samples per group the pipeline refuses; errors become nan
        # rows, and the ranking is retried and fails alike at every kappa
        spec = SimulationSpec(n_per_group=2, dim=4, shift=1.0, test_size=4, runs=1, kappas=(0.5, 1.0))
        result = run_simulation(spec, LINEAR)
        assert len(result.rows) == 2
        for row, summary in zip(result.rows, result.summary):
            assert math.isnan(row.error)
            assert row.failure == "TooFewSamples"
            assert math.isnan(summary.median)


class TestDatasetValidation:
    def test_label_alignment_checked(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((1, 1)), labels=np.array([1.0, -1.0]))

    def test_label_values_checked(self):
        with pytest.raises(ValueError):
            Dataset(x=np.zeros((1, 1)), labels=np.array([2.0]))
