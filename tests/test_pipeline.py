import math

import numpy as np
import pytest

from sdsvm import (
    CvConfig,
    Dataset,
    DirectionPolicy,
    KernelSpec,
    OutlyingnessReport,
    decision_values,
    fit_from_text,
    fit_sdsvm,
    fit_to_text,
    gen_simulation,
    gen_toy,
    kernel_matrix,
    select_C,
    solve_dual,
    trim,
)
from sdsvm.data import SimulationSpec
from sdsvm.errors import GroupEmptyAfterTrim, PipelineError, SerializationError, TooFewSamples

LINEAR = KernelSpec(kind="linear")
EXHAUSTIVE = DirectionPolicy(mode="exhaustive")


def report(values):
    return OutlyingnessReport(r=np.asarray(values, dtype=np.float64), policy=EXHAUSTIVE)


class TestTrim:
    def test_half_of_four(self):
        labels = [-1, -1, -1, -1, 1, 1, 1, 1]
        plan = trim(report([3.0, 1.0, 2.0, 4.0]), report([1.0, 2.0, 3.0, 4.0]), labels, 0.5)
        assert plan.h_minus == 2 and plan.h_plus == 2
        assert plan.retained_minus == (1, 2)
        assert plan.retained_plus == (4, 5)
        assert plan.retained == (1, 2, 4, 5)

    def test_kappa_one_keeps_everything(self):
        labels = [-1, -1, -1, 1, 1, 1]
        plan = trim(report([5.0, 1.0, 9.0]), report([2.0, 2.0, 2.0]), labels, 1.0)
        assert plan.retained == (0, 1, 2, 3, 4, 5)
        assert not plan.trimmed.any()

    def test_tie_at_cut_broken_by_index(self):
        labels = [1, 1, 1, 1, -1, -1, -1, -1]
        plan = trim(
            report([1.0, 1.0, 1.0, 1.0]),
            report([0.0, 5.0, 5.0, 9.0]),
            labels,
            0.75,
        )
        assert plan.h_plus == 3
        # positive group sits at dataset indices 0-3; the lower-index 5 stays
        assert plan.retained_plus == (0, 1, 2)
        assert plan.trimmed[3]

    def test_infinite_outlyingness_trimmed_first(self):
        labels = [-1, -1, -1, 1, 1, 1]
        plan = trim(report([np.inf, 0.5, 1.0]), report([1.0, 1.0, 1.0]), labels, 0.5)
        assert 0 not in plan.retained_minus

    def test_empty_group_after_floor(self):
        labels = [-1, 1, 1]
        with pytest.raises(GroupEmptyAfterTrim):
            trim(report([1.0]), report([1.0, 2.0]), labels, 0.5)

    def test_kappa_range_validated(self):
        labels = [-1, 1]
        for bad in (0.4, 1.2):
            with pytest.raises(ValueError, match="kappa"):
                trim(report([1.0]), report([1.0]), labels, bad)

    @pytest.mark.parametrize(
        "kappa,n,expected",
        [(0.5, 4, 2), (0.5, 25, 12), (0.7, 25, 17), (0.9, 29, 26), (0.7, 30, 21), (1.0, 25, 25)],
    )
    def test_floor_counts(self, kappa, n, expected):
        labels = [-1] * n + [1] * n
        plan = trim(report(np.arange(n)), report(np.arange(n)), labels, kappa)
        assert plan.h_minus == expected


def wide_margin_dataset():
    """Two tight clusters far apart: separable at any reasonable C."""
    offsets = np.array([[dx, dy] for dx in (-0.1, 0.0, 0.1) for dy in (-0.1, 0.0, 0.1)])
    neg = offsets + [-5.0, 0.0]
    pos = offsets + [5.0, 0.0]
    rows = np.vstack([neg, pos])
    labels = np.concatenate([-np.ones(9), np.ones(9)])
    return Dataset(x=rows, labels=labels, provenance="wide-margin")


class TestSelectC:
    def test_singleton_grid(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        selection = select_C(om, ds.labels, CvConfig(folds=3, grid=(0.1,)))
        assert selection.c == 0.1
        assert len(selection.table) == 1
        assert selection.table[0][0] == 0.1
        assert math.isfinite(selection.table[0][1])

    def test_wide_margin_reaches_zero_error(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        selection = select_C(om, ds.labels, CvConfig(folds=3, grid=(0.01, 1.0, 100.0)))
        errors = dict(selection.table)
        assert errors[selection.c] == 0.0

    def test_same_seed_same_table(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        cv = CvConfig(folds=4, grid=(0.01, 0.1, 1.0), seed=9)
        first = select_C(om, ds.labels, cv)
        second = select_C(om, ds.labels, cv)
        assert first == second

    def test_ties_prefer_smallest_c(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        selection = select_C(om, ds.labels, CvConfig(folds=3, grid=(10.0, 0.5, 2.0)))
        errors = [err for _, err in selection.table]
        assert errors.count(min(errors)) >= 2  # wide margin: many zeros
        assert selection.c == 0.5

    def test_folds_clamped_to_min_class(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        selection = select_C(om, ds.labels, CvConfig(folds=10, grid=(0.1, 1.0)))
        assert selection.folds_used == 9

    def test_unstratified_folds_still_deterministic(self):
        ds = wide_margin_dataset()
        om = kernel_matrix(LINEAR, ds.x)
        cv = CvConfig(folds=3, grid=(0.1, 1.0), seed=2, stratified=False)
        assert select_C(om, ds.labels, cv) == select_C(om, ds.labels, cv)


class TestFitSdsvm:
    def test_kappa_one_singleton_equals_plain_svm(self):
        ds = wide_margin_dataset()
        fit = fit_sdsvm(ds, LINEAR, kappa=1.0, cv=CvConfig(grid=(0.25,)))
        om = kernel_matrix(LINEAR, ds.x)
        plain = solve_dual(om, ds.labels, 0.25)
        np.testing.assert_allclose(fit.model.alpha, plain.alpha, atol=1e-8)
        assert fit.model.bias == pytest.approx(plain.bias, abs=1e-8)
        np.testing.assert_allclose(
            fit.decision_values, decision_values(plain, om.entries), atol=1e-8
        )
        assert fit.chosen_c == 0.25
        assert fit.folds_used == 0

    def test_contaminated_outliers_all_trimmed(self):
        spec = SimulationSpec(n_per_group=12, dim=40, outliers_per_group=4, test_size=10, runs=1)
        train, _ = gen_simulation(spec, 0)
        fit = fit_sdsvm(train, LINEAR, kappa=0.5)
        planted = list(range(24, 32))  # appended after the 24 clean samples
        assert all(fit.plan.trimmed[i] for i in planted)
        # planted outliers carry the largest outlyingness within their groups
        neg = np.flatnonzero(train.labels < 0)
        pos = np.flatnonzero(train.labels > 0)
        r = fit.plan.outlyingness
        assert min(r[neg[-4:]]) > max(r[neg[:-4]])
        assert min(r[pos[-4:]]) > max(r[pos[:-4]])

    def test_toy_outlier_ids_never_retained(self):
        fit = fit_sdsvm(gen_toy(1), LINEAR)
        assert all(fit.plan.trimmed[i] for i in range(60, 65))  # ids 61-65

    def test_toy_sample_66_moderate_outlyingness(self):
        # misclassified but not extreme: below the largest outlyingness
        # among its group's trimmed samples
        fit = fit_sdsvm(gen_toy(1), LINEAR)
        r = fit.plan.outlyingness
        trimmed_plus = [
            i for i in range(66) if fit.plan.trimmed[i] and fit.labels[i] > 0
        ]
        assert fit.decision_values[65] < 0
        assert r[65] < max(r[i] for i in trimmed_plus)

    def test_group_size_precondition(self):
        rows = np.arange(8.0).reshape(4, 2)
        ds = Dataset(x=rows, labels=np.array([-1.0, -1.0, 1.0, 1.0]))
        with pytest.raises(PipelineError) as excinfo:
            fit_sdsvm(ds, LINEAR)
        assert excinfo.value.stage == "validate"
        assert isinstance(excinfo.value.cause, TooFewSamples)

    def test_stage_label_on_degenerate_groups(self):
        rows = np.ones((8, 2))
        ds = Dataset(x=rows, labels=np.array([-1.0] * 4 + [1.0] * 4))
        with pytest.raises(PipelineError) as excinfo:
            fit_sdsvm(ds, LINEAR)
        assert excinfo.value.stage == "outlyingness"

    def test_policy_recorded_per_group(self):
        fit = fit_sdsvm(gen_toy(2), LINEAR)
        assert fit.policy_minus.mode == "exhaustive"
        assert fit.policy_plus.mode == "exhaustive"

    def test_decision_values_cover_trimmed_samples(self):
        fit = fit_sdsvm(gen_toy(3), LINEAR)
        assert fit.decision_values.shape == (66,)
        assert np.all(np.isfinite(fit.decision_values))


class TestFitReport:
    def test_round_trip(self):
        fit = fit_sdsvm(gen_toy(5), LINEAR)
        text = fit_to_text(fit)
        back = fit_from_text(text)
        assert back.kappa == fit.kappa
        assert back.chosen_c == fit.chosen_c
        assert back.folds_used == fit.folds_used
        assert back.ids == tuple(str(i) for i in fit.ids)
        assert np.array_equal(back.labels, fit.labels)
        assert np.array_equal(back.decision_values, fit.decision_values)
        assert np.array_equal(back.plan.outlyingness, fit.plan.outlyingness)
        assert np.array_equal(back.plan.trimmed, fit.plan.trimmed)
        assert back.model.bias == fit.model.bias
        assert np.array_equal(back.model.alpha, fit.model.alpha)
        # second serialization is byte-identical
        assert fit_to_text(back) == text

    def test_cv_table_round_trip(self):
        ds = wide_margin_dataset()
        fit = fit_sdsvm(ds, LINEAR, cv=CvConfig(folds=3, grid=(0.01, 1.0)))
        back = fit_from_text(fit_to_text(fit))
        assert back.cv_table == fit.cv_table
        assert back.folds_used == fit.folds_used

    @pytest.mark.parametrize(
        "line, replacement",
        [
            (1, "kappa x"),
            (4, "policy-minus exhaustive"),
            (6, "kernel gamma"),
            (10, "sdsvm-model-v1 kind=linear C=x tol=0.001"),
        ],
    )
    def test_malformed_report_raises_serialization_error(self, line, replacement):
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        lines[line] = replacement
        with pytest.raises(SerializationError):
            fit_from_text("\n".join(lines))

    def test_truncated_report_raises_serialization_error(self):
        lines = fit_to_text(fit_sdsvm(gen_toy(5), LINEAR)).splitlines()
        with pytest.raises(SerializationError):
            fit_from_text("\n".join(lines[:-3]))
