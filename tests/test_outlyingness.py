import itertools

import numpy as np
import pytest

from sdsvm import (
    DirectionPolicy,
    KernelMatrix,
    KernelSpec,
    OutlyingnessReport,
    default_policy,
    kernel_matrix,
    outlyingness,
)
from sdsvm.errors import EmptyInput, NoValidDirections, TooFewSamples
from sdsvm.outlyingness import DEGENERACY_TOL, enumerate_directions

from conftest import make_vectors
from oracles import (
    DegenerateDirection,
    InvalidPair,
    outlyingness_np_median,
    policy_pairs,
    projection_vector,
    robust_location,
    robust_scale,
    sample_pairs_one_at_a_time,
    sd_outlyingness_kernel_brute,
)


EXHAUSTIVE = DirectionPolicy(mode="exhaustive")


def linear_matrix(rows):
    return kernel_matrix(KernelSpec(), make_vectors(rows))


def all_pairs(om):
    return list(itertools.combinations(range(om.k), 2))


def pair_list(directions):
    return list(zip(directions.lo.tolist(), directions.hi.tolist()))


class TestRobustEstimators:
    def test_location_odd(self):
        assert robust_location([1, 2, 3]) == 2.0

    def test_location_even_is_midpoint(self):
        assert robust_location([1, 2, 3, 4]) == 2.5

    def test_location_singleton(self):
        assert robust_location([5]) == 5.0

    def test_location_empty(self):
        with pytest.raises(EmptyInput):
            robust_location([])

    def test_scale_simple(self):
        assert robust_scale([1, 2, 3]) == 1.0

    def test_scale_constant_vector(self):
        assert robust_scale([4.2] * 7) == 0.0

    def test_scale_with_outlier(self):
        # deviations from median 2 are (2, 1, 0, 1, 98): median 1
        assert robust_scale([0, 1, 2, 3, 100]) == 1.0

    def test_scale_empty(self):
        with pytest.raises(EmptyInput):
            robust_scale([])


class TestProjectionVector:
    def test_one_dimensional_pair(self):
        om = linear_matrix([[0.0], [1.0]])
        proj = projection_vector(om, 0, 1)
        assert np.array_equal(proj.values, [0.0, -1.0])
        assert proj.pair == (0, 1)

    def test_same_index_invalid(self):
        om = linear_matrix([[0.0], [1.0]])
        with pytest.raises(InvalidPair):
            projection_vector(om, 1, 1)

    def test_duplicate_samples_degenerate(self):
        om = linear_matrix([[1.0, 2.0], [1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(DegenerateDirection):
            projection_vector(om, 0, 1)

    def test_unit_norm_in_feature_space(self):
        rows = np.sin(np.arange(12.0)).reshape(4, 3)
        om = linear_matrix(rows)
        proj = projection_vector(om, 0, 2)
        # projections of the defining pair differ by exactly the norm
        diff = proj.values[0] - proj.values[2]
        norm = np.linalg.norm(rows[0] - rows[2])
        assert diff == pytest.approx(norm, rel=1e-12)


class TestEnumerateDirections:
    def test_exhaustive_counts_all_pairs(self):
        om = linear_matrix(np.eye(4))
        directions = enumerate_directions(om, DirectionPolicy(mode="exhaustive"))
        assert len(directions) == 6 and directions.degenerate == 0
        assert pair_list(directions) == all_pairs(om)

    def test_default_policy_switches_at_100(self):
        assert default_policy(100).mode == "exhaustive"
        auto = default_policy(101)
        assert auto.mode == "sampled" and auto.count == 2000

    def test_default_policy_samples_2000_pairs(self):
        rows = np.arange(101.0 * 2).reshape(101, 2)
        om = linear_matrix(rows)
        directions = enumerate_directions(om)
        assert directions.policy == DirectionPolicy(mode="sampled", count=2000)
        assert len(directions) == len(set(pair_list(directions))) == 2000

    def test_same_seed_same_pairs(self):
        rows = np.arange(40.0).reshape(20, 2)
        om = linear_matrix(rows)
        policy = DirectionPolicy(mode="sampled", count=30, seed=7)
        first, second = enumerate_directions(om, policy), enumerate_directions(om, policy)
        assert pair_list(first) == pair_list(second)
        assert first.sq.tobytes() == second.sq.tobytes()

    def test_all_identical_samples(self):
        om = linear_matrix([[1.0, 1.0]] * 4)
        with pytest.raises(NoValidDirections):
            enumerate_directions(om, DirectionPolicy(mode="exhaustive"))
        with pytest.raises(NoValidDirections):
            enumerate_directions(om, DirectionPolicy(mode="sampled", count=3))

    def test_sampling_skips_degenerate_pairs(self):
        rows = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
        om = linear_matrix(rows)
        policy = DirectionPolicy(mode="sampled", count=5, seed=3)
        pairs = pair_list(enumerate_directions(om, policy))
        assert (0, 1) not in pairs
        assert len(pairs) == len(set(pairs)) == 5

    @pytest.mark.parametrize("policy", [EXHAUSTIVE, DirectionPolicy(mode="sampled", count=7, seed=2)])
    def test_record_holds_scanned_pairs_only(self, policy):
        om = _random_matrix(9, seed=5, duplicates=3)
        directions = enumerate_directions(om, policy)
        assert directions.lo.dtype == directions.hi.dtype == np.intp
        assert np.all(directions.lo < directions.hi)
        diag = np.diag(om.entries)
        assert np.all(directions.sq > DEGENERACY_TOL * np.abs(diag[directions.lo] + diag[directions.hi]))
        report = outlyingness(om, policy)
        assert len(directions) + directions.degenerate == report.directions
        assert directions.degenerate == report.degenerate_pairs

    @pytest.mark.parametrize("k", [0, 1])
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    def test_fewer_than_two_samples_have_no_direction(self, k, mode):
        with pytest.raises(NoValidDirections):
            enumerate_directions(KernelMatrix(np.eye(k)), DirectionPolicy(mode=mode))


class TestOutlyingness:
    def test_one_dimensional_example(self):
        om = linear_matrix([[0.0], [1.0], [2.0], [3.0], [100.0]])
        report = outlyingness(om)
        assert report.r[4] == 98.0
        assert report.r[2] == 0.0
        assert report.degenerate_pairs == 0

    def test_all_identical(self):
        om = linear_matrix([[2.0, 2.0]] * 5)
        with pytest.raises(NoValidDirections):
            outlyingness(om)

    def test_too_few_samples(self):
        om = linear_matrix([[0.0], [1.0]])
        with pytest.raises(TooFewSamples):
            outlyingness(om)

    def test_duplicate_of_zero_depth_point_keeps_it_at_zero(self):
        # In odd-count 1-D data the median point has r == 0 exactly; doubling
        # it keeps it at the exact median of the augmented projections.
        values = [[-3.0], [-1.0], [0.5], [2.0], [7.0]]
        base = outlyingness(linear_matrix(values))
        deepest = int(np.argmin(base.r))
        assert base.r[deepest] == 0.0
        augmented = values + [values[deepest]]
        report = outlyingness(linear_matrix(augmented))
        assert report.r[deepest] == 0.0
        # full agreement with independent per-pair recomputation
        om2 = linear_matrix(augmented)
        expected = sd_outlyingness_kernel_brute(om2.entries, all_pairs(om2))
        np.testing.assert_allclose(report.r, expected, rtol=1e-12)

    def test_duplicate_pair_counts_as_degenerate(self):
        rows = [[0.0, 0.0], [0.0, 0.0], [1.0, 0.3], [0.2, 1.1], [2.1, 1.7]]
        report = outlyingness(linear_matrix(rows))
        assert report.degenerate_pairs == 1
        assert np.all(np.isfinite(report.r))

    def test_mad_zero_direction_gives_inf_to_offside_sample(self):
        # Four of five points collapse onto one spot; directions through the
        # far point see mad 0 from the cluster but a nonzero deviation for it.
        rows = [[0.0], [0.0], [0.0], [0.0], [5.0]]
        report = outlyingness(linear_matrix(rows))
        assert report.r[4] == np.inf
        assert np.all(report.r[:4] == 0.0)

    def test_matches_brute_force_on_random_matrix(self):
        rows = np.cos(np.arange(0.0, 21.0)).reshape(7, 3) * 2.0 + 0.3
        om = linear_matrix(rows)
        report = outlyingness(om)
        expected = sd_outlyingness_kernel_brute(om.entries, all_pairs(om))
        np.testing.assert_allclose(report.r, expected, rtol=1e-12)

    def test_report_rejects_negative_values_and_keeps_nan(self):
        for bad in ([0.0, -1.0], [0.0, -np.inf]):
            with pytest.raises(ValueError, match="nonnegative"):
                OutlyingnessReport(r=np.array(bad), policy=EXHAUSTIVE)
        report = OutlyingnessReport(r=np.array([np.nan, np.inf, 0.0]), policy=EXHAUSTIVE)
        assert np.isnan(report.r[0]) and report.r[1] == np.inf

    def test_report_records_policy(self):
        rows = np.arange(12.0).reshape(6, 2)
        policy = DirectionPolicy(mode="sampled", count=4, seed=11)
        report = outlyingness(linear_matrix(rows), policy)
        assert report.policy == policy
        assert report.k == 6


def _random_matrix(k, seed, duplicates=0):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, 3))
    rows[k - duplicates :] = rows[0]
    return linear_matrix(rows)


def _unchecked(entries):
    om = object.__new__(KernelMatrix)
    object.__setattr__(om, "entries", np.asarray(entries, dtype=np.float64))
    return om


def _overflowing_matrix(k):
    rng = np.random.default_rng(4)
    entries = rng.choice([1e308, -1e308, 1.0, 0.0], size=(k, k))
    return _unchecked(np.triu(entries) + np.triu(entries, 1).T)


class TestSampledPairsMatchOneAtATime:
    """Block draws give the pairs of the one-pair-per-draw loop, in order,
    and a count that covers every pair scans them all; the record keeps
    those with a squared norm above the degeneracy floor."""

    @staticmethod
    def _check(k, count, seed, om):
        policy = DirectionPolicy(mode="sampled", count=count, seed=seed)
        expected, draws = policy_pairs(policy, om.entries)
        e = om.entries
        with np.errstate(over="ignore", invalid="ignore"):
            scanned = [
                (i, j)
                for i, j in expected
                if (e[i, i] + e[j, j]) - 2.0 * e[i, j] > DEGENERACY_TOL * abs(e[i, i] + e[j, j])
            ]
        directions = enumerate_directions(om, policy)
        assert directions.policy == policy
        assert pair_list(directions) == scanned
        assert directions.degenerate == len(expected) - len(scanned)
        assert directions.draws == draws
        return directions

    @pytest.mark.parametrize(
        "k, count",
        [(3, 1), (3, 3), (3, 4), (5, 1), (5, 10), (5, 11), (50, 1), (50, 10), (50, 1225)]
        + [(300, 1), (300, 10), (300, 2000)],
    )
    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_counts_up_to_and_past_all_pairs(self, k, count, seed):
        self._check(k, count, seed, _random_matrix(k, seed=k))

    def test_duplicate_points_are_rejected_as_degenerate(self):
        # Row 0 and its 6 copies coincide: 21 of the 190 pairs are
        # degenerate, so asking for 175 runs into the rejection limit, and
        # asking for 190 scans every pair.
        om = _random_matrix(20, seed=1, duplicates=6)
        for count in (10, 175, 190):
            self._check(20, count, 9, om)

    def test_rejection_limit(self):
        # 169 of the 190 pairs are valid: asking for 180 draws on until
        # 100 * 180 rejections are exceeded.
        directions = self._check(20, 180, 9, _random_matrix(20, seed=1, duplicates=6))
        assert len(directions) == 169
        assert directions.draws == 169 + 100 * 180 + 1

    @pytest.mark.parametrize("k, count", [(3, 3), (3, 2000), (30, 435), (30, 10**12)])
    def test_full_count_scans_every_pair(self, k, count):
        # A count that covers all k(k-1)/2 pairs scans them in order and
        # draws nothing; one pair fewer is still drawn.
        om = _random_matrix(k, seed=2)
        directions = self._check(k, count, 5, om)
        assert pair_list(directions) == list(itertools.combinations(range(k), 2))
        assert directions.draws == 0
        assert self._check(k, k * (k - 1) // 2 - 1, 5, om).draws > 0

    def test_no_valid_pair_raises(self):
        # A full count scans all 6 pairs; a smaller one draws until its
        # rejection limit and keeps none.
        om = linear_matrix([[1.0, 1.0]] * 4)
        for count, scanned in [(10**12, 6), (6, 6), (5, 0)]:
            with pytest.raises(NoValidDirections, match=f"among {scanned} enumerated pairs"):
                enumerate_directions(om, DirectionPolicy(mode="sampled", count=count))
        with pytest.raises(NoValidDirections):
            sample_pairs_one_at_a_time(4, 5, 0, om.entries)

    def test_nan_norm_is_accepted(self):
        # The squared norm of (0, 1) is (1e308 + 1e308) - 2e308 = inf - inf,
        # nan, which is not <= the degeneracy floor: the loop accepts it,
        # and the record counts it as degenerate.  A count of 9 of the 10
        # pairs keeps the sampler's rule in play.
        entries = np.eye(5)
        entries[:2, :2] = 1e308
        directions = self._check(5, 9, 3, _unchecked(entries))
        assert (0, 1) not in pair_list(directions) and directions.degenerate == 1


class TestMediansMatchNumpy:
    """r equals the np.median chunk loop bit for bit."""

    @staticmethod
    def _check(om, policy):
        pairs, draws = policy_pairs(policy, om.entries)
        expected, degenerate = outlyingness_np_median(om.entries, pairs)
        report = outlyingness(om, policy)
        assert report.r.tobytes() == expected.tobytes()
        assert report.degenerate_pairs == degenerate
        assert report.directions == len(pairs)
        assert report.draws == draws
        return report

    @pytest.mark.parametrize("k", [3, 4, 7, 8, 33, 64])
    def test_odd_and_even_k(self, k):
        self._check(_random_matrix(k, seed=k), EXHAUSTIVE)

    @pytest.mark.parametrize("k", [9, 10])
    def test_ties_and_mad_zero(self, k):
        # Integer coordinates on a small grid give tied projections; more
        # than half of the points at the origin give directions with mad 0.
        rows = np.random.default_rng(k).integers(-1, 2, size=(k, 2))
        rows[: k // 2 + 1] = 0
        report = self._check(linear_matrix(rows), EXHAUSTIVE)
        assert np.isinf(report.r).any()

    def test_signed_zeros(self):
        entries = np.array(
            [
                [1.0, -0.0, 0.0, -0.0, 2.0],
                [-0.0, 1.0, -0.0, 0.0, -0.0],
                [0.0, -0.0, 1.0, -0.0, 0.0],
                [-0.0, 0.0, -0.0, 1.0, -0.0],
                [2.0, -0.0, 0.0, -0.0, 5.0],
            ]
        )
        self._check(_unchecked(entries), EXHAUSTIVE)

    @pytest.mark.parametrize("k", [5, 6])
    def test_overflowing_entries(self, k):
        # Differences of 1e308 entries overflow to inf and their norms to
        # inf or nan; every sample ends at r = inf.
        report = self._check(_overflowing_matrix(k), EXHAUSTIVE)
        assert np.all(report.r == np.inf)

    def test_sampled_chunks(self):
        om = _random_matrix(300, seed=3, duplicates=4)
        report = self._check(om, DirectionPolicy(mode="sampled", count=2000, seed=8))
        assert report.directions == 2000
        assert report.draws > 2000

    def test_exhaustive_report_counts(self):
        report = outlyingness(_random_matrix(12, seed=0, duplicates=2), EXHAUSTIVE)
        # 3 coinciding points: 3 degenerate pairs
        assert (report.directions, report.degenerate_pairs, report.draws) == (66, 3, 0)
