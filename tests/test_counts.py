import itertools
import math
import tracemalloc

import pytest

from fixedform import (
    DEFAULT_EPSILON,
    ENUMERATION_BUDGET,
    NO_ESTIMATE,
    BankGenSpec,
    BudgetError,
    CountCurve,
    ParameterError,
    TestForm,
    binom_total,
    enumerate_exact,
    extrapolate_counts,
    fit_report,
    generate_bank,
    test_information,
)


class TestBinomTotal:
    def test_small_counts_are_exact(self):
        count = binom_total(12, 4)
        assert count.exact == 495
        assert abs(count.log10 - math.log10(495)) < 1e-12

    def test_large_counts_are_log_only(self):
        count = binom_total(300, 20)
        assert count.exact is None
        # Independent route: sum of log10 factors instead of log-gamma.
        expected = sum(math.log10(300 - j) - math.log10(j + 1) for j in range(20))
        assert abs(count.log10 - expected) < 1e-9

    def test_exact_boundary(self):
        assert binom_total(64, 32).exact == math.comb(64, 32)
        assert binom_total(65, 32).exact is None

    @pytest.mark.parametrize("m,n", [(5, 6), (-1, 0), (5, -1)])
    def test_bad_arguments(self, m, n):
        with pytest.raises(ParameterError):
            binom_total(m, n)

    @pytest.mark.parametrize("m,n", [(10, 0), (10, 10), (1, 1)])
    def test_edge_lengths(self, m, n):
        count = binom_total(m, n)
        assert count.exact == 1
        assert abs(count.log10) < 1e-12


class TestExtrapolateCounts:
    def test_unit_ratios_recover_binomials(self):
        # If every form qualifies, the count curve is exactly C(m, n).
        m = 300
        mu = {n: 1.0 for n in range(10, 131, 5)}
        curve = extrapolate_counts(70, binom_total(m, 70).log10, mu, m)
        for n, log10_count in curve.as_dict().items():
            assert abs(log10_count - binom_total(m, n).log10) < 1e-9

    def test_exact_ratios_recover_exact_counts(self, bank12, scaled_curve_12):
        # Ratios measured by full enumeration must extrapolate back to the
        # enumerated counts, whichever anchor is used.
        lengths = range(3, 8)
        exact = {
            n: enumerate_exact(bank12, n, scaled_curve_12, DEFAULT_EPSILON)
            for n in lengths
        }
        mu = {n: exact[n].exceeding / exact[n].total for n in lengths}
        assert all(v > 0 for v in mu.values())
        for anchor_n in lengths:
            anchor_log10 = math.log10(exact[anchor_n].exceeding)
            curve = extrapolate_counts(anchor_n, anchor_log10, mu, bank12.m)
            for n in lengths:
                assert abs(curve.as_dict()[n] - math.log10(exact[n].exceeding)) < 1e-9

    def test_up_then_down_round_trips(self):
        mu = {40: 0.002, 70: 0.31, 100: 0.97}
        up = extrapolate_counts(40, 12.5, mu, 300)
        back = extrapolate_counts(100, up.as_dict()[100], mu, 300)
        assert abs(back.as_dict()[40] - 12.5) < 1e-12

    def test_zero_ratio_gets_nan_and_a_flag(self):
        curve = extrapolate_counts(10, 5.0, {5: 0.0, 10: 0.5, 15: 0.25}, 50)
        by_n = dict(zip(curve.n_values, zip(curve.log10_counts, curve.flags)))
        assert math.isnan(by_n[5][0])
        assert by_n[5][1] == NO_ESTIMATE
        assert by_n[10][1] == ""
        assert by_n[15][1] == ""
        assert curve.anchor == (10, 5.0)

    def test_lengths_come_out_sorted(self):
        curve = extrapolate_counts(10, 5.0, {15: 0.1, 5: 0.2, 10: 0.5}, 50)
        assert curve.n_values == (5, 10, 15)

    def test_anchor_must_be_present_and_positive(self):
        with pytest.raises(ParameterError, match="not in the ratio curve"):
            extrapolate_counts(7, 5.0, {5: 0.5}, 50)
        with pytest.raises(ParameterError, match="positive estimate"):
            extrapolate_counts(5, 5.0, {5: 0.0}, 50)

    def test_bad_curves_rejected(self):
        with pytest.raises(ParameterError, match="lie in"):
            extrapolate_counts(5, 5.0, {5: 0.5, 99: 0.1}, 50)
        with pytest.raises(ParameterError, match="non-negative"):
            extrapolate_counts(5, 5.0, {5: 0.5, 6: -0.1}, 50)
        with pytest.raises(ParameterError, match="finite"):
            extrapolate_counts(5, math.inf, {5: 0.5}, 50)

    def test_field_lengths_must_agree(self):
        with pytest.raises(ParameterError, match="equal lengths"):
            CountCurve((1, 2), (0.5,), ("", ""), (1, 0.5))


class TestEnumerateExact:
    def test_total_is_the_binomial(self, bank12, scaled_curve_12):
        counts = enumerate_exact(bank12, 4, scaled_curve_12, DEFAULT_EPSILON)
        assert counts.total == math.comb(12, 4) == 495
        for value in counts[1:]:
            assert 0 <= value <= counts.total

    def test_single_subset_matches_the_fit_predicates(self, bank12, scaled_curve_12):
        # n = m leaves exactly one form; its classification must agree with
        # the fit predicates applied directly.
        counts = enumerate_exact(bank12, 12, scaled_curve_12, DEFAULT_EPSILON)
        assert counts.total == 1
        curve = test_information(bank12, TestForm(tuple(range(12))), scaled_curve_12.grid)
        report = fit_report(curve, scaled_curve_12, DEFAULT_EPSILON)
        assert counts.exceeding == int(report.exceeding)
        assert counts.absolute == int(report.absolute)
        assert counts.relative == int(report.relative)

    def test_meeting_counts_grow_with_epsilon(self, bank12, scaled_curve_12):
        tight = enumerate_exact(bank12, 4, scaled_curve_12, 0.5)
        loose = enumerate_exact(bank12, 4, scaled_curve_12, 2.0)
        assert tight.absolute <= loose.absolute
        assert tight.relative <= loose.relative
        assert tight.exceeding == loose.exceeding  # epsilon plays no role

    def test_huge_epsilon_saturates_the_absolute_class(self, bank12, scaled_curve_12):
        counts = enumerate_exact(bank12, 4, scaled_curve_12, 1e9)
        assert counts.absolute == counts.total

    def test_budget_refusals_name_the_count(self, bank300, scaled_curve_12):
        with pytest.raises(BudgetError, match=r"C\(300,20\)"):
            enumerate_exact(bank300, 20, scaled_curve_12, DEFAULT_EPSILON)
        bank30 = generate_bank(BankGenSpec(m=30, seed=0))
        assert math.comb(30, 15) > ENUMERATION_BUDGET
        with pytest.raises(BudgetError, match=r"C\(30,15\)"):
            enumerate_exact(bank30, 15, scaled_curve_12, DEFAULT_EPSILON)

    def test_budget_is_adjustable(self, bank12, scaled_curve_12):
        with pytest.raises(BudgetError, match="budget of 100"):
            enumerate_exact(bank12, 4, scaled_curve_12, DEFAULT_EPSILON, budget=100)

    def test_bad_length(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="test length"):
            enumerate_exact(bank12, 0, scaled_curve_12, DEFAULT_EPSILON)


def recount(bank, n, target_curve, epsilon):
    """Classify every form one at a time with the scalar fit report."""
    counts = {"absolute": 0, "relative": 0, "exceeding": 0}
    for ids in itertools.combinations(range(bank.m), n):
        curve = test_information(bank, TestForm(ids), target_curve.grid)
        report = fit_report(curve, target_curve, epsilon)
        for name in counts:
            counts[name] += getattr(report, name)
    return counts


class TestEnumerateMatchesPerFormRecount:
    @pytest.mark.parametrize("epsilon", [0.5, DEFAULT_EPSILON, 2.0])
    def test_every_length_of_bank12(self, bank12, scaled_curve_12, epsilon):
        for n in range(1, bank12.m + 1):
            counts = enumerate_exact(bank12, n, scaled_curve_12, epsilon)
            assert counts.total == math.comb(bank12.m, n)
            assert counts._asdict() == {"total": counts.total, **recount(bank12, n, scaled_curve_12, epsilon)}

    def test_several_chunks_ending_in_a_partial_one(self, scaled_curve_12):
        # C(16, 5) = 4,368 forms: eight full 512-form chunks and one of 272.
        bank16 = generate_bank(BankGenSpec(m=16, seed=6))
        counts = enumerate_exact(bank16, 5, scaled_curve_12, DEFAULT_EPSILON)
        assert counts.total == 4368
        assert counts._asdict() == {"total": 4368, **recount(bank16, 5, scaled_curve_12, DEFAULT_EPSILON)}
        assert min(counts) > 0

    def test_memory_does_not_grow_with_the_form_count(self, scaled_curve_12):
        # C(20, 6) = 38,760 curves would take 37 MB if held at once.
        bank20 = generate_bank(BankGenSpec(m=20, seed=6))
        tracemalloc.start()
        try:
            enumerate_exact(bank20, 6, scaled_curve_12, DEFAULT_EPSILON)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_bad_epsilon_is_refused_up_front(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="epsilon"):
            enumerate_exact(bank12, 4, scaled_curve_12, 0.0)
