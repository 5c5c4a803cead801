import itertools
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fixedform import (
    DEFAULT_EPSILON,
    ENUMERATION_BUDGET,
    NO_ESTIMATE,
    AbilityGrid,
    BankGenSpec,
    BudgetError,
    CountCurve,
    Curve,
    ParameterError,
    TargetSpec,
    TestForm,
    binom_total,
    builtin_lsat_target,
    enumerate_exact,
    extrapolate_counts,
    fit_report,
    generate_bank,
    information_matrix,
    tabulate_target,
    test_information,
    trapezoid_weights,
)
from fixedform import counts as counts_module
from fixedform.metrics import _l2_rows, _MeetingRule


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


# Own-count anchors: log10 mu(n0) + log10 C(m, n0), the anchor `fixedform counts` writes.
# Ratios are at least 1e-12 and m at most 400, so every count is below 128 in log10
# and one rounding costs at most 7.1e-15.
_RATIO = st.one_of(st.just(0.0), st.floats(1e-12, 1.0))


@st.composite
def _ratio_curves(draw):
    m = draw(st.integers(2, 400))
    lengths = draw(st.lists(st.integers(1, m), min_size=2, max_size=8, unique=True))
    mu = {n: draw(_RATIO) for n in lengths}
    mu[lengths[0]] = draw(st.floats(1e-12, 1.0))
    mu[lengths[1]] = draw(st.floats(1e-12, 1.0))
    return m, mu


class TestExtrapolationClosedForm:
    @given(case=_ratio_curves())
    def test_own_count_anchors_give_each_length_its_own_count(self, case):
        m, mu = case
        anchors = [n for n in mu if mu[n] > 0.0]
        curves = [
            extrapolate_counts(n0, math.log10(mu[n0]) + binom_total(m, n0).log10, mu, m).as_dict()
            for n0 in anchors
        ]
        for n, ratio in mu.items():
            cells = [curve[n] for curve in curves]
            if ratio == 0.0:
                assert all(math.isnan(cell) for cell in cells)
                continue
            own = math.log10(ratio) + binom_total(m, n).log10
            assert all(abs(cell - own) <= 3e-14 for cell in cells), (n, own, cells)
            assert max(cells) - min(cells) <= 3e-14, (n, cells)


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
        # C(16, 5) = 4,368 forms: more than one 4,096-form block, so the last level is split.
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

    @pytest.mark.parametrize("epsilon", [1e200, sys.float_info.max, np.float64(1e200)],
                             ids=["1e200", "max", "np.float64-1e200"])
    def test_an_epsilon_whose_square_overflows(self, bank12, scaled_curve_12, epsilon):
        # Under the suite's warnings-as-errors an inf - inf in the meeting rule fails the test.
        for n in (1, 4, 11):
            counts = enumerate_exact(bank12, n, scaled_curve_12, epsilon)
            assert counts._asdict() == {"total": counts.total, **recount(bank12, n, scaled_curve_12, epsilon)}
            assert counts.absolute == counts.total

    def test_bad_epsilon_is_refused_up_front(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="epsilon"):
            enumerate_exact(bank12, 4, scaled_curve_12, 0.0)


SCALES = (0.02, 0.05, 0.1, 0.3)
EPSILONS = (0.3, DEFAULT_EPSILON, 3.0)


def scaled_lsat(scale):
    return tabulate_target(TargetSpec(tuple(c * scale for c in builtin_lsat_target().coefficients)), AbilityGrid())


def assert_matches_recount(bank, n, target_curve, epsilon):
    exact = enumerate_exact(bank, n, target_curve, epsilon)
    assert exact._asdict() == {"total": math.comb(bank.m, n), **recount(bank, n, target_curve, epsilon)}
    return exact


class TestPrefixWalkMatchesPerFormRecount:
    """The walk by shared prefixes and the three-sum meeting rule count what the per-form reports count."""

    @pytest.mark.parametrize("m, n", [(16, 4), (18, 3)])
    @pytest.mark.parametrize("scale", SCALES)
    def test_banks_16_and_18(self, m, n, scale):
        bank = generate_bank(BankGenSpec(m=m, seed=6))
        for epsilon in EPSILONS:
            assert_matches_recount(bank, n, scaled_lsat(scale), epsilon)

    @pytest.mark.parametrize("m", [16, 18])
    @pytest.mark.parametrize("scale", SCALES)
    def test_edge_lengths(self, m, scale):
        bank = generate_bank(BankGenSpec(m=m, seed=6))
        for n, epsilon in itertools.product((1, m), EPSILONS):
            assert_matches_recount(bank, n, scaled_lsat(scale), epsilon)

    @pytest.mark.parametrize("num_points", [5, 9])
    def test_more_items_than_grid_nodes(self, bank12, scaled_target_12, num_points):
        # With m > N a row carries its weighted curve instead of its row of G.
        target = tabulate_target(scaled_target_12, AbilityGrid(num_points=num_points))
        for n in range(1, bank12.m + 1):
            assert_matches_recount(bank12, n, target, DEFAULT_EPSILON)

    def test_counts_do_not_depend_on_the_block_sizes(self, bank12, scaled_curve_12, monkeypatch):
        # Blocks this small split every level of the walk, down to single prefixes.
        monkeypatch.setattr(counts_module, "_BLOCK_FORMS", 5)
        monkeypatch.setattr(counts_module, "_BLOCK_SUMS", 60)
        for n in range(1, bank12.m + 1):
            assert_matches_recount(bank12, n, scaled_curve_12, DEFAULT_EPSILON)


class TestBoundaryForms:
    """Forms exactly on a class boundary, where only the full curve can decide."""

    grid = AbilityGrid()
    weights = trapezoid_weights(grid)

    def form_curve(self, bank, ids):
        return test_information(bank, TestForm(ids), self.grid)

    def test_epsilon_equal_to_a_forms_l2(self, bank12, scaled_curve_12):
        curve = self.form_curve(bank12, (1, 4, 7, 9))
        l2 = fit_report(curve, scaled_curve_12, 1.0).l2
        above = np.nextafter(l2, math.inf)
        assert not fit_report(curve, scaled_curve_12, l2).absolute
        assert fit_report(curve, scaled_curve_12, above).absolute
        at = assert_matches_recount(bank12, 4, scaled_curve_12, l2)
        assert assert_matches_recount(bank12, 4, scaled_curve_12, above).absolute > at.absolute

    def test_epsilon_equal_to_a_forms_relative_distance(self, bank12, scaled_curve_12):
        curve = self.form_curve(bank12, (0, 3, 5, 10))
        # The scaled distance exactly as fit_batch computes it.
        target = scaled_curve_12.values
        lam = float((target * self.weights).sum()) / (curve.values[None, :] * self.weights).sum(axis=1)
        assert lam[0] < 1.0
        scaled = lam[:, None] * curve.values[None, :]
        scaled -= target
        distance = float(_l2_rows(scaled, self.weights)[0])
        above = np.nextafter(distance, math.inf)
        assert not fit_report(curve, scaled_curve_12, distance).relative
        assert fit_report(curve, scaled_curve_12, above).relative
        at = assert_matches_recount(bank12, 4, scaled_curve_12, distance)
        assert assert_matches_recount(bank12, 4, scaled_curve_12, above).relative > at.relative

    def test_target_equal_to_a_forms_curve(self, bank12):
        # That form has l2 = 0, lambda = 1 exactly and no node strictly above.
        target = Curve(self.grid, self.form_curve(bank12, (2, 5, 6, 11)).values)
        for epsilon in EPSILONS:
            assert_matches_recount(bank12, 4, target, epsilon)

    @pytest.mark.parametrize("node", [0, 56, 61, 120])
    def test_target_touching_a_form_at_one_node(self, bank12, node):
        # Nodes 0, 56 and 120 are screened, 61 is not.
        curve = self.form_curve(bank12, (0, 2, 7, 8)).values
        values = 0.9 * curve
        values[node] = curve[node]
        target = Curve(self.grid, values)
        assert np.delete(curve > values, node).all()
        assert not fit_report(Curve(self.grid, curve), target, 1.0).exceeding
        for epsilon in EPSILONS:
            assert_matches_recount(bank12, 4, target, epsilon)


class TestMeetingRuleMargin:
    """_MeetingRule decides a form only where its sums clear the boundary by the margin."""

    @pytest.fixture(scope="class")
    def rule(self):
        info = information_matrix(generate_bank(BankGenSpec(m=3, seed=1)), AbilityGrid())
        return _MeetingRule(info, scaled_lsat(0.05), 1.5)

    @staticmethod
    def sums_at(rule, offsets, a=7.0):
        """a and b whose q = a - 2b + T lies ``offsets`` margins from eps**2."""
        b = (a + rule.target_norm - rule.eps2) / 2.0
        margin = 1e-9 * (a + 2.0 * abs(b) + rule.target_norm + rule.eps2)
        offsets = np.asarray(offsets)
        return np.full(len(offsets), a), b - offsets * margin / 2.0

    def test_absolute_is_decided_only_outside_the_margin(self, rule):
        a, b = self.sums_at(rule, [-2.0, -0.5, 0.0, 0.5, 2.0])
        hit, miss = rule.clear(a, b)
        assert hit.tolist() == [True, False, False, False, False]
        assert miss.tolist() == [False, False, False, False, True]
        decided_hit, undecided = rule.decide(a, b, np.ones(len(a)))["absolute"]
        assert decided_hit.tolist() == hit.tolist()
        assert undecided.tolist() == [False, True, True, True, False]

    def test_a_nan_is_left_open(self, rule):
        nan = np.array([math.nan])
        for hit, undecided in rule.decide(nan, nan, nan).values():
            assert hit.tolist() == [False] and undecided.tolist() == [True]

    def test_relative_is_decided_only_where_lambda_clears_one(self, rule):
        lam = np.array([1.0 + 2e-9, 1.0 + 0.5e-9, 1.0, 1.0 - 0.5e-9, 1.0 - 2e-9, 0.5])
        # Forms that fit exactly at their own lambda, q(lambda) = 0, so lambda alone decides.
        a = np.ones(len(lam))
        b = (lam * lam * a + rule.target_norm) / (2.0 * lam)
        hit, undecided = rule.decide(a, b, rule.s_target / lam)["relative"]
        assert hit.tolist() == [False, False, False, False, True, True]
        assert undecided.tolist() == [False, True, True, True, False, False]
