import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fixedform import (
    AbilityGrid,
    Curve,
    ItemBank,
    ItemParams,
    ParameterError,
    TestForm,
    UnknownItemError,
    information_matrix,
    item_information,
    prob_correct,
    standard_error,
    test_information,
)
from fixedform.irt import check_items, check_length, form_curves

abilities = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
discriminations = st.floats(min_value=0.1, max_value=5.0, allow_nan=False)
difficulties = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
guessing = st.floats(min_value=0.0, max_value=0.8, allow_nan=False)


class TestItemParams:
    def test_defaults_and_fields(self):
        item = ItemParams(a=1.5, b=-0.5)
        assert item.c == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=0.0, b=0.0),
            dict(a=-1.0, b=0.0),
            dict(a=math.inf, b=0.0),
            dict(a=1.0, b=math.nan),
            dict(a=1.0, b=0.0, c=1.0),
            dict(a=1.0, b=0.0, c=-0.1),
            dict(a=1.0, b=0.0, c=1.5),
        ],
    )
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            ItemParams(**kwargs)

    def test_frozen(self):
        item = ItemParams(a=1.0, b=0.0)
        with pytest.raises(AttributeError):
            item.a = 2.0


class TestProbCorrect:
    def test_guessing_floor_at_one_logit(self):
        # stated oracle: c + (1 - c) / (1 + e^-1)
        item = ItemParams(a=1.0, b=0.0, c=0.2)
        expected = 0.2 + 0.8 / (1.0 + math.exp(-1.0))
        assert prob_correct(item, 1.0) == expected
        assert abs(expected - 0.7848468629040039) < 1e-15

    def test_midpoint_at_difficulty(self):
        item = ItemParams(a=2.3, b=0.7, c=0.2)
        assert prob_correct(item, 0.7) == pytest.approx(0.6, abs=1e-15)

    def test_limits(self):
        item = ItemParams(a=2.0, b=0.0, c=0.2)
        assert prob_correct(item, 40.0) == pytest.approx(1.0, abs=1e-12)
        assert prob_correct(item, -40.0) == pytest.approx(0.2, abs=1e-12)

    def test_extreme_argument_does_not_overflow(self):
        item = ItemParams(a=3.0, b=0.0, c=0.1)
        assert prob_correct(item, -1000.0) == pytest.approx(0.1, abs=1e-300)
        assert prob_correct(item, 1000.0) == 1.0

    @given(a=discriminations, b=difficulties, c=guessing, lo=abilities, hi=abilities)
    def test_monotone_in_ability(self, a, b, c, lo, hi):
        if lo > hi:
            lo, hi = hi, lo
        item = ItemParams(a=a, b=b, c=c)
        assert prob_correct(item, lo) <= prob_correct(item, hi) + 1e-12

    def test_rejects_non_finite_theta(self):
        with pytest.raises(ParameterError):
            prob_correct(ItemParams(a=1.0, b=0.0), math.nan)


class TestItemInformation:
    def test_peak_no_guessing(self):
        # with c = 0 the information at theta = b is a^2 / 4
        assert item_information(ItemParams(a=2.0, b=0.0, c=0.0), 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_at_difficulty_with_guessing(self):
        # c = 0.2 gives a^2 / 6 at theta = b
        assert item_information(ItemParams(a=2.0, b=0.0, c=0.2), 0.0) == pytest.approx(2.0 / 3.0, abs=1e-15)
        assert item_information(ItemParams(a=1.0, b=-1.0, c=0.2), -1.0) == pytest.approx(1.0 / 6.0, abs=1e-15)

    @given(a=discriminations, b=difficulties, c=guessing, theta=abilities)
    def test_nonnegative(self, a, b, c, theta):
        assert item_information(ItemParams(a=a, b=b, c=c), theta) >= 0.0

    @given(a=discriminations, b=difficulties, theta=abilities)
    def test_no_guessing_closed_form(self, a, b, theta):
        # with c = 0 information reduces to a^2 p (1 - p)
        item = ItemParams(a=a, b=b, c=0.0)
        p = prob_correct(item, theta)
        assert item_information(item, theta) == pytest.approx(a * a * p * (1.0 - p), rel=1e-12, abs=1e-300)

    def test_far_tail_underflows_to_zero(self):
        assert item_information(ItemParams(a=3.0, b=3.0, c=0.2), -800.0) == 0.0

    def test_nan_ability_is_refused(self):
        with pytest.raises(ParameterError, match="theta must be finite"):
            item_information(ItemParams(a=1.0, b=0.0, c=0.2), math.nan)


class TestBankAndForm:
    def test_bank_ids_are_positions(self):
        bank = ItemBank((ItemParams(1.0, 0.0), ItemParams(2.0, 1.0)))
        assert bank.m == 2 and len(bank) == 2
        assert bank.a_values.tolist() == [1.0, 2.0]

    def test_empty_bank_rejected(self):
        with pytest.raises(ParameterError):
            ItemBank(())

    def test_bank_equality_by_items(self):
        items = (ItemParams(1.0, 0.0), ItemParams(2.0, 1.0))
        assert ItemBank(items) == ItemBank(items)

    def test_bank_never_equals_another_type(self):
        assert (ItemBank((ItemParams(1.0, 0.0),)) == 3) is False

    def test_form_sorted_unique(self):
        form = TestForm.from_ids([5, 1, 3])
        assert form.item_ids == (1, 3, 5) and form.n == 3

    def test_form_rejects_duplicates_and_bad_ids(self):
        with pytest.raises(ParameterError):
            TestForm.from_ids([1, 1, 2])
        with pytest.raises(ParameterError):
            TestForm((2, 1))
        with pytest.raises(ParameterError):
            TestForm.from_ids([-1, 2])
        with pytest.raises(ParameterError):
            TestForm.from_ids([])


class TestAbilityGrid:
    def test_default_grid(self):
        grid = AbilityGrid()
        assert grid.num_points == 121
        assert grid.step == pytest.approx(0.05, abs=1e-15)
        assert grid.node(0) == -3.0 and grid.node(120) == 3.0
        assert np.all(np.diff(grid.nodes) > 0)

    def test_invalid_grids(self):
        with pytest.raises(ParameterError):
            AbilityGrid(lo=1.0, hi=-1.0)
        with pytest.raises(ParameterError):
            AbilityGrid(num_points=1)

    def test_nodes_read_only(self):
        grid = AbilityGrid()
        with pytest.raises(ValueError):
            grid.nodes[0] = 99.0


class TestCurve:
    def test_validation(self, grid):
        with pytest.raises(ParameterError):
            Curve(grid, np.zeros(5))
        with pytest.raises(ParameterError):
            Curve(grid, np.full(grid.num_points, np.nan))

    def test_values_read_only(self, grid):
        curve = Curve(grid, np.zeros(grid.num_points))
        with pytest.raises(ValueError):
            curve.values[0] = 1.0


class TestTestInformation:
    def test_matrix_matches_pointwise(self, grid):
        bank = ItemBank((ItemParams(1.0, -1.0, 0.2), ItemParams(2.5, 0.5, 0.2)))
        matrix = information_matrix(bank, grid)
        assert matrix.shape == (2, grid.num_points)
        for i, item in enumerate(bank.items):
            for k in (0, 60, 120):
                assert matrix[i, k] == pytest.approx(item_information(item, grid.node(k)), rel=1e-14)

    def test_sum_over_items(self, bank12, grid):
        form = TestForm.from_ids([0, 3, 7])
        curve = test_information(bank12, form, grid)
        matrix = information_matrix(bank12, grid)
        np.testing.assert_allclose(curve.values, matrix[[0, 3, 7]].sum(axis=0), rtol=1e-15)

    def test_additive_in_items(self, bank12, grid):
        small = test_information(bank12, TestForm.from_ids([1, 4]), grid)
        large = test_information(bank12, TestForm.from_ids([1, 4, 9]), grid)
        assert np.all(large.values >= small.values)

    def test_unknown_item_rejected(self, bank12, grid):
        with pytest.raises(UnknownItemError):
            test_information(bank12, TestForm.from_ids([0, 99]), grid)

    def test_far_tail_without_guessing_stays_finite(self, grid):
        # a * (theta - b) reaches -711 at theta = -3: p is subnormal there, so 1 / p overflows.
        item = ItemParams(a=17.1, b=38.58, c=0.0)
        row = information_matrix(ItemBank((item,)), grid)[0]
        p = prob_correct(item, grid.node(0))
        assert 0.0 < p < np.finfo(float).tiny
        assert np.all(np.isfinite(row)) and np.all(row >= 0.0)
        assert row[0] == pytest.approx(item.a**2 * p, rel=1e-6)

    def test_information_that_is_not_finite_names_its_item(self, grid):
        bank = ItemBank((ItemParams(1.0, 0.0), ItemParams(1e20, 0.2), ItemParams(1e200, 0.5)))
        # Without a warning: pytest makes numpy's overflow warning an error.
        with pytest.raises(ParameterError, match=r"item 2 \(a=1e\+200"):
            information_matrix(bank, grid)
        with pytest.raises(ParameterError, match=r"item 2 \(a=1e\+200"):
            test_information(bank, TestForm.from_ids([0, 2]), grid)
        # a = 1e20 underflows to 0 information, which is finite.
        underflowing = ItemBank(bank.items[:2])
        assert information_matrix(underflowing, grid)[1].max() == 0.0
        assert test_information(underflowing, TestForm.from_ids([0, 1]), grid).values.tobytes() == \
            test_information(underflowing, TestForm.from_ids([0]), grid).values.tobytes()


class TestFormCurves:
    def test_bitwise_equal_to_test_information(self, bank300, grid):
        # Same summation order as the per-form route, so not just close:
        # every bit of every node agrees, for sorted and unsorted id rows.
        rng = np.random.default_rng(3)
        info = information_matrix(bank300, grid)
        for n in (1, 2, 7, 65, 300):
            ids = np.array([rng.permutation(bank300.m)[:n] for _ in range(20)])
            curves = form_curves(info, ids)
            assert curves.shape == (20, grid.num_points)
            assert curves.tobytes() == info[ids].sum(axis=1).tobytes()
            for row, curve in zip(np.sort(ids, axis=1), form_curves(info, np.sort(ids, axis=1))):
                expected = test_information(bank300, TestForm.from_ids(row), grid).values
                assert curve.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("dtype", [np.uint16, np.int16, np.int32, np.int64])
    def test_any_integer_id_dtype_gives_the_same_bits(self, bank300, grid, dtype):
        # The sampler draws uint16 ids for 300 items; the curves must not depend on the id dtype.
        rng = np.random.default_rng(5)
        info = information_matrix(bank300, grid)
        ids = np.array([rng.permutation(bank300.m)[:40] for _ in range(30)])
        assert form_curves(info, ids.astype(dtype)).tobytes() == form_curves(info, ids).tobytes()

    def test_does_not_modify_the_matrix(self, bank12, grid):
        info = information_matrix(bank12, grid)
        before = info.copy()
        form_curves(info, [[0, 1, 2], [3, 4, 5]])
        assert np.array_equal(info, before)


class TestStandardError:
    def test_oracle(self):
        assert standard_error(13.328) == 13.328**-0.5
        assert standard_error(13.328) == pytest.approx(0.27391606744548946, abs=1e-15)

    def test_more_information_means_less_error(self):
        assert standard_error(20.0) < standard_error(10.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            standard_error(0.0)
        with pytest.raises(ParameterError):
            standard_error(-1.0)


class TestCheckLength:
    @pytest.mark.parametrize("n", [1, 7, 12])
    def test_accepts_lengths_in_range(self, n):
        check_length(n, 12)

    @pytest.mark.parametrize("n", [-1, 0, 13])
    def test_rejects_lengths_out_of_range(self, n):
        with pytest.raises(ParameterError, match=rf"test length must lie in \[1, 12\], got {n}"):
            check_length(n, 12)


class TestCheckItems:
    @pytest.mark.parametrize("ids", [[], [0, 11], np.array([[3, 0], [11, 5]], dtype=np.uint16)])
    def test_accepts_ids_in_range(self, ids):
        check_items(ids, 12)

    @pytest.mark.parametrize("ids, bad", [
        ([-1, 3], "[-1]"),
        ([12], "[12]"),
        (np.array([[4, 12], [-3, 40]]), "[12, -3, 40]"),
    ])
    def test_rejects_ids_outside_the_bank_in_order(self, ids, bad):
        with pytest.raises(UnknownItemError, match=rf"item ids {re.escape(bad)} not in bank of 12 items"):
            check_items(ids, 12)
