"""count_hits screens forms on a node subset; the screen must never change a count."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixedform import (
    AbilityGrid,
    BankGenSpec,
    Curve,
    ParameterError,
    UnknownItemError,
    builtin_lsat_target,
    generate_bank,
    information_matrix,
    tabulate_target,
    trapezoid_weights,
)
from fixedform import metrics
from fixedform.irt import form_curves
from fixedform.metrics import _Band, _screen_nodes, count_hits
from fixedform.sampling import _sample_batch

from conftest import spy_curve_kernels, unscreened_hits

CLASSES = ("exceeding", "absolute", "relative")
CLASS_SUBSETS = [c for k in range(1, 4) for c in itertools.combinations(CLASSES, k)]


@pytest.mark.parametrize("num_points, expected", [
    (2, [0, 1]),
    (9, list(range(9))),
    (16, list(range(16))),
    (121, list(range(0, 121, 8))),
    (241, list(range(0, 241, 16))),
])
def test_screen_nodes(num_points, expected):
    assert _screen_nodes(num_points).tolist() == expected


class TestScreenNeverChangesACount:
    @settings(max_examples=120, deadline=None)
    @given(
        m=st.integers(min_value=6, max_value=40),
        length=st.floats(min_value=0.0, max_value=1.0),
        num_points=st.one_of(st.integers(min_value=2, max_value=16), st.integers(min_value=2, max_value=241)),
        scale=st.floats(min_value=0.3, max_value=1.2),
        eps_frac=st.floats(min_value=0.01, max_value=1.0),
        classes=st.sampled_from(CLASS_SUBSETS),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        zero_at=st.none() | st.integers(min_value=0, max_value=240),
    )
    def test_counts_equal_the_unscreened_fit(self, m, length, num_points, scale, eps_frac, classes, seed, zero_at):
        grid = AbilityGrid(num_points=num_points)
        info = information_matrix(generate_bank(BankGenSpec(m=m, seed=seed % 1000)), grid)
        n = 1 + round(length * (m - 1))
        ids = _sample_batch(m, n, 300, np.random.default_rng(seed))
        # A target near the mean form's curve, so every class sees hits and near misses.
        values = scale * n * info.mean(axis=0)
        if zero_at is not None:
            # A target of 0 at one node: the whole call runs on the exact band.
            values[zero_at % num_points] = 0.0
            assert _Band(info, n, Curve(grid, values), None, classes).exact
        target = Curve(grid, values)
        epsilon = eps_frac * math.sqrt(float((target.values ** 2 * trapezoid_weights(grid)).sum()))
        expected = unscreened_hits(info, ids, target, epsilon, classes)
        assert count_hits(info, ids, target, epsilon, classes) == expected


def one_item_per_row(rows):
    """An information matrix whose item k is curve k, and one 1-item form per item."""
    info = np.array(rows, dtype=float)
    return info, np.arange(len(info))[:, None]


class TestBoundaryRows:
    grid = AbilityGrid()
    target = tabulate_target(builtin_lsat_target(), grid)
    weights = trapezoid_weights(grid)
    screened = _screen_nodes(grid.num_points)
    unscreened = np.setdiff1d(np.arange(grid.num_points), screened)

    def check(self, rows, epsilon, classes, kept, hits):
        info, ids = one_item_per_row(rows)
        survivors = _Band(info, 1, self.target, epsilon, classes, exact=True).survivors(ids)
        assert survivors[:, 0].tolist() == kept
        assert count_hits(info, ids, self.target, epsilon, classes) == hits
        assert hits == unscreened_hits(info, ids, self.target, epsilon, classes)

    def test_exceeding(self):
        t = self.target.values
        ulp_above = np.nextafter(t, np.inf)
        touch_screened = ulp_above.copy()
        touch_screened[self.screened[5]] = t[self.screened[5]]
        touch_unscreened = ulp_above.copy()
        touch_unscreened[self.unscreened[5]] = t[self.unscreened[5]]
        rows = [ulp_above, touch_screened, touch_unscreened]
        # Equal at a screened node is rejected there; equal elsewhere only by the full fit.
        self.check(rows, None, ("exceeding",), kept=[0, 2], hits={"exceeding": 1})

    def test_absolute_inside_the_margin(self):
        epsilon = 1.225
        t = self.target.values
        w_s = self.weights[self.screened].sum()
        rows = []
        for factor in (1 - 1e-12, 1 + 1e-10, 1 + 1e-6):
            # Off the target only at screened nodes, by a gap with sum_S w*d**2 = factor * eps**2.
            row = t.copy()
            row[self.screened] += epsilon * math.sqrt(factor / w_s)
            rows.append(row)
        self.check(rows, epsilon, ("absolute",), kept=[0, 1], hits={"absolute": 1})

    def test_relative_just_under_epsilon(self):
        epsilon = 1.225
        t = self.target.values
        wave = np.cos(self.grid.nodes * 3.0)
        wave -= (wave * self.weights).sum() / self.weights.sum()  # zero weighted area
        wave /= math.sqrt(float((wave * wave * self.weights).sum()))
        rows = [2.0 * (t + epsilon * (1 - 1e-9) * wave), 2.0 * (t + epsilon * 1.01 * wave)]
        hits = unscreened_hits(*one_item_per_row(rows), self.target, epsilon, ("relative",))
        assert hits == {"relative": 1}
        info, ids = one_item_per_row(rows)
        assert 0 in _Band(info, 1, self.target, epsilon, ("relative",), exact=True).survivors(ids)[:, 0]
        assert count_hits(info, ids, self.target, epsilon, ("relative",)) == hits

    def test_zero_area_row_is_kept_and_not_a_hit(self):
        rows = [np.zeros(self.grid.num_points), 0.5 * self.target.values]
        with np.errstate(all="raise"):
            self.check(rows, 1.225, ("relative",), kept=[0], hits={"relative": 0})


@pytest.mark.parametrize("n", [30, 110])
def test_rows_reaching_the_screen_and_the_full_gather(bank300, grid, lsat_curve, monkeypatch, n):
    info = information_matrix(bank300, grid)
    ids = _sample_batch(bank300.m, n, 8192, np.random.default_rng(n))
    rows = {"screen": 0, "full": 0}

    def record(kernel, key, forms):
        rows["full" if key[1] == grid.num_points else "screen"] += forms

    spy_curve_kernels(monkeypatch, record)
    hits = count_hits(info, ids, lsat_curve, None, ("exceeding",))
    assert hits == unscreened_hits(info, ids, lsat_curve, None, ("exceeding",))
    if n == 30:
        # Almost nothing exceeds at n = 30: the screen sees every form and stops nearly all.
        assert rows["screen"] == len(ids) and rows["full"] < 0.01 * len(ids)
    else:
        # Almost everything exceeds at n = 110: after one block the screen is skipped.
        assert rows["screen"] == metrics._SCREEN_BATCH and rows["full"] > 0.95 * len(ids)


@pytest.mark.parametrize("bad", [-1, 12])
def test_count_hits_refuses_ids_outside_the_bank(bank12, grid, scaled_curve_12, bad):
    # numpy's take would read -1 as item 11 and fail on 12 with a bare IndexError.
    ids = np.array([[0, 1, 2], [3, bad, 5]])
    with pytest.raises(UnknownItemError, match=rf"item ids \[{bad}\] not in bank of 12 items"):
        count_hits(information_matrix(bank12, grid), ids, scaled_curve_12, 1.225, CLASSES)


def test_forms_with_no_items_have_zero_curves(bank12, grid, scaled_curve_12):
    info = information_matrix(bank12, grid)
    ids = np.zeros((5, 0), dtype=np.intp)
    for table in (info, info.astype(np.float32)):
        curves = form_curves(table, ids)
        assert curves.dtype == table.dtype and curves.shape == (5, grid.num_points) and not curves.any()
    hits = count_hits(info, ids, scaled_curve_12, 1.225, CLASSES)
    # The scaled target lies within epsilon of 0: every empty form meets it absolutely.
    assert hits == unscreened_hits(info, ids, scaled_curve_12, 1.225, CLASSES)
    assert hits == {"exceeding": 0, "absolute": 5, "relative": 0}


@pytest.mark.parametrize("epsilon, classes, message", [
    (None, ("absolute",), "epsilon"),
    (None, ("relative", "exceeding"), "epsilon"),
    (math.nan, ("relative",), "epsilon"),
    (0.0, ("absolute",), "epsilon"),
    (1.0, ("exceding",), "'exceding'"),
    (1.0, ("l2",), "'l2'"),
])
def test_count_hits_checks_its_arguments(bank12, grid, scaled_curve_12, epsilon, classes, message):
    with pytest.raises(ParameterError, match=message):
        count_hits(information_matrix(bank12, grid), np.array([[0, 1, 2]]), scaled_curve_12, epsilon, classes)
