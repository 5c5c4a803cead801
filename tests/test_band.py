"""count_hits decides most forms on float32 curves; that must never change a count."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixedform import (
    AbilityGrid,
    BankGenSpec,
    Curve,
    generate_bank,
    information_matrix,
    trapezoid_weights,
)
from fixedform import metrics
from fixedform.irt import form_curves
from fixedform.metrics import _Band, _l2_rows, _screen_nodes, count_hits, fit_batch
from fixedform.sampling import _sample_batch

from conftest import spy_curve_kernels, unscreened_hits

CLASSES = ("absolute", "relative", "exceeding")


def one_item_per_row(rows):
    """An information matrix whose item k is curve k, and one 1-item form per item."""
    info = np.array(rows, dtype=float)
    return info, np.arange(len(info))[:, None]


@pytest.fixture
def gathered(monkeypatch):
    """Forms whose curves count_hits builds, by gather or product, keyed by dtype and node count."""
    rows = {}

    def record(kernel, key, forms):
        rows[key] = rows.get(key, 0) + forms

    spy_curve_kernels(monkeypatch, record)
    return rows


# Banks with steep items far from the grid's middle, so that some information
# is below float32's normal range (2**-126) or rounds to 0 there.
extreme_banks = dict(
    m=st.integers(min_value=2, max_value=30),
    length=st.floats(min_value=0.0, max_value=1.0),
    a_max=st.floats(min_value=0.1, max_value=1e3),
    b_max=st.floats(min_value=0.0, max_value=50.0),
    guessing=st.sampled_from([0.0, 0.2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def extreme_forms(m, length, a_max, b_max, guessing, seed, grid):
    spec = BankGenSpec(m=m, a_range=(0.1, a_max), b_range=(-b_max, b_max), c_fixed=guessing, seed=seed % 1000)
    info = information_matrix(generate_bank(spec), grid)
    n = 1 + round(length * (m - 1))
    return info, _sample_batch(m, n, 200, np.random.default_rng(seed))


@settings(max_examples=150, deadline=None)
@given(**extreme_banks)
def test_float32_curves_lie_within_the_band(m, length, a_max, b_max, guessing, seed):
    grid = AbilityGrid()
    info, ids = extreme_forms(m, length, a_max, b_max, guessing, seed, grid)
    target = Curve(grid, np.ones(grid.num_points))
    band = _Band(info, ids.shape[1], target, None, ("exceeding",))
    c64 = form_curves(info, ids)
    c32 = form_curves(band.info, ids).astype(np.float64)
    beta = band.relative * c32 + band.absolute
    assert np.all(np.abs(c32 - c64) <= beta)


def test_an_extreme_bank_has_information_that_float32_cannot_hold_normally(grid):
    info, _ = extreme_forms(30, 1.0, 1e3, 50.0, 0.0, 3, grid)
    assert np.any((info > 0.0) & (info < 2.0**-126))


@settings(max_examples=100, deadline=None)
@given(**extreme_banks, scale=st.floats(min_value=0.3, max_value=1.2),
       eps_frac=st.floats(min_value=0.01, max_value=1.0))
def test_counts_on_extreme_banks_equal_the_float64_fit(m, length, a_max, b_max, guessing, seed, scale, eps_frac):
    grid = AbilityGrid(num_points=41)
    info, ids = extreme_forms(m, length, a_max, b_max, guessing, seed, grid)
    target = Curve(grid, scale * ids.shape[1] * info.mean(axis=0) + 1e-30)
    epsilon = eps_frac * math.sqrt(float((target.values ** 2 * trapezoid_weights(grid)).sum()))
    assert count_hits(info, ids, target, epsilon, CLASSES) == unscreened_hits(info, ids, target, epsilon, CLASSES)


class TestBoundaryForms:
    """Forms whose float64 curve sits exactly on a class boundary, which float32 cannot see."""

    grid = AbilityGrid()

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_exceeding_touching_at_a_screened_and_an_unscreened_node(self, lsat_curve, gathered, n):
        t = lsat_curve.values
        screened = _screen_nodes(self.grid.num_points)
        unscreened = np.setdiff1d(np.arange(self.grid.num_points), screened)
        above = np.nextafter(t, np.inf)
        rng = np.random.default_rng(n)
        rows, ids = [], []
        for k in range(20):
            # n - 1 items of random shares of f * t, then a last item that brings the sum
            # exactly to a chosen curve: goal - prefix is exact (Sterbenz), as f >= 1/2.
            shares = rng.dirichlet(np.ones(n - 1), size=self.grid.num_points).T
            prefix_rows = rng.uniform(0.55, 0.9) * t * shares
            prefix = form_curves(prefix_rows, [np.arange(n - 1)])[0]
            # One curve one ulp above the target, two clearly above it but for one touch.
            goals = [above, t * (1 + 1e-5), t * (1 + 1e-5)]
            goals[1][screened[k % len(screened)]] = t[screened[k % len(screened)]]
            goals[2][unscreened[k]] = t[unscreened[k]]
            first = len(rows)
            rows += [*prefix_rows, *(goal - prefix for goal in goals)]
            ids += [[*range(first, first + n - 1), first + n - 1 + j] for j in range(3)]
            assert form_curves(np.array(rows), ids[-3:]).tobytes() == np.array(goals).tobytes()
        info, ids = np.array(rows), np.array(ids)
        assert not _Band(info, n, lsat_curve, None, ("exceeding",)).exact
        # Each touch is a miss only in float64; so is each curve one ulp above the target a hit.
        assert count_hits(info, ids, lsat_curve, None, ("exceeding",)) == {"exceeding": 20}
        assert unscreened_hits(info, ids, lsat_curve, None, ("exceeding",)) == {"exceeding": 20}
        assert gathered[("float64", self.grid.num_points)] >= 40

    def meeting_rows(self, scale):
        """Rows scale * (t + g), with g zero off the screened nodes S and |g|_S = 0.999999999 * epsilon.

        g has zero weighted area and <g, t + g>_S = 0, so both lambda = 1 / scale and the
        screen's best lambda on S scale the row back to t + g: each class's rule on S is
        as tight as the full fit. A target of 2 to 8 on S and 0.001 elsewhere, and epsilon
        = 1, keep every row > 0, as the band needs, and make float32's rounding larger
        than the rules' margins.
        """
        screened = _screen_nodes(self.grid.num_points)
        values = np.full(self.grid.num_points, 1e-3)
        values[screened] = 5.0 + self.grid.nodes[screened]
        target, epsilon = Curve(self.grid, values), 1.0
        weights = trapezoid_weights(self.grid)[screened]
        t = target.values[screened]

        def centred_unit(v):
            v = v - (v * weights).sum() / weights.sum()
            return v / math.sqrt(float((v * v * weights).sum()))

        along = centred_unit(t)
        cos = epsilon * (1 - 1e-9) / float((along * t * weights).sum())
        rng = np.random.default_rng(int(scale))
        rows = []
        for _ in range(16):
            across = rng.normal(size=len(screened))
            across = centred_unit(across - (across * along * weights).sum() * along)
            gap = -epsilon * (1 - 1e-9) * (cos * along + math.sqrt(1 - cos * cos) * across)
            row = target.values.copy()
            row[screened] += gap
            rows.append(scale * row)
        return target, epsilon, *one_item_per_row(rows)

    @pytest.mark.parametrize("name, scale", [("absolute", 1.0), ("relative", 2.0)])
    def test_meeting_just_inside_epsilon_on_the_screened_nodes(self, name, scale):
        target, epsilon, info, ids = self.meeting_rows(scale)
        assert not _Band(info, 1, target, epsilon, (name,)).exact
        assert count_hits(info, ids, target, epsilon, (name,)) == {name: 16}
        assert unscreened_hits(info, ids, target, epsilon, (name,)) == {name: 16}

    def test_epsilon_equal_to_a_forms_l2(self, bank300, lsat_curve):
        info = information_matrix(bank300, self.grid)
        ids = _sample_batch(bank300.m, 55, 2000, np.random.default_rng(55))
        l2 = fit_batch(form_curves(info, ids), lsat_curve, None, ("l2",))["l2"]
        epsilon = float(np.sort(l2)[5])
        at = count_hits(info, ids, lsat_curve, epsilon, ("absolute",))
        above = count_hits(info, ids, lsat_curve, math.nextafter(epsilon, math.inf), ("absolute",))
        assert at == unscreened_hits(info, ids, lsat_curve, epsilon, ("absolute",)) == {"absolute": 5}
        assert above["absolute"] == 6

    def test_epsilon_equal_to_a_forms_relative_distance(self, bank300, lsat_curve):
        info = information_matrix(bank300, self.grid)
        ids = _sample_batch(bank300.m, 80, 2000, np.random.default_rng(80))
        curves = form_curves(info, ids)
        lam = fit_batch(curves, lsat_curve, None, ("lambda",))["lambda"]
        # fit_batch's relative distance, by its own operations.
        scaled = lam[:, None] * curves
        scaled -= lsat_curve.values
        distance = np.where(lam < 1.0, _l2_rows(scaled, trapezoid_weights(self.grid)), np.inf)
        epsilon = float(np.sort(distance)[5])
        at = count_hits(info, ids, lsat_curve, epsilon, ("relative",))
        above = count_hits(info, ids, lsat_curve, math.nextafter(epsilon, math.inf), ("relative",))
        assert at == unscreened_hits(info, ids, lsat_curve, epsilon, ("relative",)) == {"relative": 5}
        assert above["relative"] == 6


class TestFloat64Path:
    """Where the band's argument fails, count_hits never builds a float32 curve."""

    grid = AbilityGrid()

    def forms(self, bank300, n):
        return information_matrix(bank300, self.grid), _sample_batch(bank300.m, n, 2000, np.random.default_rng(n))

    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_a_target_not_positive_at_one_node(self, bank300, lsat_curve, gathered, value):
        info, ids = self.forms(bank300, 80)
        values = lsat_curve.values.copy()
        values[7] = value
        target = Curve(self.grid, values)
        assert _Band(info, 80, target, 1.225, CLASSES).exact
        hits = count_hits(info, ids, target, 1.225, CLASSES)
        assert not any(dtype == "float32" for dtype, _ in gathered)
        assert hits == unscreened_hits(info, ids, target, 1.225, CLASSES)
        assert hits["exceeding"] > 0

    @pytest.mark.parametrize("power, band", [(116, False), (114, True)])
    def test_curves_near_float32s_range(self, bank300, gathered, power, band):
        # n * max(info) is about 2**121.5 at 2**116 and 2**119.5 at 2**114; float32 ends at 2**128.
        info, ids = self.forms(bank300, 30)
        info *= 2.0**power
        target = Curve(self.grid, 0.8 * 30 * info.mean(axis=0))
        epsilon = 0.3 * math.sqrt(float((target.values ** 2 * trapezoid_weights(self.grid)).sum()))
        assert (not _Band(info, 30, target, epsilon, CLASSES).exact) == band
        hits = count_hits(info, ids, target, epsilon, CLASSES)
        assert any(dtype == "float32" for dtype, _ in gathered) == band
        assert hits == unscreened_hits(info, ids, target, epsilon, CLASSES)
        assert all(hits.values())


@pytest.mark.parametrize("n", [90, 110])
def test_few_forms_reach_the_float64_gather(bank300, grid, lsat_curve, gathered, n):
    # Most forms exceed at these lengths; the float32 band decides nearly all of them.
    info = information_matrix(bank300, grid)
    ids = _sample_batch(bank300.m, n, 8192, np.random.default_rng(n))
    hits = count_hits(info, ids, lsat_curve, 1.225, CLASSES)
    assert gathered[("float32", grid.num_points)] > 0.5 * len(ids)
    assert gathered.get(("float64", grid.num_points), 0) < 0.01 * len(ids)
    gathered.clear()
    assert hits == unscreened_hits(info, ids, lsat_curve, 1.225, CLASSES)


def test_where_meeting_hits_are_common_the_band_stops_after_one_block(bank12, grid, scaled_curve_12, gathered):
    # About 99% of these forms meet the target relatively, which the band never proves.
    info = information_matrix(bank12, grid)
    ids = _sample_batch(bank12.m, 4, 8192, np.random.default_rng(4))
    hits = count_hits(info, ids, scaled_curve_12, 1.225, CLASSES)
    assert gathered[("float32", grid.num_points)] <= metrics._SCREEN_BATCH
    assert gathered[("float64", grid.num_points)] > 0.8 * len(ids)
    gathered.clear()
    assert hits == unscreened_hits(info, ids, scaled_curve_12, 1.225, CLASSES)
    assert hits["relative"] > 0.9 * len(ids)


@pytest.mark.parametrize("n, kernel", [(30, "gather"), (110, "product")])
def test_the_band_gathers_or_multiplies_by_bank_size_and_length(bank300, grid, lsat_curve, monkeypatch, n, kernel):
    # m <= _PRODUCT_RATIO * n takes products: at m = 300, n = 110 does and n = 30 does not.
    info = information_matrix(bank300, grid)
    ids = _sample_batch(bank300.m, n, 2048, np.random.default_rng(n))
    kernels = set()
    spy_curve_kernels(monkeypatch, lambda name, key, forms: kernels.add((name, key[0])))
    hits = count_hits(info, ids, lsat_curve, 1.225, CLASSES)
    assert {name for name, dtype in kernels if dtype == "float32"} == {kernel}
    assert hits == unscreened_hits(info, ids, lsat_curve, 1.225, CLASSES)


def subnormal_bank(grid, seed):
    """Items with c = 0 and b far above the grid: most float32 information is subnormal or 0."""
    spec = BankGenSpec(m=20, a_range=(1.0, 1.5), b_range=(80.0, 90.0), c_fixed=0.0, seed=seed)
    return information_matrix(generate_bank(spec), grid)


def test_a_subnormal_bank_is_subnormal_in_float32(grid):
    info = subnormal_bank(grid, 0).astype(np.float32)
    # 29% subnormal, 60% rounded to 0 and 11% normal.
    assert np.mean((info > 0) & (info < 2.0**-126)) > 0.25 and np.mean(info == 0) > 0.5


@settings(max_examples=40, deadline=None)
@given(subnormal=st.booleans(), length=st.floats(min_value=0.0, max_value=1.0),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_product_curves_lie_within_the_band_of_the_exact_sum(bank300, subnormal, length, seed):
    grid = AbilityGrid()
    info = subnormal_bank(grid, seed % 1000) if subnormal else information_matrix(bank300, grid)
    m = len(info)
    n = 1 + round(length * (m - 1))
    ids = _sample_batch(m, n, 24, np.random.default_rng(seed))
    band = _Band(info, n, Curve(grid, np.ones(grid.num_points)), None, ("exceeding",))
    c32 = metrics._product_curves(band.info, ids).astype(np.float64)
    exact = np.array([[math.fsum(info[row, node]) for node in range(grid.num_points)] for row in ids])
    assert np.all(np.abs(c32 - exact) <= band.relative * c32 + band.absolute)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_counts_on_a_subnormal_bank_equal_the_float64_fit(grid, gathered, seed):
    info = subnormal_bank(grid, seed)
    ids = _sample_batch(len(info), 10, 3000, np.random.default_rng(seed))
    target = Curve(grid, 0.8 * 10 * info.mean(axis=0))
    epsilon = 0.5 * math.sqrt(float((target.values ** 2 * trapezoid_weights(grid)).sum()))
    assert _Band(info, 10, target, epsilon, CLASSES).product
    hits = count_hits(info, ids, target, epsilon, CLASSES)
    assert gathered[("float32", grid.num_points)] > 0
    assert hits == unscreened_hits(info, ids, target, epsilon, CLASSES)


def with_repeats(ids, rng):
    """``ids`` with every other row's second half replaced by ids drawn from its first half."""
    ids = ids.copy()
    half = ids.shape[1] // 2
    for row in ids[::2]:
        row[half:] = rng.choice(row[:half], ids.shape[1] - half)
    return ids


@pytest.mark.parametrize("path", ["band", "exact"])
@pytest.mark.parametrize("bank, n, target", [
    ("bank12", 6, "scaled_curve_12"),
    ("bank300", 110, "lsat_curve"),
    ("bank300", 70, "lsat_curve"),
])
def test_a_form_that_repeats_an_id_counts_it_twice(request, grid, path, bank, n, target):
    # form_curves adds a repeated id once per copy; an indicator row holds it once.
    bank, target = request.getfixturevalue(bank), request.getfixturevalue(target)
    info = information_matrix(bank, grid)
    rng = np.random.default_rng(n)
    ids = with_repeats(_sample_batch(bank.m, n, 3000, rng), rng)
    if path == "exact":
        values = target.values.copy()
        values[7] = 0.0
        target = Curve(grid, values)
    band = _Band(info, n, target, 1.225, CLASSES)
    assert band.product == (path == "band")
    assert count_hits(info, ids, target, 1.225, CLASSES) == unscreened_hits(info, ids, target, 1.225, CLASSES)


@pytest.mark.parametrize("epsilon", [1e200, math.sqrt(sys.float_info.max), sys.float_info.max, np.float64(1e200)],
                         ids=["1e200", "sqrt-max", "max", "np.float64-1e200"])
@pytest.mark.parametrize("bank, n, target", [("bank12", 4, "scaled_curve_12"), ("bank300", 40, "lsat_curve")])
def test_an_epsilon_whose_square_overflows_counts_what_fit_batch_counts(request, grid, bank, n, target, epsilon):
    # Under the suite's warnings-as-errors an overflow in the band's limits fails the test.
    bank, target = request.getfixturevalue(bank), request.getfixturevalue(target)
    info = information_matrix(bank, grid)
    ids = _sample_batch(bank.m, n, 3000, np.random.default_rng(n))
    assert count_hits(info, ids, target, epsilon, CLASSES) == unscreened_hits(info, ids, target, epsilon, CLASSES)
