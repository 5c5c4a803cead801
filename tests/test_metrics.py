import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fixedform import (
    DEFAULT_EPSILON,
    AbilityGrid,
    Curve,
    GridMismatchError,
    ItemBank,
    ParameterError,
    TestForm,
    builtin_lsat_target,
    tabulate_target,
    area_under,
    deficiency_energy,
    fit_report,
    information_matrix,
    is_absolute_meeting,
    is_exceeding,
    is_relative_meeting,
    l2_distance,
    lambda_of,
    test_information,
    trapezoid_weights,
)
from fixedform.metrics import FIT_FIELDS, count_hits, deficiency_rows, fit_batch


def const_curve(grid, value):
    return Curve(grid, np.full(grid.num_points, float(value)))


class TestTrapezoidWeights:
    def test_structure(self, grid):
        w = trapezoid_weights(grid)
        assert w.shape == (grid.num_points,)
        assert w[0] == w[-1] == pytest.approx(grid.step / 2, abs=1e-18)
        assert np.all(w[1:-1] == pytest.approx(grid.step, abs=1e-18))
        assert w.sum() == pytest.approx(6.0, abs=1e-12)

    def test_area_of_linear_function_is_exact(self, grid):
        # trapezoid rule integrates affine functions exactly
        curve = Curve(grid, 2.0 * grid.nodes + 7.0)
        assert area_under(curve) == pytest.approx(42.0, rel=1e-12)

    def test_lsat_area(self, lsat_curve):
        # analytic integral of the target polynomial is 54.21190285714286
        assert area_under(lsat_curve) == pytest.approx(54.21190285714286, abs=0.01)
        assert area_under(lsat_curve) == pytest.approx(54.21101358677812, abs=1e-12)


class TestL2Distance:
    def test_constant_gap(self, grid):
        f = const_curve(grid, 3.0)
        g = const_curve(grid, 2.0)
        # ||1|| over an interval of length 6 is sqrt(6)
        assert l2_distance(f, g) == pytest.approx(math.sqrt(6.0), rel=1e-12)

    def test_zero_iff_equal(self, grid, lsat_curve):
        assert l2_distance(lsat_curve, lsat_curve) == 0.0

    def test_symmetry_exact(self, grid):
        rng = np.random.default_rng(5)
        f = Curve(grid, rng.random(grid.num_points))
        g = Curve(grid, rng.random(grid.num_points))
        assert l2_distance(f, g) == l2_distance(g, f)

    def test_triangle_inequality(self, grid):
        rng = np.random.default_rng(6)
        for _ in range(50):
            f, g, h = (Curve(grid, rng.random(grid.num_points) * 10) for _ in range(3))
            assert l2_distance(f, h) <= l2_distance(f, g) + l2_distance(g, h) + 1e-12

    def test_quadrature_accuracy_on_smooth_gap(self, grid):
        f = Curve(grid, grid.nodes + 5.0)
        g = const_curve(grid, 5.0)
        # exact value sqrt(int theta^2) = sqrt(18); trapezoid is close
        assert l2_distance(f, g) == pytest.approx(math.sqrt(18.0), abs=1e-3)

    def test_grid_mismatch_rejected(self, grid):
        other = AbilityGrid(num_points=61)
        with pytest.raises(GridMismatchError):
            l2_distance(const_curve(grid, 1.0), const_curve(other, 1.0))


class TestLambda:
    def test_examples(self):
        assert lambda_of(54.212, 54.212) == 1.0
        assert lambda_of(54.212, 108.424) == 0.5
        assert lambda_of(6.0, 3.0) == 2.0

    def test_rejects_nonpositive_test_area(self):
        with pytest.raises(ParameterError):
            lambda_of(54.212, 0.0)
        with pytest.raises(ParameterError):
            lambda_of(54.212, -1.0)


class TestDeficiencyEnergy:
    def test_zero_when_exceeding(self, grid, lsat_curve):
        above = Curve(grid, lsat_curve.values + 0.5)
        assert deficiency_energy(above, lsat_curve) == 0.0

    def test_zero_test_against_lsat(self, grid, lsat_curve):
        zero = const_curve(grid, 0.0)
        energy = deficiency_energy(zero, lsat_curve)
        assert energy == pytest.approx(54.212, abs=0.01)
        assert energy == area_under(lsat_curve)

    def test_constant_gap(self, grid):
        f = const_curve(grid, 1.0)
        g = const_curve(grid, 4.0)
        assert deficiency_energy(f, g) == pytest.approx(18.0, rel=1e-12)

    def test_only_deficit_counts(self, grid):
        # test above target on half the range, below on the other half
        values = np.where(grid.nodes < 0, 10.0, 0.0)
        test = Curve(grid, values)
        target = const_curve(grid, 5.0)
        assert 0 < deficiency_energy(test, target) < area_under(target)

    def test_monotone_under_item_addition(self, grid, lsat_curve):
        # adding an item never increases the deficiency energy
        rng = np.random.default_rng(17)
        from fixedform import BankGenSpec, generate_bank

        bank = generate_bank(BankGenSpec(m=60, seed=23))
        for _ in range(1000):
            n = int(rng.integers(1, 12))
            ids = rng.choice(bank.m, size=n + 1, replace=False)
            small = test_information(bank, TestForm.from_ids(ids[:n]), grid)
            large = test_information(bank, TestForm.from_ids(ids), grid)
            e_small = deficiency_energy(small, lsat_curve)
            e_large = deficiency_energy(large, lsat_curve)
            assert e_large <= e_small + 1e-12


class TestPredicates:
    def test_exceeding_strict(self, grid, lsat_curve):
        assert is_exceeding(Curve(grid, lsat_curve.values + 0.001), lsat_curve)
        assert not is_exceeding(lsat_curve, lsat_curve)
        one_node_down = lsat_curve.values + 0.5
        one_node_down[60] = lsat_curve.values[60] - 0.1
        assert not is_exceeding(Curve(grid, one_node_down), lsat_curve)

    def test_absolute_constants(self, grid, lsat_curve):
        assert is_absolute_meeting(lsat_curve, lsat_curve, 0.001)
        plus_one = Curve(grid, lsat_curve.values + 1.0)
        assert not is_absolute_meeting(plus_one, lsat_curve, 1.225)  # distance sqrt(6)
        plus_04 = Curve(grid, lsat_curve.values + 0.4)
        assert is_absolute_meeting(plus_04, lsat_curve, 1.225)  # distance 0.4 sqrt(6)

    def test_absolute_rejects_bad_epsilon(self, grid, lsat_curve):
        with pytest.raises(ParameterError):
            is_absolute_meeting(lsat_curve, lsat_curve, 0.0)
        with pytest.raises(ParameterError):
            is_absolute_meeting(lsat_curve, lsat_curve, -1.0)

    def test_relative_proportional_curve(self, grid, lsat_curve):
        double = Curve(grid, 2.0 * lsat_curve.values)
        met, lam = is_relative_meeting(double, lsat_curve, 0.001)
        assert met and lam == 0.5

    def test_relative_rejects_lambda_at_least_one(self, grid, lsat_curve):
        half = Curve(grid, 0.5 * lsat_curve.values)
        met, lam = is_relative_meeting(half, lsat_curve, 1e9)
        assert not met and lam == 2.0
        met, lam = is_relative_meeting(lsat_curve, lsat_curve, 1e9)
        assert not met and lam == 1.0

    def test_relative_rejects_zero_area(self, grid, lsat_curve):
        with pytest.raises(ParameterError):
            is_relative_meeting(const_curve(grid, 0.0), lsat_curve, 1.0)


class TestFitReport:
    def test_json_keys_and_consistency(self, grid, lsat_curve):
        test = Curve(grid, lsat_curve.values * 1.5)
        report = fit_report(test, lsat_curve, 1.225)
        doc = report.to_json_dict()
        assert set(doc) == {"l2", "lambda", "energy", "exceeding", "absolute", "relative"}
        assert doc["exceeding"] is True  # 1.5x the target is everywhere above it
        assert doc["energy"] == 0.0
        assert doc["lambda"] == pytest.approx(2.0 / 3.0, rel=1e-12)
        assert doc["relative"] is True  # scaled back down it matches exactly
        assert doc["absolute"] is False
        assert doc["l2"] == pytest.approx(l2_distance(test, lsat_curve), rel=1e-15)


def reference_fit(values, target, weights, epsilon):
    """The per-curve expressions the batch kernel must reproduce bit for bit."""
    diff = values - target
    l2 = math.sqrt(float((diff * diff * weights).sum()))
    lam = float((target * weights).sum()) / float((values * weights).sum())
    relative = False
    if lam < 1.0:
        scaled = lam * values - target
        relative = math.sqrt(float((scaled * scaled * weights).sum())) < epsilon
    return {
        "l2": l2,
        "lambda": lam,
        "energy": float((np.maximum(target - values, 0.0) * weights).sum()),
        "exceeding": bool(np.all(values > target)),
        "absolute": l2 < epsilon,
        "relative": relative,
    }


KERNEL_GRID = AbilityGrid()
KERNEL_TARGET = tabulate_target(builtin_lsat_target(), KERNEL_GRID)


class TestFitBatch:
    @settings(max_examples=60, deadline=None)
    @given(
        scales=st.lists(st.floats(min_value=0.2, max_value=3.0), min_size=1, max_size=6),
        noise=st.floats(min_value=0.0, max_value=2.0),
        touch=st.integers(min_value=0, max_value=KERNEL_GRID.num_points - 1),
        epsilon=st.sampled_from([0.05, 0.5, 1.225, 2.0, 8.0]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_rows_equal_the_scalar_functions(self, scales, noise, touch, epsilon, seed):
        target = KERNEL_TARGET.values
        rng = np.random.default_rng(seed)
        rows = [np.maximum(s * target + noise * rng.standard_normal(target.size), 0.0) for s in scales]
        # Above the target everywhere except one node, where it touches it:
        # zero energy, yet not exceeding.
        touching = target + 0.5
        touching[touch] = target[touch]
        rows.append(touching)
        curves = np.array(rows)
        fit = fit_batch(curves, KERNEL_TARGET, epsilon)
        assert set(fit) == set(FIT_FIELDS)
        weights = trapezoid_weights(KERNEL_GRID)
        for k, values in enumerate(rows):
            expected = reference_fit(values, target, weights, epsilon)
            assert {name: fit[name][k].item() for name in FIT_FIELDS} == expected
            curve = Curve(KERNEL_GRID, values)
            assert fit_report(curve, KERNEL_TARGET, epsilon).to_json_dict() == expected
            assert l2_distance(curve, KERNEL_TARGET) == expected["l2"]
            assert deficiency_energy(curve, KERNEL_TARGET) == expected["energy"]
            assert is_exceeding(curve, KERNEL_TARGET) is expected["exceeding"]
            assert is_absolute_meeting(curve, KERNEL_TARGET, epsilon) is expected["absolute"]
            assert is_relative_meeting(curve, KERNEL_TARGET, epsilon) == (
                expected["relative"], expected["lambda"]
            )
        assert fit["energy"][-1] == 0.0 and not fit["exceeding"][-1]

    def test_computes_only_the_requested_fields(self):
        curves = np.array([KERNEL_TARGET.values * 2.0])
        assert set(fit_batch(curves, KERNEL_TARGET, fields=("exceeding",))) == {"exceeding"}
        fit = fit_batch(curves, KERNEL_TARGET, 1.0, ("relative",))
        assert set(fit) == {"relative"} and fit["relative"][0]

    def test_zero_area_rows_never_meet_relatively(self):
        curves = np.array([np.zeros(KERNEL_GRID.num_points), KERNEL_TARGET.values * 2.0])
        with np.errstate(all="raise"):
            fit = fit_batch(curves, KERNEL_TARGET, 1e9, ("lambda", "relative"))
        assert fit["lambda"][0] == math.inf
        assert fit["relative"].tolist() == [False, True]


class TestDeficiencyRows:
    def test_rows_match_the_per_curve_formula_bitwise(self):
        target = KERNEL_TARGET.values
        weights = trapezoid_weights(KERNEL_GRID)
        rng = np.random.default_rng(5)
        curves = target * rng.uniform(0.2, 2.0, (200, 1)) + rng.standard_normal((200, target.size))
        energies = deficiency_rows(curves, target, weights)
        assert energies.shape == (200,)
        for values, energy in zip(curves, energies):
            expected = float((np.maximum(target - values, 0.0) * weights).sum())
            assert energy == expected
            assert float(deficiency_rows(values, target, weights)) == expected


class TestCountHits:
    CLASSES = ("absolute", "relative", "exceeding")

    @pytest.mark.parametrize("rows", [1, 255, 256, 257, 600])
    def test_matches_a_per_form_recount(self, bank12, grid, scaled_curve_12, rows):
        rng = np.random.default_rng(rows)
        # Sorted rows: form_curves then sums in the order test_information uses.
        ids = np.sort(np.array([rng.choice(bank12.m, 4, replace=False) for _ in range(rows)]), axis=1)
        hits = count_hits(information_matrix(bank12, grid), ids, scaled_curve_12,
                          DEFAULT_EPSILON, self.CLASSES)
        expected = dict.fromkeys(self.CLASSES, 0)
        for row in ids:
            report = fit_report(test_information(bank12, TestForm.from_ids(row), grid),
                                scaled_curve_12, DEFAULT_EPSILON).to_json_dict()
            for name in self.CLASSES:
                expected[name] += report[name]
        assert hits == expected
        if rows == 600:
            assert all(hits.values())

    def test_counts_only_the_requested_classes(self, bank12, grid, scaled_curve_12):
        ids = np.array([[0, 1, 2, 3]])
        hits = count_hits(information_matrix(bank12, grid), ids, scaled_curve_12, None, ("exceeding",))
        assert list(hits) == ["exceeding"]
