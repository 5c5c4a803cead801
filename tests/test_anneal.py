import math

import numpy as np
import pytest

from fixedform import (
    AnnealConfig,
    Curve,
    ParameterError,
    TestForm,
    UnknownItemError,
    acceptance_probability,
    anneal,
    deficiency_energy,
    is_exceeding,
    propose_swap,
    test_information,
)


class TestAnnealConfig:
    def test_defaults(self):
        config = AnnealConfig()
        assert config.t0 == 0.05
        assert config.alpha == 0.9
        assert config.iters_per_temp == 1000
        assert config.max_proposals == 100_000

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(t0=0.0),
            dict(t0=-1.0),
            dict(t0=math.inf),
            dict(alpha=0.0),
            dict(alpha=1.0),
            dict(iters_per_temp=0),
            dict(max_proposals=0),
            dict(seed=-1),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ParameterError):
            AnnealConfig(**kwargs)


class TestAcceptanceProbability:
    def test_downhill_and_flat_moves_are_certain(self):
        assert acceptance_probability(5.0, 3.0, 0.05) == 1.0
        assert acceptance_probability(5.0, 5.0, 0.05) == 1.0

    def test_uphill_follows_the_boltzmann_factor(self):
        # An uphill step of exactly one temperature has probability 1/e.
        assert acceptance_probability(1.0, 1.05, 0.05) == pytest.approx(
            0.36787944117144233, abs=1e-15
        )
        assert acceptance_probability(0.0, 0.1, 0.05) == pytest.approx(
            math.exp(-2.0), abs=1e-15
        )

    def test_probability_decreases_with_colder_temperature(self):
        warm = acceptance_probability(1.0, 1.2, 0.10)
        cold = acceptance_probability(1.0, 1.2, 0.01)
        assert cold < warm < 1.0

    @pytest.mark.parametrize("t", [0.0, -0.5, math.nan])
    def test_bad_temperature(self, t):
        with pytest.raises(ParameterError):
            acceptance_probability(1.0, 2.0, t)


class TestProposeSwap:
    def test_swaps_a_member_for_a_non_member(self, bank12):
        rng = np.random.default_rng(0)
        test = TestForm((0, 3, 7, 11))
        for _ in range(50):
            out_id, in_id = propose_swap(test, bank12, rng)
            assert out_id in test.item_ids
            assert in_id not in test.item_ids
            assert 0 <= in_id < bank12.m

    def test_full_test_cannot_swap(self, bank12):
        test = TestForm(tuple(range(12)))
        with pytest.raises(ParameterError, match="every item"):
            propose_swap(test, bank12, np.random.default_rng(0))

    def test_ids_outside_the_bank_are_rejected(self, bank12):
        with pytest.raises(UnknownItemError, match=r"\[12, 40\]"):
            propose_swap(TestForm((3, 12, 40)), bank12, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(6))
    def test_anneal_draws_the_same_pair_from_the_same_state(self, bank12, grid, seed):
        # Replay anneal's start: its generator first permutes the bank, then
        # proposes one swap. A huge temperature accepts the move, so the
        # annealed test shows which pair anneal drew.
        rng = np.random.default_rng(np.random.SeedSequence((seed,)))
        start = np.sort(rng.permutation(bank12.m)[:4])
        out_id, in_id = propose_swap(TestForm(tuple(start)), bank12, rng)
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        result = anneal(bank12, 4, unreachable, AnnealConfig(seed=seed, t0=1e12, max_proposals=1))
        assert result.accepted == 1
        assert result.test.item_ids == tuple(sorted(set(start.tolist()) - {out_id} | {in_id}))


class TestAnneal:
    def anneal_12(self, bank12, scaled_curve_12, **kwargs):
        config = AnnealConfig(**{"seed": 0, "max_proposals": 20_000, **kwargs})
        return anneal(bank12, 6, scaled_curve_12, config)

    def test_success_means_the_curve_clears_the_target(self, bank12, scaled_curve_12):
        result = self.anneal_12(bank12, scaled_curve_12)
        assert result.succeeded
        assert result.energy == 0.0
        curve = test_information(bank12, result.test, scaled_curve_12.grid)
        assert is_exceeding(curve, scaled_curve_12)
        assert len(result.test.item_ids) == 6

    def test_deterministic_per_seed(self, bank12, scaled_curve_12):
        one = self.anneal_12(bank12, scaled_curve_12, seed=4)
        two = self.anneal_12(bank12, scaled_curve_12, seed=4)
        assert one == two

    def test_trace_starts_at_the_initial_state(self, bank12, scaled_curve_12):
        result = self.anneal_12(bank12, scaled_curve_12)
        first = result.energy_trace[0]
        assert first[0] == 0
        assert first[2] == 0.05
        # Proposal indices along the trace never decrease.
        indices = [entry[0] for entry in result.energy_trace]
        assert indices == sorted(indices)

    def test_greedy_init_also_succeeds(self, bank12, scaled_curve_12):
        result = self.anneal_12(bank12, scaled_curve_12, greedy_init=True)
        assert result.succeeded
        curve = test_information(bank12, result.test, scaled_curve_12.grid)
        assert is_exceeding(curve, scaled_curve_12)

    def test_impossible_target_exhausts_the_budget(self, bank12, grid):
        # No 2-item test can reach information 1000 everywhere, so the run
        # must stop at the budget with succeeded False, not raise.
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        config = AnnealConfig(seed=0, max_proposals=300, iters_per_temp=50)
        result = anneal(bank12, 2, unreachable, config)
        assert not result.succeeded
        assert result.proposals == 300
        assert result.energy > 0.0
        assert result.final_t == pytest.approx(0.05 * 0.9 ** 6)

    def test_reported_energy_matches_a_fresh_recompute(self, bank12, grid):
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        config = AnnealConfig(seed=1, max_proposals=200)
        result = anneal(bank12, 2, unreachable, config)
        curve = test_information(bank12, result.test, grid)
        assert result.energy == deficiency_energy(curve, unreachable)

    def test_bad_length_rejected(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="test length"):
            anneal(bank12, 0, scaled_curve_12)
        with pytest.raises(ParameterError, match="test length"):
            anneal(bank12, 13, scaled_curve_12)

    def test_json_dict_shape(self, bank12, scaled_curve_12):
        result = self.anneal_12(bank12, scaled_curve_12)
        doc = result.to_json_dict()
        assert set(doc) == {
            "items", "energy", "succeeded", "proposals", "accepted", "final_T",
        }
        assert doc["items"] == list(result.test.item_ids)
        assert doc["succeeded"] is True

    def test_a_start_that_already_clears_the_target_needs_no_proposal(self, bank12, grid):
        # Item information is positive at every node, so every form clears a
        # zero target.
        result = anneal(bank12, 3, Curve(grid, np.zeros(grid.num_points)), AnnealConfig(seed=2))
        assert result.succeeded
        assert (result.proposals, result.accepted, result.energy) == (0, 0, 0.0)
        assert len(result.energy_trace) == 1


# (n, seed) -> (items, proposals, accepted, final_T, energy), recorded from the
# set-based annealer this one replaced; any change in how a run consumes its
# generator shows up here.
GOLDEN_12 = {
    (4, 1): ((3, 5, 9, 11), 10, 5, 0.05, 0.0),
    (4, 6): ((2, 3, 5, 11), 41, 9, 0.05, 0.0),
    (6, 7): ((1, 4, 5, 8, 10, 11), 4, 3, 0.05, 0.0),
}
GOLDEN_300_N40 = {
    1: ((1, 5, 8, 12, 15, 24, 49, 51, 54, 61, 77, 81, 82, 89, 104, 108, 114, 118, 134, 136,
         144, 149, 161, 169, 173, 174, 177, 207, 213, 218, 220, 226, 231, 234, 243, 266, 275,
         290, 291, 294), 5816, 440, 0.02952450000000001, 0.0),
    2: ((5, 8, 9, 12, 18, 20, 24, 28, 44, 49, 51, 68, 75, 81, 86, 95, 99, 102, 104, 108, 116,
         120, 130, 133, 134, 136, 152, 154, 173, 185, 197, 199, 213, 232, 243, 247, 259, 260,
         277, 281), 4244, 349, 0.03280500000000001, 0.0),
}


def _summary(result):
    return (result.test.item_ids, result.proposals, result.accepted, result.final_t, result.energy)


class TestGoldenRuns:
    @pytest.mark.parametrize("key", sorted(GOLDEN_12))
    def test_bank12(self, bank12, scaled_curve_12, key):
        n, seed = key
        result = anneal(bank12, n, scaled_curve_12, AnnealConfig(seed=seed, max_proposals=20_000))
        assert _summary(result) == GOLDEN_12[key]

    @pytest.mark.parametrize("seed", sorted(GOLDEN_300_N40))
    def test_bank300_n40(self, bank300, lsat_curve, seed):
        result = anneal(bank300, 40, lsat_curve, AnnealConfig(seed=seed))
        assert _summary(result) == GOLDEN_300_N40[seed]

    def test_budget_exhausted(self, bank12, grid):
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        config = AnnealConfig(seed=1, max_proposals=300, iters_per_temp=50)
        result = anneal(bank12, 2, unreachable, config)
        assert _summary(result) == ((4, 11), 300, 8, 0.02657205000000001, 5996.911660634405)
        assert not result.succeeded
        assert [entry[0] for entry in result.energy_trace] == [0, 1, 79, 83, 85, 117, 119, 150, 157]
