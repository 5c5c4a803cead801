import hashlib
import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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

# The package exports the function under the module's name.
ANNEAL = importlib.import_module("fixedform.anneal")


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

    def test_one_move_of_the_block_rule(self, bank12):
        # An index into the sorted members, then one into the sorted non-members.
        test = TestForm((0, 3, 7, 11))
        rng, replay = np.random.default_rng(5), np.random.default_rng(5)
        complement = (1, 2, 4, 5, 6, 8, 9, 10)
        for _ in range(20):
            expected = (test.item_ids[replay.integers(4)], complement[replay.integers(8)])
            assert propose_swap(test, bank12, rng) == expected

    @pytest.mark.parametrize("seed", range(6))
    def test_anneal_draws_the_same_pair_from_the_same_state(self, bank12, grid, seed):
        # Replay anneal's start: its generator first permutes the bank, then
        # draws a block of drop indices, a block of add indices and a block of
        # uniforms. A huge temperature accepts the first move, so the annealed
        # test shows which pair anneal drew.
        rng = np.random.default_rng(np.random.SeedSequence((seed,)))
        start = np.sort(rng.permutation(bank12.m)[:4])
        complement = np.setdiff1d(np.arange(bank12.m), start)
        drops = rng.integers(4, size=ANNEAL._MOVE_BLOCK)
        adds = rng.integers(bank12.m - 4, size=ANNEAL._MOVE_BLOCK)
        out_id, in_id = start[drops[0]], complement[adds[0]]
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

    def test_a_full_test_needs_no_proposal_when_it_clears_the_target(self, bank12, grid):
        result = anneal(bank12, 12, Curve(grid, np.zeros(grid.num_points)), AnnealConfig(seed=2))
        assert result.succeeded
        assert (result.proposals, result.test.item_ids) == (0, tuple(range(12)))

    def test_a_full_test_that_misses_the_target_cannot_swap(self, bank12, grid):
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        with pytest.raises(ParameterError, match="every item"):
            anneal(bank12, 12, unreachable, AnnealConfig(seed=2))

    @pytest.mark.parametrize("n, max_proposals", [(2, 300), (4, 2500)])
    def test_stage_counts_add_up(self, bank12, grid, n, max_proposals):
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        config = AnnealConfig(seed=1, max_proposals=max_proposals, iters_per_temp=50)
        result = anneal(bank12, n, unreachable, config)
        temperatures, proposed, accepted, uphill = zip(*result.stages)
        assert sum(proposed) == result.proposals
        assert sum(accepted) == result.accepted
        assert all(0 <= up <= acc <= prop for prop, acc, up in zip(proposed, accepted, uphill))
        assert proposed == (50,) * (max_proposals // 50)
        assert temperatures == pytest.approx([0.05 * 0.9**k for k in range(len(temperatures))])

    def test_stage_counts_of_a_run_that_succeeds(self, bank300, lsat_curve):
        result = anneal(bank300, 40, lsat_curve, AnnealConfig(seed=1))
        assert result.succeeded
        assert sum(stage[1] for stage in result.stages) == result.proposals
        assert sum(stage[2] for stage in result.stages) == result.accepted
        assert 0 < sum(stage[3] for stage in result.stages) < result.accepted
        assert result.stages[-1][0] == result.final_t


class TestFinalCurve:
    """``AnnealResult.curve`` is the final form's curve that the energy comes from."""

    @pytest.mark.parametrize("seed", [0, 4])
    def test_succeeded_run(self, bank12, scaled_curve_12, seed):
        result = anneal(bank12, 6, scaled_curve_12, AnnealConfig(seed=seed, max_proposals=20_000))
        self.check(result, bank12, scaled_curve_12)

    def test_budget_exhausted_run(self, bank12, grid):
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        result = anneal(bank12, 2, unreachable, AnnealConfig(seed=1, max_proposals=300, iters_per_temp=50))
        assert not result.succeeded
        self.check(result, bank12, unreachable)

    def test_bank300_n40(self, bank300, lsat_curve):
        self.check(anneal(bank300, 40, lsat_curve, AnnealConfig(seed=2)), bank300, lsat_curve)

    @staticmethod
    def check(result, bank, target):
        fresh = test_information(bank, result.test, target.grid)
        assert result.curve.grid == target.grid
        assert result.curve.values.tobytes() == fresh.values.tobytes()
        assert result.energy == deficiency_energy(result.curve, target)


# (n, seed) -> (items, proposals, accepted, final_T, energy), recorded from
# the block-drawn move stream of 0.6.0; any change in how a run consumes its
# generator shows up here.
GOLDEN_12 = {
    (4, 1): ((1, 5, 8, 11), 2, 2, 0.05, 0.0),
    (4, 6): ((2, 7, 8, 10), 1, 1, 0.05, 0.0),
    (6, 7): ((2, 4, 6, 7, 8, 10), 6, 5, 0.05, 0.0),
}
GOLDEN_300_N40 = {
    1: ((8, 12, 15, 18, 36, 45, 51, 61, 92, 99, 102, 113, 132, 134, 143, 148, 173, 174, 177,
         181, 184, 194, 197, 213, 217, 220, 225, 226, 229, 243, 251, 254, 264, 266, 267, 277,
         280, 285, 292, 294), 8683, 638, 0.021523360500000012, 0.0),
    2: ((5, 8, 11, 15, 28, 33, 38, 50, 51, 54, 61, 64, 70, 82, 91, 96, 103, 104, 108, 113, 122,
         133, 148, 155, 158, 176, 177, 195, 197, 213, 218, 220, 243, 264, 266, 268, 281, 283,
         291, 294), 1599, 182, 0.045000000000000005, 0.0),
}


def _summary(result):
    return (result.test.item_ids, result.proposals, result.accepted, result.final_t, result.energy)


# seed -> (stages, number of trace entries, sha256 of their comma-joined
# proposal indices) for the GOLDEN_300_N40 runs. Seed 1 crosses 8 cooling
# steps and 8 move blocks.
GOLDEN_300_N40_STEPS = {
    1: (((0.05, 1000, 105, 44), (0.045000000000000005, 1000, 85, 44),
         (0.04050000000000001, 1000, 61, 28), (0.03645000000000001, 1000, 84, 44),
         (0.03280500000000001, 1000, 80, 39), (0.02952450000000001, 1000, 60, 31),
         (0.02657205000000001, 1000, 60, 25), (0.02391484500000001, 1000, 55, 29),
         (0.021523360500000012, 683, 48, 22)),
        639, "ccca563bcf64bea31395e72e3a0bded26f2ae278e0ffbf021962d473695411e4"),
    2: (((0.05, 1000, 126, 46), (0.045000000000000005, 599, 56, 28)),
        183, "8a23fbf3f8776fe6fd308c90b1814e5a49424f233bb630ecac0722ef90b80a06"),
}


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

    @pytest.mark.parametrize("seed", sorted(GOLDEN_300_N40_STEPS))
    def test_bank300_n40_steps_and_trace(self, bank300, lsat_curve, seed):
        result = anneal(bank300, 40, lsat_curve, AnnealConfig(seed=seed))
        indices = ",".join(str(entry[0]) for entry in result.energy_trace)
        digest = hashlib.sha256(indices.encode()).hexdigest()
        assert (result.stages, len(result.energy_trace), digest) == GOLDEN_300_N40_STEPS[seed]

    def test_budget_exhausted(self, bank12, grid):
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        config = AnnealConfig(seed=1, max_proposals=300, iters_per_temp=50)
        result = anneal(bank12, 2, unreachable, config)
        assert _summary(result) == ((4, 11), 300, 5, 0.02657205000000001, 5996.911660634405)
        assert not result.succeeded
        assert [entry[0] for entry in result.energy_trace] == [0, 2, 239, 242, 244, 245]
        assert [stage[1:] for stage in result.stages] == [
            (50, 1, 0), (50, 0, 0), (50, 0, 0), (50, 0, 0), (50, 4, 2), (50, 0, 0),
        ]


class TestMoveBlocks:
    """Moves come in fixed blocks; the scoring window changes nothing."""

    def test_move_block_is_pinned(self):
        # Changing the block size changes which moves a seed makes; it is
        # part of the reproducibility contract.
        assert ANNEAL._MOVE_BLOCK == 1024

    @staticmethod
    def runs_agree_across_windows(monkeypatch, run, iters_per_temp):
        results = []
        for window in (1, iters_per_temp + 1):
            monkeypatch.setattr(ANNEAL, "_WINDOW", window)
            results.append(run())
        assert results[0] == results[1]
        return results[0]

    @pytest.mark.parametrize("n, seed", [(4, 1), (4, 6), (6, 7)])
    def test_window_does_not_change_a_bank12_run(self, monkeypatch, bank12, scaled_curve_12, n, seed):
        config = AnnealConfig(seed=seed, max_proposals=20_000)
        self.runs_agree_across_windows(
            monkeypatch, lambda: anneal(bank12, n, scaled_curve_12, config), config.iters_per_temp
        )

    def test_window_does_not_change_a_bank12_budget_run(self, monkeypatch, bank12, grid):
        # 2500 proposals end inside the third block and cross 49 cooling steps.
        unreachable = Curve(grid, np.full(grid.num_points, 1000.0))
        config = AnnealConfig(seed=1, max_proposals=2500, iters_per_temp=50)
        result = self.runs_agree_across_windows(
            monkeypatch, lambda: anneal(bank12, 4, unreachable, config), config.iters_per_temp
        )
        assert (result.proposals, result.succeeded) == (2500, False)

    @pytest.mark.parametrize("seed", [1, 4])
    def test_window_does_not_change_a_bank300_run(self, monkeypatch, bank300, lsat_curve, seed):
        # Seed 1 runs out its budget 452 proposals into the third block;
        # seed 4 succeeds.
        config = AnnealConfig(seed=seed, iters_per_temp=7, max_proposals=2500)
        result = self.runs_agree_across_windows(
            monkeypatch, lambda: anneal(bank300, 40, lsat_curve, config), config.iters_per_temp
        )
        assert result.succeeded == (seed == 4)

    @pytest.mark.parametrize("cap", [1, 700, 1000, 1024, 2049])
    def test_a_capped_run_is_a_prefix_of_a_longer_one(self, bank300, lsat_curve, cap):
        full = anneal(bank300, 40, lsat_curve, AnnealConfig(seed=1))
        assert full.proposals > cap
        capped = anneal(bank300, 40, lsat_curve, AnnealConfig(seed=1, max_proposals=cap))
        assert capped.proposals == cap
        assert capped.energy_trace == tuple(e for e in full.energy_trace if e[0] <= cap)
        assert capped.accepted == len(capped.energy_trace) - 1


class TestStepCounts:
    """Each temperature step's counts agree with the trace and the schedule."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 11),
        seed=st.integers(0, 2**16),
        iters_per_temp=st.integers(1, 60),
        max_proposals=st.integers(1, 3000),
        greedy_init=st.booleans(),
        alpha=st.sampled_from((0.9, 0.1)),
    )
    def test_steps_match_the_trace_and_the_schedule(
        self, bank12, scaled_curve_12, n, seed, iters_per_temp, max_proposals, greedy_init, alpha
    ):
        config = AnnealConfig(seed=seed, alpha=alpha, iters_per_temp=iters_per_temp,
                              max_proposals=max_proposals, greedy_init=greedy_init)
        result = anneal(bank12, n, scaled_curve_12, config)
        temperatures, proposed, accepted, uphill = zip(*result.stages) if result.stages else ((),) * 4
        assert sum(proposed) == result.proposals
        assert sum(accepted) == result.accepted == len(result.energy_trace) - 1
        # Proposal p (counted from 1) belongs to step (p - 1) // iters_per_temp.
        per_step = [0] * len(result.stages)
        for index, _, temperature in result.energy_trace[1:]:
            step = (index - 1) // iters_per_temp
            per_step[step] += 1
            assert temperature == temperatures[step]
        assert tuple(per_step) == accepted
        assert all(count == iters_per_temp for count in proposed[:-1])
        assert all(0 < count <= iters_per_temp for count in proposed[-1:])
        assert all(0 <= up <= acc for acc, up in zip(accepted, uphill))
        expected, temperature = [], config.t0
        for _ in temperatures:
            expected.append(temperature)
            temperature = max(temperature * alpha, math.ulp(0.0))
        assert list(temperatures) == expected


def test_fast_cooling_runs_out_the_budget_at_a_positive_temperature(bank12, lsat_curve):
    # Cooling by 0.1 every proposal takes 0.05 below the smallest float long
    # before the budget ends; the run must still end at the budget.
    config = AnnealConfig(seed=1, alpha=0.1, iters_per_temp=1, max_proposals=2000)
    result = anneal(bank12, 4, lsat_curve, config)
    assert not result.succeeded
    assert result.proposals == 2000
    assert result.final_t > 0.0
    assert all(temperature > 0.0 for _, _, temperature in result.energy_trace)
