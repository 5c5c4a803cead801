"""Simulated-annealing assembly of target-exceeding tests.

The state is an n-item test; a proposal swaps one included item for one
excluded item; the objective is the deficiency energy of the test curve
against the target. Energy zero means the curve clears the target at every
grid node, which is the success condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .irt import Curve, ItemBank, TestForm, check_items, check_length, information_matrix
from .metrics import deficiency_rows, is_exceeding, trapezoid_weights
# perfbench/tracing.py patches test_information and deficiency_energy on this module; keep them bound.
from .irt import test_information  # noqa: F401
from .metrics import deficiency_energy  # noqa: F401

__all__ = [
    "AnnealConfig",
    "AnnealResult",
    "acceptance_probability",
    "propose_swap",
    "anneal",
]

# After the start state a run draws its moves in blocks of _MOVE_BLOCK
# proposals: the drop indices, the add indices, then one uniform each. The
# block size is part of the reproducibility contract and pinned by tests.
_MOVE_BLOCK = 1024
# Candidates scored per deficiency_rows call; any value gives the same run.
_WINDOW = 16


@dataclass(frozen=True)
class AnnealConfig:
    """Cooling-schedule and budget knobs for :func:`anneal`."""

    t0: float = 0.05
    alpha: float = 0.9
    iters_per_temp: int = 1000
    max_proposals: int = 100_000
    seed: int = 0
    greedy_init: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and self.t0 > 0.0):
            raise ParameterError(f"initial temperature must be finite and > 0, got {self.t0}")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError(f"cooling factor must lie in (0, 1), got {self.alpha}")
        if self.iters_per_temp < 1:
            raise ParameterError(f"iters_per_temp must be >= 1, got {self.iters_per_temp}")
        if self.max_proposals < 1:
            raise ParameterError(f"max_proposals must be >= 1, got {self.max_proposals}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class AnnealResult:
    """Final state of an annealing run.

    ``energy_trace`` holds (proposal index, energy, temperature) snapshots:
    the initial state plus every accepted move. ``stages`` holds one
    (temperature, proposed, accepted, accepted uphill) count per temperature
    step that made a proposal. ``curve`` is the final test's information,
    freshly summed in item-id order; ``energy`` is its energy.
    """

    test: TestForm
    energy: float
    succeeded: bool
    proposals: int
    accepted: int
    final_t: float
    energy_trace: tuple[tuple[int, float, float], ...] = field(repr=False)
    stages: tuple[tuple[float, int, int, int], ...] = field(repr=False)
    curve: Curve = field(repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "items": list(self.test.item_ids),
            "energy": self.energy,
            "succeeded": self.succeeded,
            "proposals": self.proposals,
            "accepted": self.accepted,
            "final_T": self.final_t,
        }


def acceptance_probability(e_old: float, e_new: float, temperature: float) -> float:
    """Metropolis rule: 1 for downhill moves, exp(-(e_new - e_old)/T) uphill."""
    if not (math.isfinite(temperature) and temperature > 0.0):
        raise ParameterError(f"temperature must be finite and > 0, got {temperature}")
    delta = e_new - e_old
    if delta <= 0.0:
        return 1.0
    return math.exp(-delta / temperature)


def propose_swap(
    test: TestForm, bank: ItemBank, rng: np.random.Generator
) -> tuple[int, int]:
    """Pick (item to drop, item to add) uniformly from the test and its complement.

    The one-move case of :func:`anneal`'s rule: an index into the sorted
    members, then an index into the sorted non-members.
    """
    ids = np.asarray(test.item_ids, dtype=np.intp)
    check_items(ids, bank.m)
    _check_room(len(ids), bank.m)
    complement = np.delete(np.arange(bank.m), ids)
    return int(ids[rng.integers(len(ids))]), int(complement[rng.integers(len(complement))])


def _check_room(n: int, m: int) -> None:
    if n >= m:
        raise ParameterError("test already uses every item; nothing to swap in")


def _greedy_start(info: np.ndarray, weights: np.ndarray, n: int) -> np.ndarray:
    # Highest-area items first; stable sort keeps ties in id order.
    areas = (info * weights).sum(axis=1)
    order = np.argsort(-areas, kind="stable")
    return np.sort(order[:n])


def anneal(
    bank: ItemBank,
    n: int,
    target_curve: Curve,
    config: AnnealConfig | None = None,
) -> AnnealResult:
    """Search for an n-item test whose information exceeds the target everywhere.

    Starts from a uniform random test (or the greedy top-area test), swaps
    one item per proposal, accepts by the Metropolis rule, and cools
    geometrically every ``iters_per_temp`` proposals. The state is two sorted
    id arrays, the members and the non-members. After the start state the
    moves come in blocks of ``_MOVE_BLOCK`` proposals, so the move of
    proposal p depends only on the seed and p; each temperature step's counts
    are taken when it ends. Returns as soon as the deficiency energy reaches
    zero and a fresh recomputation confirms the curve clears the target at
    every node; otherwise runs out the proposal budget and reports
    ``succeeded=False``.
    """
    if config is None:
        config = AnnealConfig()
    check_length(n, bank.m)

    grid = target_curve.grid
    info = information_matrix(bank, grid)
    weights = trapezoid_weights(grid)
    target = target_curve.values
    rng = np.random.default_rng(np.random.SeedSequence((config.seed,)))

    if config.greedy_init:
        ids = _greedy_start(info, weights, n)
    else:
        ids = np.sort(rng.permutation(bank.m)[:n])
    complement = np.delete(np.arange(bank.m), ids)  # np.setdiff1d would import numpy.ma

    def resync() -> tuple[np.ndarray, float, bool]:
        # A fresh sum in id order, bitwise the curve test_information gives;
        # it clears the incremental drift and confirms a zero energy.
        values = info[ids].sum(axis=0)
        energy = float(deficiency_rows(values, target, weights))
        return values, energy, energy == 0.0 and is_exceeding(Curve(grid, values), target_curve)

    values, energy, succeeded = resync()
    temperature = config.t0
    trace: list[tuple[int, float, float]] = [(0, energy, temperature)]
    stages: list[tuple[float, int, int, int]] = []
    proposals = 0

    while not succeeded and proposals < config.max_proposals:
        stage_start, stage_trace, uphill = proposals, len(trace), 0
        stage_end = min(proposals + config.iters_per_temp, config.max_proposals)
        while not succeeded and proposals < stage_end:
            offset = proposals % _MOVE_BLOCK
            if offset == 0:
                _check_room(n, bank.m)
                drops = rng.integers(n, size=_MOVE_BLOCK)
                adds = rng.integers(bank.m - n, size=_MOVE_BLOCK)
                us = rng.random(_MOVE_BLOCK).tolist()
            # A window's candidates are scored from its start state and walked up
            # to the first accepted move, so the run does not depend on _WINDOW.
            size = min(_WINDOW, _MOVE_BLOCK - offset, stage_end - proposals)
            moves = slice(offset, offset + size)
            outs = ids[drops[moves]]
            ins = complement[adds[moves]]
            candidates = values - info[outs]
            candidates += info[ins]
            energies = deficiency_rows(candidates, target, weights).tolist()
            for k, (new_energy, u) in enumerate(zip(energies, us[moves])):
                if new_energy <= energy or u < acceptance_probability(energy, new_energy, temperature):
                    break
            else:
                proposals += size
                continue
            proposals += k + 1
            # Each item takes the other's slot; re-sorting keeps both arrays in id order.
            ids[drops[offset + k]] = ins[k]
            complement[adds[offset + k]] = outs[k]
            ids.sort()
            complement.sort()
            uphill += new_energy > energy
            values = candidates[k]
            energy = new_energy
            trace.append((proposals, energy, temperature))
            if energy == 0.0:
                values, energy, succeeded = resync()
        stages.append((temperature, proposals - stage_start, len(trace) - stage_trace, uphill))
        if not succeeded and proposals % config.iters_per_temp == 0:
            # Fast cooling would underflow to 0, where the Metropolis rule is
            # undefined; the smallest positive float refuses every uphill move.
            temperature = max(temperature * config.alpha, math.ulp(0.0))
            values, energy, succeeded = resync()

    final_curve = Curve(grid, info[ids].sum(axis=0))
    return AnnealResult(
        test=TestForm(tuple(ids)),
        energy=float(deficiency_rows(final_curve.values, target, weights)),
        succeeded=succeeded,
        proposals=proposals,
        accepted=len(trace) - 1,
        final_t=temperature,
        energy_trace=tuple(trace),
        stages=tuple(stages),
        curve=final_curve,
    )
