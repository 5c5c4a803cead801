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
    the initial state plus every accepted move. ``curve`` is the final test's
    information, freshly summed in item-id order; ``energy`` is its energy.
    """

    test: TestForm
    energy: float
    succeeded: bool
    proposals: int
    accepted: int
    final_t: float
    energy_trace: tuple[tuple[int, float, float], ...] = field(repr=False)
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
    """Pick (item to drop, item to add) uniformly from the test and its complement."""
    ids = np.asarray(test.item_ids, dtype=np.intp)
    check_items(ids, bank.m)
    member = np.zeros(bank.m, dtype=bool)
    member[ids] = True
    return _swap(ids, member, rng)


def _swap(ids: np.ndarray, member: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
    # ids are the sorted members of the bank mask; the item to add is drawn
    # over the whole bank and redrawn until it is not a member.
    if len(ids) >= len(member):
        raise ParameterError("test already uses every item; nothing to swap in")
    out_id = int(ids[rng.integers(len(ids))])
    while True:
        in_id = int(rng.integers(len(member)))
        if not member[in_id]:
            return out_id, in_id


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
    geometrically every ``iters_per_temp`` proposals. Returns as soon as the
    deficiency energy reaches zero and a fresh recomputation confirms the
    curve clears the target at every node; otherwise runs out the proposal
    budget and reports ``succeeded=False``.
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
    member = np.zeros(bank.m, dtype=bool)
    member[ids] = True

    def energy_of(values: np.ndarray) -> float:
        return float(deficiency_rows(values, target, weights))

    def resync() -> tuple[np.ndarray, float, bool]:
        # A fresh sum in id order, bitwise the curve test_information gives;
        # it clears the incremental drift and confirms a zero energy.
        values = info[ids].sum(axis=0)
        energy = energy_of(values)
        return values, energy, energy == 0.0 and is_exceeding(Curve(grid, values), target_curve)

    values, energy, succeeded = resync()
    temperature = config.t0
    trace: list[tuple[int, float, float]] = [(0, energy, temperature)]
    proposals = 0
    accepted = 0

    while not succeeded and proposals < config.max_proposals:
        proposals += 1
        out_id, in_id = _swap(ids, member, rng)
        new_values = values - info[out_id] + info[in_id]
        new_energy = energy_of(new_values)
        if new_energy <= energy or rng.random() < acceptance_probability(
            energy, new_energy, temperature
        ):
            member[out_id] = False
            member[in_id] = True
            ids = np.flatnonzero(member)
            values = new_values
            energy = new_energy
            accepted += 1
            trace.append((proposals, energy, temperature))
            if energy == 0.0:
                values, energy, succeeded = resync()
        if not succeeded and proposals % config.iters_per_temp == 0:
            # Fast cooling would underflow to 0, where the Metropolis rule is
            # undefined; the smallest positive float refuses every uphill move.
            temperature = max(temperature * config.alpha, math.ulp(0.0))
            values, energy, succeeded = resync()

    final_curve = Curve(grid, info[ids].sum(axis=0))
    return AnnealResult(
        test=TestForm(tuple(ids)),
        energy=energy_of(final_curve.values),
        succeeded=succeeded,
        proposals=proposals,
        accepted=accepted,
        final_t=temperature,
        energy_trace=tuple(trace),
        curve=final_curve,
    )
