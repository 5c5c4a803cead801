"""Independent recomputation that the benchmark checks the program's outputs against.

Nothing here imports ``fixedform``: the 3PL information, the target
polynomial and the three fit predicates are written out again from their
definitions, so a defect in the program cannot hide in its own check.
"""

from __future__ import annotations

import csv
import itertools
import math

import numpy as np

# The LSAT-style target polynomial, highest degree first.
LSAT_COEFFS_DESCENDING = (0.0046, 0.0303, 0.0093, -0.6154, -1.6408, 3.5254, 13.328)
GRID = np.linspace(-3.0, 3.0, 121)
EPSILON = 1.225

_CHUNK = 4096


def target_values(scale: float = 1.0) -> np.ndarray:
    return np.polyval([c * scale for c in LSAT_COEFFS_DESCENDING], GRID)


def trapezoid_weights() -> np.ndarray:
    w = np.full(GRID.size, GRID[1] - GRID[0])
    w[[0, -1]] *= 0.5
    return w


def read_bank_information(path) -> np.ndarray:
    """3PL information of every item of a bank CSV on the grid; shape (m, 121)."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    a, b, c = (np.array([float(r[k]) for r in rows])[:, None] for k in "abc")
    p = c + (1.0 - c) / (1.0 + np.exp(-a * (GRID - b)))
    return (a * (p - c) / (1.0 - c)) ** 2 * (1.0 - p) / p


def exact_counts(info: np.ndarray, n: int, target: np.ndarray, epsilon: float = EPSILON) -> dict:
    """N, N_A, N_R, N_E over every n-subset, classified in vectorized chunks."""
    w = trapezoid_weights()
    s_target = float((target * w).sum())
    counts = {"N": 0, "N_A": 0, "N_R": 0, "N_E": 0}
    combos = itertools.combinations(range(info.shape[0]), n)
    while True:
        ids = np.array(list(itertools.islice(combos, _CHUNK)), dtype=np.intp)
        if ids.size == 0:
            return counts
        curves = info[ids].sum(axis=1)
        diff = curves - target
        lam = s_target / (curves * w).sum(axis=1)
        scaled = lam[:, None] * curves - target
        counts["N"] += len(ids)
        counts["N_A"] += int((np.sqrt((diff * diff * w).sum(axis=1)) < epsilon).sum())
        counts["N_R"] += int(((lam < 1.0) & (np.sqrt((scaled * scaled * w).sum(axis=1)) < epsilon)).sum())
        counts["N_E"] += int(np.all(curves > target, axis=1).sum())


def form_exceeds(ids, n: int, info: np.ndarray, target: np.ndarray) -> bool:
    """n distinct in-range ids whose summed curve is strictly above the target everywhere."""
    ids = [int(i) for i in ids]
    if len(ids) != n or len(set(ids)) != n or not all(0 <= i < info.shape[0] for i in ids):
        return False
    return bool(np.all(info[ids].sum(axis=0) > target))


def log10_binom(m: int, n: int) -> float:
    return math.log10(math.comb(m, n))


def within_reference(mu: float, se: float, ref_mu: float, ref_se: float, z: float = 4.0) -> bool:
    """|mu - ref| within z combined standard errors (equality when both are exact)."""
    return abs(mu - ref_mu) <= z * math.hypot(se, ref_se)
