"""Counting test forms: exact, log-scale, and extrapolated.

A bank of m items holds C(m, n) distinct n-item forms, which overflows any
fixed-width integer long before realistic bank sizes (C(300, 150) is around
1e89), so counts are carried as log10 values, each log10 C(m, n) taken from
:func:`binom_total`. Since 0.4.0 ``fixedform counts`` writes each length's
count from its own measured ratio, log10 mu(n) + log10 C(m, n).
:func:`extrapolate_counts` is the anchored variant, used by acceptance
criteria 03 and 05: one known count at n0 sets the whole curve,

    log10 count(n) = log10 count(n0) - log10 mu(n0) - log10 C(m, n0)
                     + log10 mu(n) + log10 C(m, n)

For small banks the module also enumerates every subset outright, which is
the ground truth the statistical estimators are tested against.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import BudgetError, ParameterError
from .irt import Curve, ItemBank, check_length, information_matrix
from .metrics import MODES, check_epsilon, count_hits
# perfbench/tracing.py patches these names on this module; keep them bound.
from .irt import test_information  # noqa: F401
from .metrics import is_absolute_meeting, is_exceeding, is_relative_meeting  # noqa: F401

__all__ = [
    "BinomialCount",
    "CountCurve",
    "ExactCounts",
    "NO_ESTIMATE",
    "EXACT_BINOM_MAX_M",
    "ENUMERATION_BUDGET",
    "binom_total",
    "extrapolate_counts",
    "enumerate_exact",
]

# Exact integer form is reported up to this bank size; log10 always.
EXACT_BINOM_MAX_M = 64

# Refuse to enumerate more subsets than this.
ENUMERATION_BUDGET = 10_000_000

# Forms classified per batch; memory stays flat whatever C(m, n) is. As many
# as a sampler chunk, so count_hits can stop screening a chunk whose forms
# mostly survive its first screen block.
_ENUMERATION_CHUNK = 8192

NO_ESTIMATE = "no-estimate"


class BinomialCount(NamedTuple):
    log10: float
    exact: int | None


class ExactCounts(NamedTuple):
    total: int
    absolute: int
    relative: int
    exceeding: int


def binom_total(m: int, n: int) -> BinomialCount:
    """C(m, n) as log10 (via log-gamma), plus the exact integer for small m."""
    if n < 0 or m < 0 or n > m:
        raise ParameterError(f"need 0 <= n <= m, got n={n}, m={m}")
    log10 = (math.lgamma(m + 1) - math.lgamma(n + 1) - math.lgamma(m - n + 1)) / math.log(10)
    exact = math.comb(m, n) if m <= EXACT_BINOM_MAX_M else None
    return BinomialCount(log10, exact)


@dataclass(frozen=True)
class CountCurve:
    """log10 counts per test length, with explicit no-estimate flags.

    Lengths whose measured ratio was zero carry NaN and the ``no-estimate``
    flag: a zero hit count gives no information about the true count beyond
    "small", and silently reporting -inf would be worse than saying so.
    """

    n_values: tuple[int, ...]
    log10_counts: tuple[float, ...]
    flags: tuple[str, ...]
    anchor: tuple[int, float]

    def __post_init__(self) -> None:
        if not (len(self.n_values) == len(self.log10_counts) == len(self.flags)):
            raise ParameterError("count-curve fields must have equal lengths")

    def as_dict(self) -> dict[int, float]:
        return dict(zip(self.n_values, self.log10_counts))


def extrapolate_counts(
    anchor_n: int,
    anchor_count_log10: float,
    mu_curve: Mapping[int, float],
    m: int,
) -> CountCurve:
    """Extend one known count across all lengths with measured ratios.

    Args:
        anchor_n: length whose count is known.
        anchor_count_log10: log10 of that count.
        mu_curve: measured hit ratio per length; must include ``anchor_n``
            with a positive value.
        m: bank size.
    """
    if anchor_n not in mu_curve:
        raise ParameterError(f"anchor n={anchor_n} is not in the ratio curve")
    if not all(1 <= n <= m for n in mu_curve):
        raise ParameterError(f"ratio-curve lengths must lie in [1, {m}]")
    if not all(0.0 <= mu <= 1.0 for mu in mu_curve.values()):
        raise ParameterError("ratios must be non-negative and at most 1")
    mu_anchor = mu_curve[anchor_n]
    if mu_anchor <= 0.0:
        raise ParameterError(
            f"anchor n={anchor_n} has ratio 0; extrapolation divides by the anchor ratio, "
            "pick an anchor with a positive estimate"
        )
    if not math.isfinite(anchor_count_log10):
        raise ParameterError(f"anchor count must be finite, got {anchor_count_log10}")

    offset = anchor_count_log10 - math.log10(mu_anchor) - binom_total(m, anchor_n).log10
    n_values = tuple(sorted(mu_curve))
    log10_counts = tuple(
        anchor_count_log10 if n == anchor_n
        else math.nan if mu_curve[n] == 0.0
        else offset + math.log10(mu_curve[n]) + binom_total(m, n).log10
        for n in n_values
    )
    flags = tuple(NO_ESTIMATE if mu_curve[n] == 0.0 else "" for n in n_values)
    return CountCurve(n_values, log10_counts, flags, (anchor_n, anchor_count_log10))


def enumerate_exact(
    bank: ItemBank,
    n: int,
    target_curve: Curve,
    epsilon: float,
    budget: int = ENUMERATION_BUDGET,
) -> ExactCounts:
    """Classify every n-subset of the bank; exact but exponential.

    The oracle for the sampling estimators: streams the subsets, in
    lexicographic order and fixed-size chunks, through the batch kernels.
    Refuses to run when C(m, n) exceeds ``budget``.
    """
    check_length(n, bank.m)
    check_epsilon(epsilon)
    total = math.comb(bank.m, n)
    if total > budget:
        raise BudgetError(
            f"C({bank.m},{n}) = {total} subsets exceeds the enumeration budget of {budget}"
        )
    info = information_matrix(bank, target_curve.grid)
    # Every subset's item ids, one after another; read into arrays without a tuple per form.
    items = itertools.chain.from_iterable(itertools.combinations(range(bank.m), n))
    hits = Counter()
    while (chunk := np.fromiter(itertools.islice(items, _ENUMERATION_CHUNK * n), dtype=np.intp)).size:
        hits.update(count_hits(info, chunk.reshape(-1, n), target_curve, epsilon, MODES))
    return ExactCounts(total, **hits)
