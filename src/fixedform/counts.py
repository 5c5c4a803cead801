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
the ground truth the statistical estimators are tested against. The walk
goes depth first by shared prefixes: each k-item prefix's sums are built
once, from its (k-1)-item prefix's, for every form that extends it, and
``metrics.FormSums`` counts each class with the counts ``fit_batch`` gives
on every form's curve.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Mapping, NamedTuple

import numpy as np

from .errors import BudgetError, ParameterError
from .irt import Curve, ItemBank, check_length, information_matrix
from .metrics import FormSums, check_epsilon
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

# Forms classified per block, and prefix sums (numbers) held per block, at most
# unless one prefix needs more; memory stays flat whatever C(m, n) is. Halving
# both made enumerate-m20 about a third slower for about 1 MB less peak memory.
_BLOCK_FORMS = 4096
_BLOCK_SUMS = 32768

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

    The oracle for the sampling estimators: walks the subsets by shared
    prefixes, in blocks of bounded size, and counts each class with
    ``metrics.FormSums``, whose counts are those of ``fit_batch`` on every
    form's curve. Refuses to run when C(m, n) exceeds ``budget``.
    """
    check_length(n, bank.m)
    check_epsilon(epsilon)
    total = math.comb(bank.m, n)
    if total > budget:
        raise BudgetError(
            f"C({bank.m},{n}) = {total} subsets exceeds the enumeration budget of {budget}"
        )
    form_sums = FormSums(information_matrix(bank, target_curve.grid), target_curve, epsilon)
    hits = Counter()
    for block in _extensions(form_sums, bank.m, n):
        hits.update(form_sums.count(*block))
    return ExactCounts(total, **hits)


def _extensions(form_sums: FormSums, m: int, n: int):
    """Walk the n-item forms of an m-item bank depth first, by shared prefixes.

    Yields blocks (sums, ids, first, runs) of (n-1)-item prefixes, sorted by
    last item: the forms are each of the first ``runs[k]`` rows followed by
    item ``first + k``, every form once. Each k-item prefix is built once,
    by ``form_sums.extend`` from its (k-1)-item prefix, starting from the
    empty prefix.
    """
    # The stack is ordered by prefix length, longest on top: a block's whole
    # subtree is counted before the next block of its length starts, so
    # memory holds a few blocks per length at most.
    stack = [form_sums.empty()]
    while stack:
        sums, ids = stack.pop()
        depth = ids.shape[1]
        last = ids[:, -1] if depth else np.full(1, -1)
        # A prefix's next item comes after its last and leaves room for the rest.
        top = m - n + depth
        ends = np.cumsum(top - last)
        limit = _BLOCK_FORMS if depth == n - 1 else max(1, _BLOCK_SUMS // sums.shape[1])
        if ends[-1] > limit and len(ids) > 1:
            mid = min(max(int(np.searchsorted(ends, ends[-1] // 2)), 1), len(ids) - 1)
            stack += [(sums[mid:], ids[mid:]), (sums[:mid], ids[:mid])]
            continue
        first = int(last[0]) + 1
        runs = np.searchsorted(last, np.arange(first, top + 1))
        if depth == n - 1:
            yield sums, ids, first, runs
        else:
            stack.append(form_sums.extend(sums, ids, first, runs))
