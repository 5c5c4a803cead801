"""Distances, areas, and the three target-fit predicates.

All integrals are composite-trapezoid sums on the curve's uniform grid:

    l2_distance(f, g)   = sqrt( integral (f - g)**2 )
    area_under(f)       = integral f
    deficiency_energy   = integral max(target - test, 0)

A test form relates to a target in one of three graded ways: it can meet it
absolutely (L2 distance under a tolerance), meet it relatively (some
downscaling lambda < 1 of the test curve fits the target), or exceed it
outright (strictly above the target at every node).

``count_hits`` counts the forms of each class among many. It first screens
them on at most 16 of the grid's nodes: a form whose curve there already
rules out every requested class is dropped without its full curve. The
survivors get their full curves in float32, from a float32 copy of the
information matrix, and a float32 curve decides a class wherever it lies
outside the rounding band that ``_Band`` proves around the float64 curve;
only a form inside it gets its float64 ``form_curves`` curve and
``fit_batch``. The float32 curves, on the screen's nodes and then on the
full grid, are products of the forms' 0/1 item indicator rows with the
float32 matrix, 8 rows per BLAS call, where m <= 8 n, and ``form_curves``
gathers elsewhere. The band holds for a sum of nonnegative terms in any
order, so the products' order does not matter, and its absolute term, n *
2**-125, also covers a BLAS kernel that flushes subnormals. Where that
proof does not hold (information < 0, a target <= 0 somewhere, curves near
float32's range), and once the band leaves a quarter of a block open, the
band has zero width: the screen runs on float64 curves, where it is exact,
and every survivor gets ``fit_batch``. The CLI, whose targets are > 0 and
whose information is finite and >= 0, reaches it only where n * max(info)
or the target is 2**120 or more, or once meeting hits are common enough to
leave the quarter open; library callers also with information < 0 or a
target <= 0 somewhere. No stage changes a count.

``FormSums`` counts them over every form of a bank, for exact enumeration.
A form is kept as running sums over its items, built once for all the forms
that share a prefix: its curve on the screen's nodes, and the three sums
from which ``_MeetingRule`` decides the meeting classes wherever rounding
cannot change the outcome. Only the forms that the exceeding screen keeps or
that rule leaves open get a full curve and ``fit_batch``, so no count
changes either.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass
from typing import Iterable

import numpy as np

from .errors import GridMismatchError, ParameterError
from .irt import AbilityGrid, Curve, check_items, form_curves

__all__ = [
    "MODES",
    "DEFAULT_EPSILON",
    "FIT_FIELDS",
    "trapezoid_weights",
    "check_epsilon",
    "check_modes",
    "area_under",
    "l2_distance",
    "lambda_of",
    "deficiency_energy",
    "is_exceeding",
    "is_absolute_meeting",
    "is_relative_meeting",
    "deficiency_rows",
    "fit_batch",
    "count_hits",
    "FormSums",
    "FitReport",
    "fit_report",
]

# Default L2 tolerance for the meeting predicates; configurable everywhere.
DEFAULT_EPSILON = 1.225

# What fit_batch can compute; also FitReport's fields and JSON keys, in order.
FIT_FIELDS = ("l2", "lambda", "energy", "exceeding", "absolute", "relative")

# The boolean fit classes, which count_hits counts, in the order every
# command and file lists them.
MODES = ("absolute", "relative", "exceeding")

# Float64 curves materialized at once by count_hits; counts do not depend on it.
# 256 curves (0.25 MB at 121 nodes) stay in cache while form_curves adds rows.
_CURVE_BATCH = 256

# Forms screened, and then decided on float32 curves (0.5 MB at 121 nodes), at
# once by count_hits; counts do not depend on it either. Deciding them 512 at a
# time cut the two-thread sweep's peak RSS by 2 MB but made it 9% slower.
# The screen pays numpy's per-call cost once per column of a form, so at 256
# rows the sweep ran barely faster than with no screen. At 2048 rows its peak
# memory grew by about a quarter for little more speed.
_SCREEN_BATCH = 1024

# Nodes in the screen's subset at most; every 8th node on the default grid.
_SCREEN_NODES = 16

# Indicator rows per BLAS product when _Band builds float32 curves as products.
# A product this small runs on the calling thread, with the GIL released. On a
# 2-vCPU VM a two-worker bank300 sweep (n = 30..110 step 20, K = 16,384, all
# modes; median of 15 interleaved) took 187 ms at 8 rows, 190 ms at 16 and 289
# ms at 32, where OpenBLAS's own threads fought the workers: about as slow as
# gathering every curve (316 ms).
_PRODUCT_ROWS = 8

# _Band builds float32 curves as products where m <= _PRODUCT_RATIO * n, and by
# form_curves's gather elsewhere: products cost work in m, the gather in n. On
# one thread, per 8,192 forms (all modes, LSAT target; median of 7), product /
# gather was 1.10 at m/n = 15, 0.94 at 10, 0.84 at 7.5 and 0.80 at 6 on bank300,
# and 1.08 at 12.5, 1.04 at 10 and 0.78 at 8.3 on a 1,000-item bank.
_PRODUCT_RATIO = 8

# Indicator rows that _product_curves builds at once (300 KB at m = 300). In a
# two-worker bank300 sweep (median of 10 alternating runs of 7 sweeps) building
# a 1,024-form block's rows at once took 196 ms and added 5.8 MB of peak RSS,
# 256 rows 199 ms and 2.9 MB, and 512 rows 201 ms and 3.9 MB; 128 rows ran
# about 7% slower than 256 (8 runs).
_INDICATOR_ROWS = 256

# How far _MeetingRule needs a squared distance to clear eps**2, relative to
# the size of its terms, and lambda to clear 1, before it decides a form.
_MARGIN = 1e-9


def trapezoid_weights(grid: AbilityGrid) -> np.ndarray:
    """Composite-trapezoid quadrature weights for a uniform grid."""
    w = np.full(grid.num_points, grid.step)
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def _require_same_grid(f: Curve, g: Curve) -> None:
    if f.grid != g.grid:
        raise GridMismatchError(f"curves live on different grids: {f.grid} vs {g.grid}")


def check_epsilon(epsilon: float | None) -> None:
    """Reject a missing meeting tolerance or one that is not finite and > 0."""
    if epsilon is None or not (math.isfinite(epsilon) and epsilon > 0.0):
        raise ParameterError(f"epsilon must be finite and > 0, got {epsilon}")


def check_modes(names: Iterable[str]) -> tuple[str, ...]:
    """The fit classes in ``names``, in ``MODES`` order; refuses an unknown name or none."""
    names = tuple(names)
    if unknown := [name for name in names if name not in MODES]:
        raise ParameterError(f"unknown mode {unknown[0]!r}; expected a subset of {','.join(MODES)}")
    if not names:
        raise ParameterError("at least one mode is required")
    return tuple(mode for mode in MODES if mode in names)


def area_under(f: Curve) -> float:
    """Trapezoid approximation of the integral of ``f`` over its grid."""
    return float((f.values * trapezoid_weights(f.grid)).sum())


def _l2_rows(diff: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # Row-wise sqrt(integral diff**2); squares diff in place.
    diff *= diff
    diff *= weights
    dist = diff.sum(axis=1)
    return np.sqrt(dist, out=dist)


def deficiency_rows(curves: np.ndarray, target: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Integrated shortfall of ``curves`` below ``target``, over the last axis."""
    gap = target - curves
    np.maximum(gap, 0.0, out=gap)
    gap *= weights
    return gap.sum(axis=-1)


def fit_batch(
    curves: np.ndarray,
    target_curve: Curve,
    epsilon: float | None = None,
    fields: tuple[str, ...] = FIT_FIELDS,
) -> dict[str, np.ndarray]:
    """Fit metrics of the k test curves in the rows of ``curves``.

    Computes only the requested ``FIT_FIELDS`` names, one length-k array
    each; "absolute" and "relative" need ``epsilon`` (not validated here).
    Rows match the scalar functions bit for bit: same operations, same
    order. A zero-area row gets an infinite or NaN lambda, and a row whose
    area is too small for the ratio an infinite one; neither is relatively
    meeting.
    """
    target = target_curve.values
    weights = trapezoid_weights(target_curve.grid)
    out: dict[str, np.ndarray] = {}
    if "exceeding" in fields:
        out["exceeding"] = np.all(curves > target, axis=1)
    if "l2" in fields or "absolute" in fields:
        out["l2"] = _l2_rows(curves - target, weights)
    if "absolute" in fields:
        out["absolute"] = out["l2"] < epsilon
    if "energy" in fields:
        out["energy"] = deficiency_rows(curves, target, weights)
    if "lambda" in fields or "relative" in fields:
        s_target = float((target * weights).sum())
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            out["lambda"] = lam = s_target / (curves * weights).sum(axis=1)
            if "relative" in fields:
                scaled = lam[:, None] * curves
                scaled -= target
                out["relative"] = (lam < 1.0) & (_l2_rows(scaled, weights) < epsilon)
    return {name: out[name] for name in fields}


def _screen_nodes(num_points: int) -> np.ndarray:
    """Evenly spread node indices, both ends included; every node of a small grid."""
    return np.linspace(0, num_points - 1, min(num_points, _SCREEN_NODES)).round().astype(np.intp)


class _Band:
    """Forms' curves, and where they decide a form's classes as its float64 curve does.

    Let c64 be a form's ``form_curves`` curve on ``info``, summed left to
    right, c its curve in the band's table, and t the target. At every node

        |c - c64| <= beta = relative*c + absolute.

    A float32 band sums ``info`` rounded to float32, in any order: c is
    either ``form_curves``'s gather or the product of the form's 0/1 item
    indicator row with the float32 matrix (see ``_PRODUCT_RATIO``). In a
    product 0*x, 1*x and x + 0 are exact, and a fused multiply-add rounds
    only its addition, so each output is a tree of n - 1 rounded additions
    of disjoint subsets of the form's terms, in whatever order the BLAS
    kernel chose. Its beta has relative = 2*(n + 2)*u and absolute =
    n*2**-125, u = 2**-24.

    Why: let x be the n float64 terms (all >= 0) and X their exact sum. Each
    rounding to float32 moves a term by at most u*x + 2**-150. A kernel that
    flushes subnormals loses at most some whole terms below 2**-126: a
    flushed input is one, and a flushed sum of terms >= 0 lies below 2**-126
    and so is made of them. Otherwise a float sum is exact where it is
    subnormal. So c is a tree sum, with a rounding of at most u relatively
    per addition, of float32 terms whose exact sum Y has |Y - X| <= u*X +
    n*2**-126. A sum of n terms >= 0 in any order is within gamma_(n-1) =
    (n - 1)*u'/(1 - (n - 1)*u') of the exact sum, relatively, u' its unit
    roundoff (Higham 2002, sec. 4.2): c of Y, c64 of X. Bounding X and Y
    through c, |c - c64| <= (8/7)*n*u*c + n*2**-126*(1 + 2u) while n*u <=
    1/16. beta is at least 7/4 of that; the excess covers the float64
    rounding of beta and of the bounds below. The argument needs info >= 0,
    a target > 0, no overflow in float32 (n * max(info) and the target
    below 2**120) and a row of n items: an indicator row holds a repeated id
    once, so the products also count each row's items (a column of ones),
    and a row with fewer than n is left open.

    Where the argument does not hold, or with ``exact``, the band is exact:
    c is the gather on the float64 ``info``, bitwise c64 at every node
    (``form_curves`` sums every node on its own, in the same column order),
    and beta = 0. The rules below are the same at either width. Each is
    written "a miss iff bound > limit", so a NaN keeps the row. On the node
    subset S (``misses``), with B = |beta|_S <= relative*|c|_S +
    absolute*|1|_S in the weighted norm, G the grid's node count and u'
    float64's unit roundoff:

    - exceeding: a miss where c <= miss_ceiling, (t - absolute) / (1 +
      relative) rounded down to float32 (t itself when exact), at some
      node: then c64 <= c + beta <= t. An exact band needs no margin:
      ``fit_batch`` compares the same floats.
    - absolute: a miss iff sum_S w*(c - t)**2 > (eps + B)**2 * (1 + 1e-9).
      By the triangle inequality |c64 - t|_S >= |c - t|_S - B, so the same
      sum on c64 exceeds eps**2 by about 1e-9 relatively. Every term is >= 0
      and, but for one rounding, the full sum's term at that node, so in
      any summation order the full computed sum is at least the screened
      one times 1 - 2*G*u'; a rounded sqrt < eps needs the sum < eps**2.
    - relative: a hit needs lambda < 1, and for every lambda <= 1 the full
      squared distance is at least the minimum over lambda <= 1 of the
      convex quadratic q(lambda) = sum_S w*(lambda*c - t)**2 = lambda**2*a
      - 2*lambda*b + T_S (a = sum_S w*c**2, b = sum_S w*c*t, T_S = sum_S
      w*t**2), attained at lambda^ = min(b / a, 1). A miss iff q(lambda^) >
      E**2 + 1e-9 * (E**2 + sum_all w*t**2), E = eps + B. Where B > 0 the
      target is > 0, so a hit's lambda = S_t / area lies in (0, 1) and
      |lambda*c - t|_S <= |lambda*c64 - t|_S + B. For a hit |lambda^*c|_S <= |t|_S + E, so each of q's three terms
      is at most 2 * (E**2 + sum_all w*t**2), and the rounding of the sums,
      of lambda^ and of the cancellation is a few G*u' times that: far
      inside the margin. A row that is zero on S makes lambda^ NaN and is
      kept.

    ``decide`` applies the exceeding rule on the full grid, and calls a
    form a hit where c > hit_floor, (t + absolute) / (1 - relative) rounded
    up to float32, at every node: then c64 >= c - beta > t. Every other
    form is left open, for ``fit_batch`` on its float64 curve; an exact
    band leaves every form open, so no form gets two float64 gathers.
    """

    def __init__(self, info: np.ndarray, n: int, target_curve: Curve, epsilon: float | None,
                 classes: tuple[str, ...], exact: bool = False) -> None:
        target = target_curve.values
        weights = trapezoid_weights(target_curve.grid)
        self.exact = exact or not (info.min() >= 0.0 and target.min() > 0.0 and n <= 2**20
                                   and max(n * info.max(), target.max()) < 2.0**120)
        self.info = info if self.exact else info.astype(np.float32)
        self.n = n
        self.classes = classes
        self.epsilon = epsilon
        self.nodes = nodes = _screen_nodes(target_curve.grid.num_points)
        self.target = target[nodes]
        self.weights = weights[nodes]
        self.weighted_target = self.weights * self.target
        self.target_norm = float(self.weighted_target @ self.target)
        self.full_norm = float((target * target * weights).sum())
        self.product = not self.exact and len(info) <= _PRODUCT_RATIO * n
        if self.product:
            # Each table's last column, ones, counts an indicator row's items.
            ones = np.ones((len(info), 1), dtype=np.float32)
            self.screen_table = np.hstack([self.info[:, nodes], ones])
            self.full_table = np.hstack([self.info, ones])
        else:
            self.screen_table = self.info[:, nodes]
            self.full_table = self.info
        # beta = relative * c + absolute; its weighted norm on S is at most
        # relative * |c|_S + absolute_norm.
        self.relative = 0.0 if self.exact else 2.0 * (n + 2) * 2.0**-24
        self.absolute = 0.0 if self.exact else n * 2.0**-125
        self.absolute_norm = self.absolute * math.sqrt(float(self.weights.sum()))
        self.hit_floor = (target + self.absolute) / (1.0 - self.relative)
        self.miss_ceiling = (target - self.absolute) / (1.0 + self.relative)
        if not self.exact:
            self.hit_floor = _float32_toward(self.hit_floor, np.inf)
            self.miss_ceiling = _float32_toward(self.miss_ceiling, -np.inf)
        self.screen_ceiling = self.miss_ceiling[nodes]
        # Row reductions run as matrix-vector products: numpy's row sums and
        # any() cost several times more on rows as short as S's.
        self.all_screen_nodes = np.ones(len(nodes), dtype=bool)
        self.all_nodes = np.ones(len(target), dtype=bool)

    def _curves(self, table: np.ndarray, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (curves, whole): curves of the forms ``ids`` on ``table``'s nodes, and which rows hold n items.
        if not self.product:
            return form_curves(table, ids), np.ones(len(ids), dtype=bool)
        out = _product_curves(table, ids)
        return out[:, :-1], out[:, -1] == self.n

    def misses(self, screened: np.ndarray, classes: Iterable[str]) -> dict[str, np.ndarray]:
        """Per class in ``classes``, which rows of ``screened``, forms' values on S, the band rules out."""
        out = {}
        if "exceeding" in classes:
            out["exceeding"] = (screened <= self.screen_ceiling) @ self.all_screen_nodes
        if "absolute" in classes or "relative" in classes:
            values = screened.astype(np.float64, copy=False)
            a = (values * values) @ self.weights
            eps = self.epsilon + (0.0 if self.exact else self.relative * np.sqrt(a) + self.absolute_norm)
            # A limit past float64's range is inf, and rules no form out.
            with np.errstate(over="ignore"):
                eps2 = eps * eps
                absolute_limit = eps2 * (1.0 + _MARGIN)
                relative_limit = eps2 + _MARGIN * (eps2 + self.full_norm)
        if "absolute" in classes:
            diff = values - self.target
            diff *= diff
            out["absolute"] = diff @ self.weights > absolute_limit
        if "relative" in classes:
            b = values @ self.weighted_target
            with np.errstate(divide="ignore", invalid="ignore"):
                lam = np.minimum(b / a, 1.0)
            q = (lam * a - 2.0 * b) * lam + self.target_norm
            out["relative"] = q > relative_limit
        return out

    def survivors(self, ids: np.ndarray) -> np.ndarray:
        """The rows of ``ids`` that the band on S cannot rule out of every class."""
        curves, whole = self._curves(self.screen_table, ids)
        return ids[_kept(self.misses(curves, self.classes)) | ~whole]

    def decide(self, ids: np.ndarray) -> tuple[dict[str, int], dict[str, np.ndarray]]:
        """(hits, open): per class, the hits the band proves among the forms ``ids`` and the rows it leaves open."""
        if self.exact:
            return {}, dict.fromkeys(self.classes, np.ones(len(ids), dtype=bool))
        curves, whole = self._curves(self.full_table, ids)
        misses = self.misses(curves[:, self.nodes], [name for name in self.classes if name != "exceeding"])
        hits = dict.fromkeys(misses, 0)
        if "exceeding" in self.classes:
            hit = whole & ~((curves <= self.hit_floor) @ self.all_nodes)
            hits["exceeding"] = int(np.count_nonzero(hit))
            misses["exceeding"] = hit | (curves <= self.miss_ceiling) @ self.all_nodes
        return hits, {name: ~(decided & whole) for name, decided in misses.items()}


def _product_curves(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Curves of the forms ``ids``: their float32 0/1 item indicator rows times ``table``.

    An indicator row holds a repeated id once. Rows are built
    ``_INDICATOR_ROWS`` at a time and multiplied ``_PRODUCT_ROWS`` per BLAS
    call.
    """
    m, width = table.shape
    out = np.empty((len(ids), width), dtype=np.float32)
    for lo in range(0, len(ids), _INDICATOR_ROWS):
        forms = ids[lo : lo + _INDICATOR_ROWS]
        k = len(forms)
        indicators = np.zeros((k, m), dtype=np.float32)
        # One flat scatter: indexing by (row, id) pairs took twice as long.
        indicators.reshape(-1)[(np.arange(k) * m)[:, None] + forms] = 1.0
        head = k - k % _PRODUCT_ROWS
        np.matmul(indicators[:head].reshape(-1, _PRODUCT_ROWS, m), table,
                  out=out[lo : lo + head].reshape(-1, _PRODUCT_ROWS, width))
        np.matmul(indicators[head:], table, out=out[lo + head : lo + k])
    return out


def _kept(misses: dict[str, np.ndarray]) -> np.ndarray:
    """Which rows some class's ``misses`` mask does not rule out."""
    return ~np.logical_and.reduce(list(misses.values()))


def _float32_toward(values: np.ndarray, limit: float) -> np.ndarray:
    """``values`` rounded to float32 toward ``limit``, +inf or -inf."""
    rounded = values.astype(np.float32)
    past = rounded < values if limit > 0 else rounded > values
    return np.where(past, np.nextafter(rounded, np.float32(limit)), rounded)


def count_hits(info: np.ndarray, ids: np.ndarray, target_curve: Curve,
               epsilon: float | None, classes: tuple[str, ...]) -> dict[str, int]:
    """Hits per fit class in ``classes`` among the forms whose item ids are the rows of ``ids``.

    ``classes`` is a subset of ``MODES``; the meeting classes need a finite
    ``epsilon`` > 0, and every id must be a row of ``info``. Forms are
    screened on a node subset and then decided on their curves in a
    ``_Band``, and only a form the band leaves open gets its float64 curve
    and ``fit_batch``. Where the band's argument holds (information >= 0, a
    target > 0 at every node and curves far inside float32's range) the
    band's curves are float32 (indicator products where m <= 8 n, gathered
    elsewhere). Elsewhere, and for the rest of the call once the band
    leaves more than a quarter of a block open, the band has zero width:
    forms are screened exactly on float64 curves and every survivor is left
    open. Either way the counts are those of ``fit_batch`` on every form's
    float64 curve.
    """
    classes = check_modes(classes)
    if "absolute" in classes or "relative" in classes:
        check_epsilon(epsilon)
    check_items(ids, len(info))
    band = _Band(info, ids.shape[1], target_curve, epsilon, classes)
    screening = True
    hits = dict.fromkeys(classes, 0)
    for lo in range(0, len(ids), _SCREEN_BATCH):
        block = ids[lo : lo + _SCREEN_BATCH]
        survivors = band.survivors(block) if screening else block
        # The screen costs a quarter to a third of the full gather, so once it
        # keeps more than three quarters of a block the rest of the call skips it.
        screening = screening and 4 * len(survivors) <= 3 * len(block)
        decided, undecided = band.decide(survivors)
        for name, count in decided.items():
            hits[name] += count
        rows = np.flatnonzero(np.logical_or.reduce(list(undecided.values())))
        for start in range(0, len(rows), _CURVE_BATCH):
            batch = rows[start : start + _CURVE_BATCH]
            open_classes = tuple(name for name in classes if undecided[name][batch].any())
            fit = fit_batch(form_curves(info, survivors[batch]), target_curve, epsilon, open_classes)
            for name in open_classes:
                hits[name] += int(np.count_nonzero(fit[name] & undecided[name][batch]))
        # The band proves no meeting hit, so where they are common most forms
        # need float64 curves anyway. Once the band leaves more than a quarter
        # of a block open, the rest of the call takes the exact band.
        if not band.exact and 4 * len(rows) > len(block):
            band = _Band(info, ids.shape[1], target_curve, epsilon, classes, exact=True)
    return hits


class _MeetingRule:
    """The meeting classes of forms, decided from three sums per form where rounding cannot matter.

    With x a form's 0/1 item indicator, its curve is c = info.T x and its
    weighted squared distance to the target t is a quadratic form in x:

        sum w*(c - t)**2 = a - 2*b + T,   a = x.G x,  b = x.h,  T = sum w*t**2,

    with G = info diag(w) info.T and h = info (w*t); its area is x.r, r =
    info w. The relative class scales c by lambda = S_t / area (S_t = sum
    w*t), which maps a to lambda**2 * a and b to lambda * b.

    ``clear`` calls q = a - 2*b + T a hit where q < eps**2 - M and a miss
    where q > eps**2 + M, M = 1e-9 * (a + 2*|b| + T + eps**2). The relative
    class is a miss where lambda > 1 + 1e-9, decided by ``clear`` on the
    scaled a and b where lambda < 1 - 1e-9, and left open in between. Each
    comparison is false on a NaN, so a NaN leaves the form open. An open
    form goes to ``fit_batch`` on its curve, so every count is exactly
    ``fit_batch``'s.

    Why 1e-9 is enough: information is >= 0 and the weights are > 0, so a,
    T, the area and every entry of G and r are sums of nonnegative terms,
    however they are grouped (G's sums over nodes, a prefix's sum plus one
    item's, ``fit_batch``'s row sums). Each is therefore computed within a
    small multiple of (N + n) * u of its exact value, relatively, where N
    is the node count, n the form length and u the unit roundoff. b's error
    is bounded the same way against sum w*c*|t|, which is at most (a + T) /
    2 by Cauchy-Schwarz. The computed q and ``fit_batch``'s squared l2 thus
    each lie within a few (N + n) * u * (a + T) of the exact value. The two
    lambdas differ by a relative 2 * (N + n) * u, which moves q(lambda) by
    a few (N + n) * u * (lambda**2 * a + |lambda * b|). While N + n << 10**6
    all of this, and the rounding of ``sqrt(l2**2) < eps``, is far inside M,
    and lambda near 1 is never decided here.
    """

    def __init__(self, info: np.ndarray, target_curve: Curve, epsilon: float) -> None:
        weights = trapezoid_weights(target_curve.grid)
        target = target_curve.values
        self.h = info @ (weights * target)
        self.r = info @ weights
        self.target_norm = float((target * target * weights).sum())
        self.s_target = float((target * weights).sum())  # as fit_batch computes it
        self.eps2 = float(epsilon) * float(epsilon)  # a numpy scalar's square warns where it overflows

    def clear(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(hit, miss): where a - 2*b + T is below, or above, eps**2 by more than the margin."""
        q = a - 2.0 * b + self.target_norm
        margin = _MARGIN * (a + 2.0 * np.abs(b) + self.target_norm + self.eps2)
        # An eps**2 past float64's range is inf, so is the margin, and inf - inf is NaN: the form stays open.
        with np.errstate(invalid="ignore"):
            return q < self.eps2 - margin, q > self.eps2 + margin

    def decide(self, a: np.ndarray, b: np.ndarray, area: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Per meeting class, the (hit, open) masks of the forms with these sums."""
        hit, miss = self.clear(a, b)
        out = {"absolute": (hit, ~(hit | miss))}
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lam = self.s_target / area
            hit, miss = self.clear(lam * lam * a, lam * b)
        below = lam < 1.0 - _MARGIN
        out["relative"] = (below & hit, ~((below & (hit | miss)) | (lam > 1.0 + _MARGIN)))
        return out


class FormSums:
    """Forms as running sums over their items, extended one item at a time, and their hits.

    A row of sums holds, for one form, its curve on the screen's nodes (bit
    for bit its ``form_curves`` curve there: each node adds the items'
    values left to right, from 0), its b, its area and its a, as
    ``_MeetingRule`` defines them, and what a's cross term with a further
    item needs (see ``__init__``). A block is rows of sums and the rows'
    item ids, sorted by last item, so the rows that an item j can extend
    (those whose last item is before j) are a leading run. ``extend`` and
    ``count`` take the forms that add item ``first + k`` to each of the
    first ``runs[k]`` rows, for every k.
    """

    def __init__(self, info: np.ndarray, target_curve: Curve, epsilon: float) -> None:
        check_epsilon(epsilon)
        self.info = info
        self.target_curve = target_curve
        self.epsilon = epsilon
        # Only the exact band's exceeding rule on S is used; n matters only to a float32 band.
        self.screen = _Band(info, 0, target_curve, epsilon, ("exceeding",), exact=True)
        self.rule = _MeetingRule(info, target_curve, epsilon)
        m, num_points = info.shape
        weighted = info * trapezoid_weights(target_curve.grid)
        # Adding item j adds 2 * sum w*c*info_j to a, c the row's curve. A row carries
        # the narrower of two forms of it: its row of 2G (m numbers), whose entry j
        # it is, or its curve times 2w (N numbers), which info_j multiplies. G is
        # m x m, so it is built only while m <= N. (einsum, not a BLAS product: at
        # m = 100 the BLAS threads took 16 ms to start, einsum 0.3 ms.)
        self._gram_rows = m <= num_points
        twice = 2.0 * (np.einsum("ig,jg->ij", weighted, info) if self._gram_rows else weighted)
        # What each item adds to a row of sums: its node values, h, r, G[j, j] and its cross form.
        self.increments = np.hstack([self.screen.screen_table, self.rule.h[:, None], self.rule.r[:, None],
                                     np.einsum("ig,ig->i", weighted, info)[:, None], twice])
        nodes = len(self.screen.nodes)
        self._b, self._area, self._a, self._twice = nodes, nodes + 1, nodes + 2, nodes + 3
        self._forms = np.empty((0, self._twice))

    def empty(self) -> tuple[np.ndarray, np.ndarray]:
        """The block of the one form with no items."""
        return np.zeros((1, self.increments.shape[1])), np.zeros((1, 0), dtype=np.intp)

    def extend(self, sums: np.ndarray, ids: np.ndarray, first: int, runs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The block of the forms that extend ``sums`` and ``ids`` by ``runs``, sorted by last item."""
        rows, items = _run_forms(first, runs, np.arange(int(runs.sum())))
        out = np.empty((len(rows), self.increments.shape[1]))
        return self._extend(sums, first, runs, out), np.column_stack([ids[rows], items])

    def _extend(self, sums: np.ndarray, first: int, runs: np.ndarray, out: np.ndarray) -> np.ndarray:
        # The first out.shape[1] columns of the extended sums, written to ``out``.
        width = out.shape[1]
        lo = 0
        for item, run in enumerate(runs.tolist(), start=first):
            if run:
                np.add(sums[:run, :width], self.increments[item, :width], out=out[lo : lo + run])
                if self._gram_rows:
                    out[lo : lo + run, self._a] += sums[:run, self._twice + item]
                else:
                    out[lo : lo + run, self._a] += sums[:run, self._twice :] @ self.info[item]
                lo += run
        return out

    def count(self, sums: np.ndarray, ids: np.ndarray, first: int, runs: np.ndarray) -> dict[str, int]:
        """Hits per fit class in ``MODES`` among the forms that extend the block by ``runs``.

        A form's full curve, ``form_curves`` of its ids, is built only where
        the exceeding screen (an exact ``_Band``) keeps the form or ``_MeetingRule``
        leaves it open; the counts are those of ``fit_batch`` on every form's
        curve.
        """
        total = int(runs.sum())
        # One buffer for every block's forms: a fresh one per block costs page faults.
        if len(self._forms) < total:
            self._forms = np.empty((total, self._twice))
        forms = self._extend(sums, first, runs, self._forms[:total])
        open_forms = {"exceeding": ~self.screen.misses(forms[:, : self._b], ("exceeding",))["exceeding"]}
        hits = dict.fromkeys(MODES, 0)
        decided = self.rule.decide(forms[:, self._a], forms[:, self._b], forms[:, self._area])
        for name, (hit, undecided) in decided.items():
            hits[name] = int(np.count_nonzero(hit))
            open_forms[name] = undecided
        for name, undecided in open_forms.items():
            if not undecided.any():
                continue
            rows, items = _run_forms(first, runs, np.flatnonzero(undecided))
            # An open form's curve is its prefix's curve plus its last item's, bit
            # for bit its form_curves curve; in row order, a batch shares prefixes.
            order = np.argsort(rows, kind="stable")
            rows, items = rows[order], items[order]
            for lo in range(0, len(rows), _CURVE_BATCH):
                prefixes, slots = np.unique(rows[lo : lo + _CURVE_BATCH], return_inverse=True)
                curves = form_curves(self.info, ids[prefixes]).take(slots, axis=0)
                curves += self.info.take(items[lo : lo + _CURVE_BATCH], axis=0)
                hits[name] += int(fit_batch(curves, self.target_curve, self.epsilon, (name,))[name].sum())
        return hits


def _run_forms(first: int, runs: np.ndarray, index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The row and the added item of each form ``index`` in the item-major order of ``runs``."""
    ends = np.cumsum(runs)
    k = np.searchsorted(ends, index, side="right")
    return index - (ends - runs)[k], first + k


def _fit_one(test_curve: Curve, target_curve: Curve, epsilon, *fields: str) -> list:
    _require_same_grid(test_curve, target_curve)
    fit = fit_batch(test_curve.values[None, :], target_curve, epsilon, fields)
    return [fit[name][0].item() for name in fields]


def l2_distance(f: Curve, g: Curve) -> float:
    """L2 distance between two curves on a shared grid."""
    return _fit_one(f, g, None, "l2")[0]


def lambda_of(s_target: float, s_test: float) -> float:
    """Area ratio target/test used by the relative-meeting predicate."""
    if not (math.isfinite(s_test) and s_test > 0.0):
        raise ParameterError(f"test-curve area must be finite and > 0, got {s_test}")
    return s_target / s_test


def deficiency_energy(test_curve: Curve, target_curve: Curve) -> float:
    """Integrated shortfall of the test curve below the target.

    Zero exactly when the test curve is >= the target at every node, since
    the quadrature weights are strictly positive.
    """
    return _fit_one(test_curve, target_curve, None, "energy")[0]


def is_exceeding(test_curve: Curve, target_curve: Curve) -> bool:
    """True iff the test curve is strictly above the target at every node."""
    return _fit_one(test_curve, target_curve, None, "exceeding")[0]


def is_absolute_meeting(test_curve: Curve, target_curve: Curve, epsilon: float) -> bool:
    """True iff the L2 distance between test and target is under ``epsilon``."""
    check_epsilon(epsilon)
    return _fit_one(test_curve, target_curve, epsilon, "absolute")[0]


def is_relative_meeting(
    test_curve: Curve, target_curve: Curve, epsilon: float
) -> tuple[bool, float]:
    """Relative-meeting check; returns (met, lambda).

    lambda is the target/test area ratio. The test meets the target
    relatively iff lambda < 1 (the test carries more total information) and
    the downscaled curve lambda * test fits the target within ``epsilon``.
    """
    report = fit_report(test_curve, target_curve, epsilon)
    return report.relative, report.lambda_


@dataclass(frozen=True)
class FitReport:
    """Every fit metric for one test curve against one target."""

    l2: float
    lambda_: float
    energy: float
    exceeding: bool
    absolute: bool
    relative: bool

    def to_json_dict(self) -> dict:
        return dict(zip(FIT_FIELDS, astuple(self)))


def fit_report(test_curve: Curve, target_curve: Curve, epsilon: float) -> FitReport:
    """Evaluate all distances and predicates at once."""
    check_epsilon(epsilon)
    _require_same_grid(test_curve, target_curve)
    # Raises on a test curve without positive area, where lambda is undefined.
    lambda_of(area_under(target_curve), area_under(test_curve))
    return FitReport(*_fit_one(test_curve, target_curve, epsilon, *FIT_FIELDS))
