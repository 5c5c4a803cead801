"""Three-parameter logistic (3PL) response model and information functions.

An item with discrimination ``a``, difficulty ``b`` and guessing floor ``c``
answers correctly with probability

    p(theta) = c + (1 - c) / (1 + exp(-a * (theta - b)))

and contributes Fisher information

    I(theta) = (a * (p - c) / (1 - c))**2 * (1 - p) / p.

A test's information function is the plain sum of its items' information
functions, tabulated on a uniform ability grid. Everything in this module is
a pure function of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, UnknownItemError

__all__ = [
    "ItemParams",
    "ItemBank",
    "TestForm",
    "AbilityGrid",
    "Curve",
    "prob_correct",
    "item_information",
    "test_information",
    "information_matrix",
    "form_curves",
    "check_length",
    "check_items",
    "standard_error",
]


@dataclass(frozen=True)
class ItemParams:
    """One item's 3PL parameters: ``a`` > 0, ``b`` finite, 0 <= ``c`` < 1."""

    a: float
    b: float
    c: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ParameterError(f"discrimination a must be finite and > 0, got {self.a}")
        if not math.isfinite(self.b):
            raise ParameterError(f"difficulty b must be finite, got {self.b}")
        if not (math.isfinite(self.c) and 0.0 <= self.c < 1.0):
            raise ParameterError(f"guessing probability c must lie in [0, 1), got {self.c}")


@dataclass(frozen=True, eq=False)
class ItemBank:
    """Ordered collection of items; an item's id is its position, 0..m-1."""

    items: tuple[ItemParams, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "items", tuple(self.items))
        if len(self.items) < 1:
            raise ParameterError("an item bank must contain at least one item")

    @property
    def m(self) -> int:
        return len(self.items)

    def __len__(self) -> int:
        return len(self.items)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ItemBank):
            return NotImplemented
        return self.items == other.items

    @cached_property
    def a_values(self) -> np.ndarray:
        return _frozen(np.array([it.a for it in self.items], dtype=np.float64))

    @cached_property
    def b_values(self) -> np.ndarray:
        return _frozen(np.array([it.b for it in self.items], dtype=np.float64))

    @cached_property
    def c_values(self) -> np.ndarray:
        return _frozen(np.array([it.c for it in self.items], dtype=np.float64))


@dataclass(frozen=True)
class TestForm:
    """A test: sorted, distinct item ids drawn from one bank."""

    item_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "item_ids", tuple(int(i) for i in self.item_ids))
        if len(self.item_ids) < 1:
            raise ParameterError("a test must contain at least one item")
        if any(i < 0 for i in self.item_ids):
            raise ParameterError("item ids must be non-negative")
        if any(x >= y for x, y in zip(self.item_ids, self.item_ids[1:])):
            raise ParameterError("item ids must be strictly increasing (sorted, no duplicates)")

    @property
    def n(self) -> int:
        return len(self.item_ids)

    @classmethod
    def from_ids(cls, ids) -> "TestForm":
        """Build a form from ids in any order; duplicates are an error."""
        ordered = sorted(int(i) for i in ids)
        if any(x == y for x, y in zip(ordered, ordered[1:])):
            raise ParameterError("duplicate item ids in test")
        return cls(tuple(ordered))


@dataclass(frozen=True)
class AbilityGrid:
    """Uniform mesh on the ability interval, endpoints included."""

    lo: float = -3.0
    hi: float = 3.0
    num_points: int = 121

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ParameterError(f"grid bounds must be finite with lo < hi, got [{self.lo}, {self.hi}]")
        if self.num_points < 2:
            raise ParameterError(f"grid needs at least 2 points, got {self.num_points}")

    @property
    def step(self) -> float:
        return (self.hi - self.lo) / (self.num_points - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        return _frozen(np.linspace(self.lo, self.hi, self.num_points))

    def node(self, k: int) -> float:
        return float(self.nodes[k])


@dataclass(frozen=True, eq=False)
class Curve:
    """Function values tabulated on an ability grid, one per node."""

    grid: AbilityGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.num_points,):
            raise ParameterError(
                f"curve has {values.size} values for a {self.grid.num_points}-point grid"
            )
        if not np.all(np.isfinite(values)):
            raise ParameterError("curve values must all be finite")
        object.__setattr__(self, "values", _frozen(values.copy()))


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _logistic(z):
    # Stable in both tails: only ever exponentiates non-positive arguments.
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def _prob(a, b, c, theta):
    return c + (1.0 - c) * _logistic(a * (np.asarray(theta, dtype=np.float64) - b))


def _information(a, b, c, theta):
    p = _prob(a, b, c, theta)
    slope = a * (p - c) / (1.0 - c)
    with np.errstate(divide="ignore", invalid="ignore"):
        with np.errstate(over="ignore"):
            odds = (1.0 - p) / p
        info = slope**2 * odds
        # Far below b with c == 0, p can be so small that 1 / p overflows while
        # slope**2 underflows; there the same value is slope * (slope / p) * (1 - p).
        if (far := ~np.isfinite(odds)).any():
            info = np.where(far, slope * (slope / p) * (1.0 - p), info)
    # p underflows to 0 only when c == 0 far below b, where the limit is 0.
    return np.where(p > 0.0, info, 0.0)


def prob_correct(item: ItemParams, theta: float) -> float:
    """Probability of a correct answer at ability ``theta``."""
    if not math.isfinite(theta):
        raise ParameterError(f"theta must be finite, got {theta}")
    return float(_prob(item.a, item.b, item.c, theta))


def item_information(item: ItemParams, theta: float) -> float:
    """Fisher information the item contributes at ability ``theta``."""
    if not math.isfinite(theta):
        raise ParameterError(f"theta must be finite, got {theta}")
    return float(_information(item.a, item.b, item.c, theta))


def information_matrix(bank: ItemBank, grid: AbilityGrid) -> np.ndarray:
    """Tabulate every item's information curve; shape (m, num_points).

    Row i is item i's information at each grid node. Any test's information
    curve is the sum of the rows its ids select, which makes this the
    workhorse for bulk sampling and annealing.
    """
    return _item_rows(bank, np.arange(bank.m), grid)


def _item_rows(bank: ItemBank, ids: np.ndarray, grid: AbilityGrid) -> np.ndarray:
    """The information curves of items ``ids``, one row each; refuses an item whose curve is not finite."""
    a = bank.a_values[ids][:, None]
    b = bank.b_values[ids][:, None]
    c = bank.c_values[ids][:, None]
    # A huge discrimination overflows the squared slope to inf (and inf * 0 to NaN).
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _information(a, b, c, grid.nodes[None, :])
    if not (finite := np.isfinite(rows).all(axis=1)).all():
        i = int(ids[np.argmin(finite)])
        item = bank.items[i]
        raise ParameterError(f"item {i} (a={item.a!r}, b={item.b!r}, c={item.c!r}) has information "
                             f"that is not finite on the ability grid")
    return rows


def form_curves(info: np.ndarray, ids) -> np.ndarray:
    """Information curves of k forms at once; ``ids`` has shape (k, n).

    Row r adds the ``info`` rows ``ids[r]`` left to right, the order of
    :func:`test_information`, so it matches that curve bit for bit. A form
    with no items has the zero curve.
    """
    columns = np.ascontiguousarray(np.asarray(ids, dtype=np.intp).T)
    if not len(columns):
        return np.zeros((columns.shape[1], info.shape[1]), dtype=info.dtype)
    curves = info.take(columns[0], axis=0)
    for column in columns[1:]:
        curves += info.take(column, axis=0)
    return curves


def check_length(n: int, m: int) -> None:
    """Reject a test length outside [1, m] for a bank of m items."""
    if n < 1 or n > m:
        raise ParameterError(f"test length must lie in [1, {m}], got {n}")


def check_items(item_ids, m: int) -> None:
    """Reject item ids outside [0, m), the ids of a bank of m items, listing them in order."""
    ids = np.asarray(item_ids)
    if ids.size and (ids.min() < 0 or ids.max() >= m):
        bad = ids[(ids < 0) | (ids >= m)]
        raise UnknownItemError(f"item ids {bad.tolist()} not in bank of {m} items")


def test_information(bank: ItemBank, test: TestForm, grid: AbilityGrid) -> Curve:
    """Test information curve: nodewise sum of the items' information."""
    idx = np.asarray(test.item_ids, dtype=np.intp)
    check_items(idx, bank.m)
    return Curve(grid, _item_rows(bank, idx, grid).sum(axis=0))


def standard_error(info: float) -> float:
    """Ability standard error implied by an information value: info**(-1/2)."""
    if not (math.isfinite(info) and info > 0.0):
        raise ParameterError(f"information must be finite and > 0, got {info}")
    return info ** -0.5
