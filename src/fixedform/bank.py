"""Synthetic item-bank generation and CSV persistence.

Generation is reproducible by construction: parameters are drawn from
numpy's PCG64 seeded with ``BankGenSpec.seed``, discriminations first (one
block of m uniforms), then difficulties (a second block). The same seed therefore
always yields the same bank, byte for byte after save.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BankFormatError, ParameterError
from .files import read_csv, replacing
from .irt import ItemBank, ItemParams

__all__ = ["BankGenSpec", "generate_bank", "save_bank", "load_bank"]

_HEADER = ["id", "a", "b", "c"]


@dataclass(frozen=True)
class BankGenSpec:
    """Recipe for a synthetic bank: uniform a and b, fixed c."""

    m: int = 300
    a_range: tuple[float, float] = (1.0, 3.0)
    b_range: tuple[float, float] = (-3.0, 3.0)
    c_fixed: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ParameterError(f"bank size must be >= 1, got {self.m}")
        a_lo, a_hi = self.a_range
        b_lo, b_hi = self.b_range
        if not (math.isfinite(a_lo) and math.isfinite(a_hi) and 0.0 < a_lo <= a_hi):
            raise ParameterError(f"discrimination range must satisfy 0 < lo <= hi, got {self.a_range}")
        if not (math.isfinite(b_lo) and math.isfinite(b_hi) and b_lo <= b_hi):
            raise ParameterError(f"difficulty range must satisfy lo <= hi, got {self.b_range}")
        if not (math.isfinite(self.c_fixed) and 0.0 <= self.c_fixed < 1.0):
            raise ParameterError(f"guessing probability must lie in [0, 1), got {self.c_fixed}")
        if self.seed < 0:
            raise ParameterError(f"seed must be non-negative, got {self.seed}")


def generate_bank(spec: BankGenSpec) -> ItemBank:
    """Draw a bank with the requested shape; deterministic for a fixed seed."""
    rng = np.random.default_rng(np.random.SeedSequence(spec.seed))
    a = rng.uniform(spec.a_range[0], spec.a_range[1], spec.m)
    b = rng.uniform(spec.b_range[0], spec.b_range[1], spec.m)
    return ItemBank(tuple(ItemParams(x, y, spec.c_fixed) for x, y in zip(a.tolist(), b.tolist())))


def save_bank(bank: ItemBank, path) -> None:
    """Write a bank as CSV (header ``id,a,b,c``), 17 significant digits.

    17 digits round-trip any double exactly, so load(save(bank)) == bank.
    The file is formatted as one string: no field, an int or a float's
    repr, needs quoting, so it is ``csv.writer``'s output byte for byte at
    a fraction of its cost.
    """
    lines = [",".join(_HEADER), *(f"{i},{item.a!r},{item.b!r},{item.c!r}" for i, item in enumerate(bank.items))]
    with replacing(path) as (fh,):
        fh.write("\n".join(lines) + "\n")


def load_bank(path) -> ItemBank:
    """Read a bank CSV, validating ids and parameter invariants.

    Errors name the file and the line of the first offending row.
    """
    items: list[ItemParams] = []
    for line_no, row in read_csv(path, _HEADER, "bank CSV", BankFormatError):
        try:
            if len(row) != 4:
                raise ValueError(f"expected 4 fields, got {len(row)}")
            item_id = int(row[0])
            a, b, c = (float(x) for x in row[1:])
            if item_id != len(items):
                raise ValueError(f"expected id {len(items)} (ids must be contiguous from 0), got {item_id}")
            items.append(ItemParams(a, b, c))
        except ValueError as exc:
            raise BankFormatError(f"{path}, line {line_no}: {exc}") from None
    if not items:
        raise BankFormatError(f"{path}: bank file contains no items")
    return ItemBank(tuple(items))
