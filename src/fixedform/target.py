"""Polynomial target information functions.

A target specifies, per ability level, how much information an assembled
test must provide (equivalently, the ceiling on its standard error). Targets
are polynomials here; the built-in ``lsat`` target is the classic LSAT-style
degree-6 assembly target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TargetDomainError
from .irt import AbilityGrid, Curve

__all__ = [
    "TargetSpec",
    "LSAT_COEFFS_DESCENDING",
    "builtin_lsat_target",
    "eval_target",
    "tabulate_target",
    "parse_target",
]

# Degree-descending, the way the polynomial is usually written out.
LSAT_COEFFS_DESCENDING: tuple[float, ...] = (
    0.0046,
    0.0303,
    0.0093,
    -0.6154,
    -1.6408,
    3.5254,
    13.328,
)


@dataclass(frozen=True)
class TargetSpec:
    """Polynomial target; ``coefficients[k]`` multiplies theta**k."""

    coefficients: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coefficients", tuple(float(c) for c in self.coefficients))
        if len(self.coefficients) < 1:
            raise ParameterError("a target needs at least one coefficient")
        if not all(math.isfinite(c) for c in self.coefficients):
            raise ParameterError("target coefficients must be finite")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1


def builtin_lsat_target() -> TargetSpec:
    """The built-in LSAT-style target polynomial."""
    return TargetSpec(tuple(reversed(LSAT_COEFFS_DESCENDING)))


def eval_target(spec: TargetSpec, theta):
    """Evaluate the target polynomial (Horner form); accepts arrays."""
    theta = np.asarray(theta, dtype=np.float64)
    result = np.full_like(theta, spec.coefficients[-1])
    # An overflow gives inf or nan, which Curve rejects as non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        for coeff in reversed(spec.coefficients[:-1]):
            result = result * theta + coeff
    return float(result) if result.ndim == 0 else result


def tabulate_target(spec: TargetSpec, grid: AbilityGrid) -> Curve:
    """Tabulate the target on a grid; it must be strictly positive there."""
    values = eval_target(spec, grid.nodes)
    if np.any(values <= 0.0):
        k = int(np.argmin(values))
        raise TargetDomainError(
            f"target is not positive at theta={grid.node(k)} (value {values[k]}); "
            "an information target must be > 0 everywhere"
        )
    return Curve(grid, values)


def parse_target(text: str) -> TargetSpec:
    """Parse a CLI/config target: ``lsat`` or comma-separated descending coefficients."""
    text = text.strip()
    if text.lower() == "lsat":
        return builtin_lsat_target()
    try:
        descending = [float(part) for part in text.split(",")]
    except ValueError as exc:
        raise ParameterError(f"cannot parse target {text!r}: {exc}") from None
    return TargetSpec(tuple(reversed(descending)))
