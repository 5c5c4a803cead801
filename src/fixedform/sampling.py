"""Uniform random sampling of test forms and hit-ratio estimation.

The estimators draw K independent uniformly random n-item forms and count
how many satisfy a fit predicate; the hit fraction estimates the share of
all C(m, n) forms in that class.

Reproducibility contract: K is split into fixed-size chunks and chunk i is
generated by its own PCG64 stream seeded from SeedSequence((seed, i)). Hit
counts add up commutatively, so the result is identical for any worker
count and any scheduling, and depends only on (bank, n, K, mode, epsilon,
seed).
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FileFormatError, ParameterError
from .irt import Curve, ItemBank, TestForm, form_curves, information_matrix
from .metrics import check_epsilon, fit_batch

__all__ = [
    "MODES",
    "EstimateResult",
    "SweepRow",
    "draw_random_test",
    "estimate_mu",
    "estimate_mu_relative",
    "sweep",
    "write_sweep_csv",
    "read_sweep_csv",
]

MODES = ("absolute", "relative", "exceeding")

# Draws per RNG substream. Fixed: changing it changes which tests a seed
# produces, so it is part of the reproducibility contract, not a tunable.
_CHUNK = 8192

# Curves materialized at once within a chunk; results do not depend on it.
# 256 curves (0.25 MB at 121 nodes) stay in cache while form_curves adds rows.
_SUBBATCH = 256

SWEEP_HEADER = ["n", "mu_A", "se_A", "mu_R", "se_R", "mu_E", "se_E", "K_meeting", "K_exceeding", "seed"]


@dataclass(frozen=True)
class EstimateResult:
    """One hit-ratio estimate with its binomial standard error."""

    n: int
    draws: int
    hits: int
    mu_hat: float
    std_err: float
    mode: str
    epsilon: float | None
    seed: int


@dataclass(frozen=True)
class SweepRow:
    """Per-length estimates for whichever modes a sweep ran."""

    n: int
    seed: int
    absolute: EstimateResult | None = None
    relative: EstimateResult | None = None
    exceeding: EstimateResult | None = None


def draw_random_test(bank: ItemBank, n: int, rng: np.random.Generator) -> TestForm:
    """Draw one test uniformly over all C(m, n) subsets (partial Fisher-Yates)."""
    _check_length(n, bank.m)
    return TestForm.from_ids(_sample_batch(bank.m, n, 1, rng)[0])


def _check_length(n: int, m: int) -> None:
    if n < 1 or n > m:
        raise ParameterError(f"test length must lie in [1, {m}], got {n}")


def _sample_batch(m: int, n: int, size: int, rng: np.random.Generator) -> np.ndarray:
    """Partial Fisher-Yates over the whole batch at once; rows are id sets."""
    # Column d holds draw d's permutation, so row j is contiguous.
    ids = np.repeat(np.arange(m, dtype=np.min_scalar_type(m))[:, None], size, axis=1)
    flat = ids.reshape(-1)
    draws = np.arange(size)
    for j in range(n):
        swap = rng.integers(j, m, size=size) * size + draws
        picked = flat[swap]
        flat[swap] = ids[j]
        ids[j] = picked
    return ids[:n].T


def _estimate(
    bank: ItemBank,
    n: int,
    draws: int,
    seed: int,
    workers: int,
    mode: str,
    target_curve: Curve,
    epsilon: float | None,
) -> EstimateResult:
    info = information_matrix(bank, target_curve.grid)

    def chunk_hits(start: int) -> int:
        rng = np.random.default_rng(np.random.SeedSequence((seed, start // _CHUNK)))
        ids = _sample_batch(bank.m, n, min(_CHUNK, draws - start), rng)
        hits = 0
        for lo in range(0, len(ids), _SUBBATCH):
            curves = form_curves(info, ids[lo : lo + _SUBBATCH])
            hits += int(fit_batch(curves, target_curve, epsilon, (mode,))[mode].sum())
        return hits

    starts = range(0, draws, _CHUNK)
    workers = min(workers, len(starts))
    if workers == 1:
        hits = sum(map(chunk_hits, starts))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            hits = sum(pool.map(chunk_hits, starts))
    mu = hits / draws
    return EstimateResult(
        n=n,
        draws=draws,
        hits=hits,
        mu_hat=mu,
        std_err=math.sqrt(mu * (1.0 - mu) / draws),
        mode=mode,
        epsilon=epsilon,
        seed=seed,
    )


def _validate_common(bank: ItemBank, n: int, draws: int, seed: int, workers: int) -> None:
    _check_length(n, bank.m)
    if draws < 1:
        raise ParameterError(f"draw count must be >= 1, got {draws}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")


def estimate_mu(
    bank: ItemBank,
    n: int,
    draws: int,
    mode: str,
    target_curve: Curve,
    epsilon: float | None = None,
    seed: int = 0,
    workers: int = 1,
) -> EstimateResult:
    """Estimate the fraction of n-item forms that exceed or absolutely meet the target.

    ``mode`` is ``"exceeding"`` (strictly above the target at every node;
    epsilon unused) or ``"absolute"`` (L2 distance below ``epsilon``, which
    is then required). Relative meeting has its own estimator because it
    also scales each drawn form; see :func:`estimate_mu_relative`.
    """
    _validate_common(bank, n, draws, seed, workers)
    if mode == "exceeding":
        epsilon = None
    elif mode == "absolute":
        check_epsilon(epsilon)
    elif mode == "relative":
        raise ParameterError("use estimate_mu_relative for relative meeting")
    else:
        raise ParameterError(f"unknown mode {mode!r}; expected one of {MODES}")
    return _estimate(bank, n, draws, seed, workers, mode, target_curve, epsilon)


def estimate_mu_relative(
    bank: ItemBank,
    n: int,
    draws: int,
    target_curve: Curve,
    epsilon: float,
    seed: int = 0,
    workers: int = 1,
) -> EstimateResult:
    """Estimate the fraction of n-item forms that relatively meet the target.

    Each drawn form is scaled by lambda = target area / form area and
    counts as a hit iff lambda < 1 and the scaled curve fits the target
    within ``epsilon``.
    """
    _validate_common(bank, n, draws, seed, workers)
    check_epsilon(epsilon)
    return _estimate(bank, n, draws, seed, workers, "relative", target_curve, epsilon)


def _subseed(master_seed: int, n: int, mode: str) -> int:
    """Deterministic per-(length, mode) seed derived from the master seed."""
    ss = np.random.SeedSequence((master_seed, n, MODES.index(mode)))
    return int(ss.generate_state(1, np.uint64)[0])


def sweep(
    bank: ItemBank,
    n_values: Sequence[int],
    target_curve: Curve,
    epsilon: float,
    seed: int,
    draws_exceeding: int,
    draws_meeting: int,
    modes: Iterable[str] = MODES,
    workers: int = 1,
) -> list[SweepRow]:
    """Run the selected estimators at every test length in ``n_values``.

    Each (length, mode) pair gets its own derived seed, so adding or
    removing lengths or modes never perturbs the others' estimates.
    """
    if not n_values:
        raise ParameterError("n_values must be nonempty")
    modes = tuple(modes)
    for mode in modes:
        if mode not in MODES:
            raise ParameterError(f"unknown mode {mode!r}; expected one of {MODES}")
    if not modes:
        raise ParameterError("at least one mode is required")
    for n in n_values:
        _check_length(n, bank.m)

    rows = []
    for n in n_values:
        absolute = relative = exceeding = None
        if "absolute" in modes:
            absolute = estimate_mu(
                bank, n, draws_meeting, "absolute", target_curve,
                epsilon=epsilon, seed=_subseed(seed, n, "absolute"), workers=workers,
            )
        if "relative" in modes:
            relative = estimate_mu_relative(
                bank, n, draws_meeting, target_curve, epsilon,
                seed=_subseed(seed, n, "relative"), workers=workers,
            )
        if "exceeding" in modes:
            exceeding = estimate_mu(
                bank, n, draws_exceeding, "exceeding", target_curve,
                seed=_subseed(seed, n, "exceeding"), workers=workers,
            )
        rows.append(SweepRow(n=n, seed=seed, absolute=absolute, relative=relative, exceeding=exceeding))
    return rows


def write_sweep_csv(rows: Sequence[SweepRow], path) -> None:
    """Write sweep results; modes that were not run leave empty cells."""

    def fmt(est: EstimateResult | None, attr: str) -> str:
        return "" if est is None else repr(getattr(est, attr))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            meeting = row.absolute or row.relative
            writer.writerow(
                [
                    row.n,
                    fmt(row.absolute, "mu_hat"),
                    fmt(row.absolute, "std_err"),
                    fmt(row.relative, "mu_hat"),
                    fmt(row.relative, "std_err"),
                    fmt(row.exceeding, "mu_hat"),
                    fmt(row.exceeding, "std_err"),
                    meeting.draws if meeting is not None else "",
                    row.exceeding.draws if row.exceeding is not None else "",
                    row.seed,
                ]
            )


def read_sweep_csv(path) -> list[dict]:
    """Read a sweep CSV back; empty cells become None.

    A row with the wrong cell count or a bad cell raises FileFormatError.
    """
    out: list[dict] = []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != SWEEP_HEADER:
            raise ParameterError(f"not a sweep CSV: header is {header}")
        for row in reader:
            if not row:
                continue
            try:
                if len(row) != len(SWEEP_HEADER):
                    raise ValueError(f"{len(row)} cells, expected {len(SWEEP_HEADER)}")
                record: dict = {"n": int(row[0]), "seed": int(row[9])}
                for key, cell in zip(SWEEP_HEADER[1:9], row[1:9]):
                    if cell == "":
                        record[key] = None
                    elif key.startswith("K_"):
                        record[key] = int(cell)
                    else:
                        record[key] = float(cell)
            except ValueError as exc:
                raise FileFormatError(f"{path}, line {reader.line_num}: {exc}") from None
            out.append(record)
    return out
