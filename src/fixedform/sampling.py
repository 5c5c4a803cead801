"""Uniform random sampling of test forms and hit-ratio estimation.

The estimators draw K independent uniformly random n-item forms and count
how many satisfy a fit predicate; the hit fraction estimates the share of
all C(m, n) forms in that class.

Reproducibility contract: forms are drawn in whole chunks of 8192, and
chunk i is generated by its own PCG64 stream seeded from
SeedSequence((seed, i)). A class estimated from K draws counts its hits
on the first K forms of chunks 0, 1, ...; the last chunk is drawn whole
even when K stops inside it, so a seed's sequence of forms is the same
whatever K is. Hit counts add up commutatively, so the result is
identical for any worker count and any scheduling, and depends only on
(bank, n, K, mode, epsilon, seed). A sweep derives one seed per length
from SeedSequence((master seed, n)), draws that length's chunks once and
counts every requested class on them, each on its own first K forms;
``estimate_mu`` is the one-length, one-class case of that path.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import FileFormatError, ParameterError
from .files import read_csv, write_csv
from .irt import Curve, ItemBank, TestForm, check_length, information_matrix
from .metrics import MODES, check_epsilon, check_modes, count_hits

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

# Draws per RNG substream. Fixed: changing it changes which tests a seed
# produces, so it is part of the reproducibility contract, not a tunable.
_CHUNK = 8192

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
    check_length(n, bank.m)
    return TestForm.from_ids(_sample_batch(bank.m, n, 1, rng)[0])


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


def _check_request(bank: ItemBank, lengths: Sequence[int], draws_by_mode: dict[str, int],
                   epsilon: float | None, seed: int, workers: int) -> None:
    """Refuse a bad estimation request before any work: the one check of every entry point."""
    if not lengths:
        raise ParameterError("n_values must be nonempty")
    # One by one, so a range far past the bank stops at m + 1 without being materialized.
    for n in lengths:
        check_length(n, bank.m)
    if len(set(lengths)) < len(lengths):
        raise ParameterError(f"test lengths must not repeat, got {list(lengths)}")
    for draws in draws_by_mode.values():
        if draws < 1:
            raise ParameterError(f"draw count must be >= 1, got {draws}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    if workers < 1:
        raise ParameterError(f"worker count must be >= 1, got {workers}")
    if check_modes(draws_by_mode) != ("exceeding",):
        check_epsilon(epsilon)


def _chunk_count(draws: int) -> int:
    return -(-draws // _CHUNK)


def _usable_cpus() -> int | None:
    """The CPUs this process may run on: its affinity set where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def _pool_threads(workers: int, draws: int) -> int:
    """Threads that estimating ``draws`` forms per length runs on: min(workers, its chunks, usable CPUs)."""
    # pool.map submits every chunk at once: threads past the CPUs only hold chunk buffers.
    return min(workers, _chunk_count(draws), _usable_cpus() or 1)


@contextmanager
def _pool(threads: int):
    """A pool of ``threads`` threads, or None where that is one."""
    if threads == 1:
        yield None
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            yield pool


def _length_hits(
    info: np.ndarray,
    n: int,
    draws_by_mode: dict[str, int],
    target_curve: Curve,
    epsilon: float | None,
    seed: int,
    pool: ThreadPoolExecutor | None,
) -> dict[str, int]:
    """Hits of each mode among the first ``draws_by_mode[mode]`` n-item forms of ``seed``'s chunks.

    Chunk i is always drawn whole from SeedSequence((seed, i)), whatever the
    modes and draw counts. Each segment of a chunk is counted, in one
    ``count_hits`` call, for every mode whose draws cover it.
    """
    m = info.shape[0]

    def chunk_hits(i: int) -> dict[str, int]:
        rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
        ids = _sample_batch(m, n, _CHUNK, rng)
        # Rows of this chunk each mode counts; the cuts split it where a mode stops.
        rows = {mode: min(max(draws - i * _CHUNK, 0), _CHUNK) for mode, draws in draws_by_mode.items()}
        cuts = sorted({0, *rows.values()})
        hits = dict.fromkeys(draws_by_mode, 0)
        for lo, hi in zip(cuts, cuts[1:]):
            modes = tuple(mode for mode in draws_by_mode if rows[mode] >= hi)
            for mode, count in count_hits(info, ids[lo:hi], target_curve, epsilon, modes).items():
                hits[mode] += count
        return hits

    chunks = range(_chunk_count(max(draws_by_mode.values())))
    hits = dict.fromkeys(draws_by_mode, 0)
    for chunk in (map if pool is None else pool.map)(chunk_hits, chunks):
        for mode, count in chunk.items():
            hits[mode] += count
    return hits


def _estimates(bank: ItemBank, seeds: dict[int, int], draws_by_mode: dict[str, int], target_curve: Curve,
               epsilon: float | None, workers: int) -> dict[int, dict[str, EstimateResult]]:
    """Each mode's estimate at each length n, on ``seeds[n]``'s chunks: the driver of both entry points."""
    info = information_matrix(bank, target_curve.grid)
    out = {}
    with _pool(_pool_threads(workers, max(draws_by_mode.values()))) as pool:
        for n, seed in seeds.items():
            hits = _length_hits(info, n, draws_by_mode, target_curve, epsilon, seed, pool)
            out[n] = {}
            for mode, draws in draws_by_mode.items():
                mu = hits[mode] / draws
                out[n][mode] = EstimateResult(
                    n=n, draws=draws, hits=hits[mode], mode=mode, seed=seed,
                    mu_hat=mu, std_err=math.sqrt(mu * (1.0 - mu) / draws),
                    epsilon=None if mode == "exceeding" else epsilon,
                )
    return out


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
    """Estimate the fraction of n-item forms in one adequacy class.

    ``mode`` is ``"exceeding"`` (strictly above the target at every node;
    epsilon unused), ``"absolute"`` (L2 distance below ``epsilon``) or
    ``"relative"`` (the form scaled by lambda = target area / form area has
    lambda < 1 and fits the target within ``epsilon``); the meeting modes
    require ``epsilon``. This is the one-length case of ``sweep``'s path,
    counted on ``seed``'s own chunks.
    """
    _check_request(bank, (n,), {mode: draws}, epsilon, seed, workers)
    return _estimates(bank, {n: seed}, {mode: draws}, target_curve, epsilon, workers)[n][mode]


def estimate_mu_relative(
    bank: ItemBank,
    n: int,
    draws: int,
    target_curve: Curve,
    epsilon: float,
    seed: int = 0,
    workers: int = 1,
) -> EstimateResult:
    """``estimate_mu`` in ``"relative"`` mode."""
    return estimate_mu(bank, n, draws, "relative", target_curve, epsilon, seed, workers)


def _subseed(master_seed: int, n: int) -> int:
    """Deterministic per-length seed derived from the master seed."""
    return int(np.random.SeedSequence((master_seed, n)).generate_state(1, np.uint64)[0])


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

    Each length gets its own derived seed, and its forms are drawn once and
    counted for every selected mode, each mode on the first
    ``draws_exceeding`` or ``draws_meeting`` of them. A mode's estimate at
    a length is the ``estimate_mu`` estimate at that seed, so adding or
    removing lengths or modes never perturbs the others' estimates. Every
    argument is checked before the first estimate runs; the information
    matrix and the thread pool are built once per sweep.
    """
    draws = {mode: draws_exceeding if mode == "exceeding" else draws_meeting for mode in modes}
    _check_request(bank, n_values, draws, epsilon, seed, workers)
    seeds = {n: _subseed(seed, n) for n in n_values}
    cells = _estimates(bank, seeds, draws, target_curve, epsilon, workers)
    return [SweepRow(n=n, seed=seed, **estimates) for n, estimates in cells.items()]


def write_sweep_csv(rows: Iterable[SweepRow], path) -> None:
    """Write sweep results; modes that were not run leave empty cells."""

    def fmt(est: EstimateResult | None, attr: str) -> str:
        return "" if est is None else repr(getattr(est, attr))

    def cells(row: SweepRow) -> list:
        meeting = row.absolute or row.relative
        return [
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

    write_csv(path, SWEEP_HEADER, map(cells, rows))


def read_sweep_csv(path) -> list[dict]:
    """Read a sweep CSV back; empty cells become None.

    A missing or wrong header, a row with the wrong cell count, a bad cell
    or a repeated length raises FileFormatError.
    """
    out: list[dict] = []
    lines: dict[int, int] = {}
    for line_no, row in read_csv(path, SWEEP_HEADER, "sweep CSV"):
        try:
            if len(row) != len(SWEEP_HEADER):
                raise ValueError(f"{len(row)} cells, expected {len(SWEEP_HEADER)}")
            record: dict = {"n": int(row[0]), "seed": int(row[9])}
            for key, cell in zip(SWEEP_HEADER[1:9], row[1:9]):
                record[key] = None if cell == "" else int(cell) if key.startswith("K_") else float(cell)
            if record["n"] in lines:
                raise ValueError(f"length n={record['n']} repeats line {lines[record['n']]}")
        except ValueError as exc:
            raise FileFormatError(f"{path}, line {line_no}: {exc}") from None
        lines[record["n"]] = line_no
        out.append(record)
    return out
