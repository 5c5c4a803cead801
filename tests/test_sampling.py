import math

import numpy as np
import pytest

import fixedform
from fixedform import (
    DEFAULT_EPSILON,
    MODES,
    BankGenSpec,
    Curve,
    ParameterError,
    draw_random_test,
    enumerate_exact,
    estimate_mu,
    estimate_mu_relative,
    fit_batch,
    form_curves,
    generate_bank,
    information_matrix,
    read_sweep_csv,
    sweep,
    write_sweep_csv,
)
from fixedform import sampling
from fixedform.errors import FileFormatError
from fixedform.sampling import _CHUNK, SWEEP_HEADER, _sample_batch


class TestDrawRandomTest:
    def test_basic_properties(self, bank12):
        rng = np.random.default_rng(0)
        form = draw_random_test(bank12, 4, rng)
        assert len(form.item_ids) == 4
        assert all(0 <= i < bank12.m for i in form.item_ids)
        assert list(form.item_ids) == sorted(set(form.item_ids))

    def test_full_bank_draw(self, bank12):
        rng = np.random.default_rng(0)
        form = draw_random_test(bank12, bank12.m, rng)
        assert form.item_ids == tuple(range(bank12.m))

    @pytest.mark.parametrize("n", [0, -1, 13])
    def test_bad_lengths_rejected(self, bank12, n):
        with pytest.raises(ParameterError):
            draw_random_test(bank12, n, np.random.default_rng(0))

    def test_deterministic_for_a_seeded_rng(self, bank12):
        one = draw_random_test(bank12, 5, np.random.default_rng(42))
        two = draw_random_test(bank12, 5, np.random.default_rng(42))
        assert one == two

    def test_inclusion_frequencies_are_uniform(self, bank12):
        # Every item should be included with probability n/m = 1/3.
        rng = np.random.default_rng(7)
        counts = np.zeros(bank12.m)
        draws = 3000
        for _ in range(draws):
            for i in draw_random_test(bank12, 4, rng).item_ids:
                counts[i] += 1
        freq = counts / draws
        assert np.all(np.abs(freq - 1.0 / 3.0) < 0.05)


def swap_loop_draw(m, n, rng):
    """One partial Fisher-Yates draw, one swap at a time."""
    ids = np.arange(m)
    for j in range(n):
        r = int(rng.integers(j, m))
        ids[j], ids[r] = ids[r], ids[j]
    return ids[:n]


class TestSampleBatch:
    def test_single_draws_match_the_swap_loop(self):
        bank50 = generate_bank(BankGenSpec(m=50, seed=1))
        for seed in range(200):
            for n in (1, 7, 50):
                expected = sorted(swap_loop_draw(50, n, np.random.default_rng(seed)))
                form = draw_random_test(bank50, n, np.random.default_rng(seed))
                assert list(form.item_ids) == expected

    @pytest.mark.parametrize("m,n,size", [(12, 4, 1), (50, 50, 37), (300, 65, 500)])
    def test_batch_rows_match_sequential_swap_loops(self, m, n, size):
        # The batch consumes one integer per (step, draw), step by step, so
        # draw d's swaps come from every size-th integer of the stream.
        batch = _sample_batch(m, n, size, np.random.default_rng(5))
        rng = np.random.default_rng(5)
        steps = [rng.integers(j, m, size=size) for j in range(n)]
        for d in range(size):
            ids = np.arange(m)
            for j, r in enumerate(steps):
                ids[j], ids[r[d]] = ids[r[d]], ids[j]
            assert batch[d].tolist() == ids[:n].tolist()


class RecordingPool:
    """Stands in for ThreadPoolExecutor: records its size, runs jobs inline."""

    sizes: list = []

    def __init__(self, max_workers):
        RecordingPool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return [fn(item) for item in items]


@pytest.fixture()
def pool_sizes(monkeypatch):
    RecordingPool.sizes = []
    monkeypatch.setattr(sampling, "ThreadPoolExecutor", RecordingPool)
    return RecordingPool.sizes


class TestWorkers:
    @pytest.mark.parametrize("workers", [0, -3])
    def test_counts_below_one_are_refused_before_any_pool(
        self, bank12, scaled_curve_12, pool_sizes, workers
    ):
        with pytest.raises(ParameterError, match="worker count"):
            estimate_mu(bank12, 4, 3 * _CHUNK, "exceeding", scaled_curve_12, workers=workers)
        with pytest.raises(ParameterError, match="worker count"):
            estimate_mu_relative(bank12, 4, 3 * _CHUNK, scaled_curve_12, 1.0, workers=workers)
        with pytest.raises(ParameterError, match="worker count"):
            sweep(bank12, [4], scaled_curve_12, 1.0, 0, 3 * _CHUNK, 3 * _CHUNK, workers=workers)
        assert pool_sizes == []

    def test_pool_is_capped_at_the_chunk_count(self, bank12, scaled_curve_12, pool_sizes, monkeypatch):
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: 64)
        serial = estimate_mu(bank12, 4, 2 * _CHUNK + 5, "exceeding", scaled_curve_12, seed=4)
        assert pool_sizes == []
        capped = estimate_mu(bank12, 4, 2 * _CHUNK + 5, "exceeding", scaled_curve_12,
                             seed=4, workers=64)
        estimate_mu(bank12, 4, 2 * _CHUNK + 5, "exceeding", scaled_curve_12, seed=4, workers=2)
        estimate_mu(bank12, 4, 100, "exceeding", scaled_curve_12, seed=4, workers=64)
        assert pool_sizes == [3, 2]
        assert capped == serial
        # A sweep opens at most one pool for all its lengths, capped at one length's chunks.
        args = (bank12, [3, 4, 5], scaled_curve_12, 1.0, 4, 2 * _CHUNK + 5, 100)
        serial_rows = sweep(*args)
        assert pool_sizes == [3, 2]
        assert sweep(*args, workers=64) == serial_rows
        assert pool_sizes == [3, 2, 3]

    @pytest.mark.parametrize("cpus, sizes", [(2, [2, 2]), (1, []), (None, [])])
    def test_pool_is_capped_at_the_cpu_count(
        self, bank12, scaled_curve_12, pool_sizes, monkeypatch, cpus, sizes
    ):
        # 1,221 chunks at 64 workers: without the cap, a thread per worker.
        monkeypatch.setattr(sampling, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sampling, "_length_hits", lambda info, n, draws_by_mode, *args:
                            dict.fromkeys(draws_by_mode, 0))
        estimate_mu(bank12, 4, 10**7, "exceeding", scaled_curve_12, workers=64)
        sweep(bank12, [3, 4], scaled_curve_12, 1.0, 0, 10**7, 10**7, workers=64)
        assert pool_sizes == sizes

    def test_usable_cpus_are_the_affinity_set_where_there_is_one(self, monkeypatch):
        # Under `taskset -c 0` on a 2-CPU machine the CPU count is 2 but the process may use 1.
        monkeypatch.setattr(sampling.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(sampling.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert sampling._usable_cpus() == 1
        monkeypatch.delattr(sampling.os, "sched_getaffinity")
        assert sampling._usable_cpus() == 2


class TestEstimateValidation:
    def test_relative_mode_matches_the_relative_wrapper(self, bank12, scaled_curve_12):
        via_mode = estimate_mu(bank12, 4, 3000, "relative", scaled_curve_12, epsilon=1.0, seed=5)
        assert via_mode == estimate_mu_relative(bank12, 4, 3000, scaled_curve_12, 1.0, seed=5)
        assert via_mode.mode == "relative" and via_mode.hits > 0

    def test_relative_mode_requires_epsilon(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="epsilon"):
            estimate_mu(bank12, 4, 100, "relative", scaled_curve_12)

    def test_unknown_mode(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="unknown mode"):
            estimate_mu(bank12, 4, 100, "between", scaled_curve_12)

    def test_absolute_requires_epsilon(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="epsilon"):
            estimate_mu(bank12, 4, 100, "absolute", scaled_curve_12)

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_bad_epsilon(self, bank12, scaled_curve_12, eps):
        with pytest.raises(ParameterError):
            estimate_mu(bank12, 4, 100, "absolute", scaled_curve_12, epsilon=eps)
        with pytest.raises(ParameterError):
            estimate_mu_relative(bank12, 4, 100, scaled_curve_12, eps)

    def test_bad_draws_and_seed(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="draw count"):
            estimate_mu(bank12, 4, 0, "exceeding", scaled_curve_12)
        with pytest.raises(ParameterError, match="seed"):
            estimate_mu(bank12, 4, 100, "exceeding", scaled_curve_12, seed=-1)

    def test_bad_length(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="test length"):
            estimate_mu(bank12, 13, 100, "exceeding", scaled_curve_12)


@pytest.fixture(scope="module")
def exact(bank12, scaled_curve_12):
    return enumerate_exact(bank12, 4, scaled_curve_12, DEFAULT_EPSILON)


class TestEstimateAgainstEnumeration:
    """Sampling estimates must agree with exhaustive enumeration.

    The two routes share nothing but the fit predicates: one walks all
    C(12, 4) = 495 subsets, the other draws 20,000 random forms. The
    estimates are deterministic for a fixed seed, so these checks are
    stable, and a biased sampler or broken classifier would push the
    estimate many standard errors away from the exact ratio.
    """

    K = 20_000

    def test_exceeding_matches(self, bank12, scaled_curve_12, exact):
        est = estimate_mu(bank12, 4, self.K, "exceeding", scaled_curve_12, seed=1)
        p = exact.exceeding / exact.total
        assert abs(est.mu_hat - p) < 4.0 * math.sqrt(p * (1.0 - p) / self.K)

    def test_absolute_matches(self, bank12, scaled_curve_12, exact):
        est = estimate_mu(
            bank12, 4, self.K, "absolute", scaled_curve_12, epsilon=DEFAULT_EPSILON, seed=1
        )
        p = exact.absolute / exact.total
        assert abs(est.mu_hat - p) < 4.0 * math.sqrt(p * (1.0 - p) / self.K)

    def test_relative_matches(self, bank12, scaled_curve_12, exact):
        est = estimate_mu_relative(
            bank12, 4, self.K, scaled_curve_12, DEFAULT_EPSILON, seed=1
        )
        p = exact.relative / exact.total
        assert abs(est.mu_hat - p) < 4.0 * math.sqrt(p * (1.0 - p) / self.K)


class TestEstimateDeterminism:
    def test_chunk_size_is_pinned(self):
        # Changing the chunk size changes which forms a seed generates;
        # it is part of the reproducibility contract.
        assert _CHUNK == 8192

    def test_workers_do_not_change_the_result(self, bank12, scaled_curve_12):
        draws = 2 * _CHUNK + 137  # spans three substreams, last one partial
        results = [
            estimate_mu(
                bank12, 5, draws, "exceeding", scaled_curve_12, seed=3, workers=w
            )
            for w in (1, 3, 8)
        ]
        assert results[0] == results[1] == results[2]

    def test_same_seed_same_result(self, bank12, scaled_curve_12):
        kwargs = dict(epsilon=DEFAULT_EPSILON, seed=5)
        one = estimate_mu(bank12, 4, 4000, "absolute", scaled_curve_12, **kwargs)
        two = estimate_mu(bank12, 4, 4000, "absolute", scaled_curve_12, **kwargs)
        assert one == two

    def test_different_seeds_differ(self, bank12, scaled_curve_12):
        one = estimate_mu(bank12, 4, 20_000, "absolute", scaled_curve_12,
                          epsilon=DEFAULT_EPSILON, seed=5)
        two = estimate_mu(bank12, 4, 20_000, "absolute", scaled_curve_12,
                          epsilon=DEFAULT_EPSILON, seed=6)
        assert one.hits != two.hits

    def test_std_err_is_binomial(self, bank12, scaled_curve_12):
        est = estimate_mu(bank12, 4, 4000, "exceeding", scaled_curve_12, seed=2)
        assert est.mu_hat == est.hits / est.draws
        assert est.std_err == math.sqrt(est.mu_hat * (1.0 - est.mu_hat) / est.draws)

    def test_sure_hits_and_sure_misses(self, bank12, grid):
        # Any form's information is strictly positive, so it exceeds a zero
        # target; nothing lands inside a vanishingly small absolute band.
        zero_target = Curve(grid, np.zeros(grid.num_points))
        sure = estimate_mu(bank12, 4, 500, "exceeding", zero_target, seed=0)
        assert sure.mu_hat == 1.0
        assert sure.std_err == 0.0
        none = estimate_mu(
            bank12, 4, 500, "absolute", zero_target, epsilon=1e-12, seed=0
        )
        assert none.mu_hat == 0.0


class TestSweep:
    def test_rows_cover_requested_lengths(self, bank12, scaled_curve_12):
        rows = sweep(bank12, [3, 4], scaled_curve_12, DEFAULT_EPSILON, seed=9,
                     draws_exceeding=600, draws_meeting=400)
        assert [r.n for r in rows] == [3, 4]
        for row in rows:
            assert row.absolute.draws == 400
            assert row.relative.draws == 400
            assert row.exceeding.draws == 600
            assert row.seed == 9

    def test_each_length_and_mode_has_an_independent_substream(
        self, bank12, scaled_curve_12
    ):
        # Running a subset of lengths reproduces the full sweep's rows, so
        # partial sweeps can be compared across runs.
        full = sweep(bank12, [4, 6], scaled_curve_12, DEFAULT_EPSILON, seed=9,
                     draws_exceeding=600, draws_meeting=400)
        just_six = sweep(bank12, [6], scaled_curve_12, DEFAULT_EPSILON, seed=9,
                         draws_exceeding=600, draws_meeting=400)
        assert full[1] == just_six[0]

    def test_mode_subsets_match_the_full_sweep(self, bank12, scaled_curve_12):
        full = sweep(bank12, [4], scaled_curve_12, DEFAULT_EPSILON, seed=9,
                     draws_exceeding=600, draws_meeting=400)
        only_abs = sweep(bank12, [4], scaled_curve_12, DEFAULT_EPSILON, seed=9,
                         draws_exceeding=600, draws_meeting=400,
                         modes=("absolute",))
        assert only_abs[0].absolute == full[0].absolute
        assert only_abs[0].relative is None
        assert only_abs[0].exceeding is None

    def test_validation(self, bank12, scaled_curve_12):
        with pytest.raises(ParameterError, match="nonempty"):
            sweep(bank12, [], scaled_curve_12, 1.0, 0, 100, 100)
        with pytest.raises(ParameterError, match="unknown mode"):
            sweep(bank12, [4], scaled_curve_12, 1.0, 0, 100, 100, modes=("best",))
        with pytest.raises(ParameterError, match="at least one mode"):
            sweep(bank12, [4], scaled_curve_12, 1.0, 0, 100, 100, modes=())
        with pytest.raises(ParameterError, match="test length"):
            sweep(bank12, [99], scaled_curve_12, 1.0, 0, 100, 100)
        with pytest.raises(ParameterError, match="must not repeat"):
            sweep(bank12, [3, 3], scaled_curve_12, 1.0, 0, 100, 100)


    @pytest.mark.parametrize("bad, mode, match", [
        pytest.param(dict(seed=-1), "exceeding", "seed must be non-negative", id="seed"),
        pytest.param(dict(draws_exceeding=0), "exceeding", "draw count", id="draws_exceeding"),
        pytest.param(dict(draws_meeting=0, modes=("exceeding", "absolute")), "absolute", "draw count",
                     id="draws_meeting"),
        pytest.param(dict(epsilon=None, modes=("exceeding", "absolute")), "absolute", "epsilon",
                     id="epsilon_none"),
        pytest.param(dict(epsilon=math.nan, modes=("relative",)), "relative", "epsilon", id="epsilon_nan"),
        pytest.param(dict(workers=0), "exceeding", "worker count", id="workers"),
        # Checked length by length: the range is never materialized.
        pytest.param(dict(n_values=range(1, 10**12)), "exceeding", r"test length must lie in \[1, 12\]",
                     id="huge_range"),
    ])
    def test_every_argument_is_checked_before_any_estimate(
        self, bank12, scaled_curve_12, monkeypatch, bad, mode, match
    ):
        started = []

        def length_hits(info, n, draws_by_mode, *args):
            started.append(n)
            return dict.fromkeys(draws_by_mode, 0)

        monkeypatch.setattr(sampling, "_length_hits", length_hits)
        args = dict(n_values=[3, 4], epsilon=1.0, seed=0, draws_exceeding=100, draws_meeting=100,
                    modes=MODES, workers=1)
        bad_args = {**args, **bad}
        with pytest.raises(ParameterError, match=match):
            sweep(bank12, target_curve=scaled_curve_12, **bad_args)
        # estimate_mu takes the same path: the same message for the mode the bad argument reaches.
        draws = bad_args["draws_exceeding" if mode == "exceeding" else "draws_meeting"]
        with pytest.raises(ParameterError, match=match):
            estimate_mu(bank12, bad_args["n_values"][-1], draws, mode, scaled_curve_12,
                        bad_args["epsilon"], bad_args["seed"], bad_args["workers"])
        assert started == []
        # The stand-in does record: valid arguments count every mode once per length.
        sweep(bank12, target_curve=scaled_curve_12, **args)
        assert started == [3, 4]


class TestSharedDraws:
    """A sweep draws each length's chunks once and counts every mode on them.

    Each mode counts its hits on the first K_mode draws of whole 8192-draw
    chunks, so a mode's cells depend on (bank, n, target, epsilon, K_mode,
    seed) alone: not on the other modes, the other lengths or the workers.
    """

    K_MEETING = _CHUNK + 137  # one whole chunk and a prefix of the next
    K_EXCEEDING = 3 * _CHUNK
    LENGTHS = [3, 4, 5]

    def run(self, bank12, scaled_curve_12, lengths=None, modes=MODES, **kw):
        kw = dict(dict(draws_exceeding=self.K_EXCEEDING, draws_meeting=self.K_MEETING), **kw)
        return sweep(bank12, lengths or self.LENGTHS, scaled_curve_12, DEFAULT_EPSILON,
                     seed=13, modes=modes, **kw)

    @pytest.fixture()
    def full(self, bank12, scaled_curve_12):
        return self.run(bank12, scaled_curve_12)

    @pytest.mark.parametrize("lengths", [[4], [5, 3], [3]])
    @pytest.mark.parametrize("modes", [("absolute",), ("relative",), ("exceeding",),
                                       ("absolute", "exceeding"), MODES])
    def test_partial_sweeps_reproduce_the_full_sweeps_cells(
        self, bank12, scaled_curve_12, full, lengths, modes
    ):
        by_n = {row.n: row for row in full}
        for row in self.run(bank12, scaled_curve_12, lengths, modes):
            for mode in MODES:
                expected = getattr(by_n[row.n], mode) if mode in modes else None
                assert getattr(row, mode) == expected

    def test_a_modes_cells_do_not_depend_on_the_other_modes_draws(
        self, bank12, scaled_curve_12, full
    ):
        fewer_meeting = self.run(bank12, scaled_curve_12, draws_meeting=50)
        more_meeting = self.run(bank12, scaled_curve_12, draws_meeting=4 * _CHUNK)
        shorter = self.run(bank12, scaled_curve_12, draws_exceeding=7)
        for rows in zip(full, fewer_meeting, more_meeting, shorter):
            assert rows[0].exceeding == rows[1].exceeding == rows[2].exceeding
            assert rows[0].absolute == rows[3].absolute and rows[0].relative == rows[3].relative
            assert rows[1].absolute.draws == 50 and rows[3].exceeding.draws == 7

    def test_a_cell_is_estimate_mu_at_the_lengths_seed(self, bank12, scaled_curve_12, full):
        for row in full:
            for mode in MODES:
                cell = getattr(row, mode)
                assert cell == estimate_mu(bank12, row.n, cell.draws, mode, scaled_curve_12,
                                           epsilon=DEFAULT_EPSILON, seed=cell.seed)

    def test_worker_counts_give_identical_rows(self, bank12, scaled_curve_12, full):
        for workers in (3, 8):
            assert self.run(bank12, scaled_curve_12, workers=workers) == full

    def test_hits_match_an_unscreened_recount_of_the_regenerated_chunks(
        self, bank12, scaled_curve_12, full
    ):
        info = information_matrix(bank12, scaled_curve_12.grid)
        for row in full:
            # The length's subseed, then whole chunks from SeedSequence((subseed, i)).
            subseed = int(np.random.SeedSequence((13, row.n)).generate_state(1, np.uint64)[0])
            rngs = (np.random.default_rng(np.random.SeedSequence((subseed, i))) for i in range(3))
            forms = np.concatenate([_sample_batch(bank12.m, row.n, _CHUNK, rng) for rng in rngs])
            for mode in MODES:
                cell = getattr(row, mode)
                fit = fit_batch(form_curves(info, forms[: cell.draws]), scaled_curve_12,
                                DEFAULT_EPSILON, (mode,))
                assert cell.seed == subseed
                assert cell.hits == int(fit[mode].sum()) > 0

    def test_the_information_matrix_is_built_once(self, bank12, scaled_curve_12, monkeypatch):
        built = []

        def information(bank, grid):
            built.append(bank)
            return information_matrix(bank, grid)

        monkeypatch.setattr(sampling, "information_matrix", information)
        self.run(bank12, scaled_curve_12, workers=2)
        assert built == [bank12]


class TestSweepCSV:
    @pytest.fixture()
    def rows(self, bank12, scaled_curve_12):
        return sweep(bank12, [3, 4], scaled_curve_12, DEFAULT_EPSILON, seed=9,
                     draws_exceeding=600, draws_meeting=400)

    def test_header_is_exact(self, rows, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        first = path.read_text().splitlines()[0]
        assert first == ",".join(SWEEP_HEADER)

    def test_round_trip_is_exact(self, rows, tmp_path):
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        records = read_sweep_csv(path)
        assert len(records) == len(rows)
        for record, row in zip(records, rows):
            assert record["n"] == row.n
            assert record["seed"] == row.seed
            assert record["mu_A"] == row.absolute.mu_hat
            assert record["se_A"] == row.absolute.std_err
            assert record["mu_R"] == row.relative.mu_hat
            assert record["se_R"] == row.relative.std_err
            assert record["mu_E"] == row.exceeding.mu_hat
            assert record["se_E"] == row.exceeding.std_err
            assert record["K_meeting"] == 400
            assert record["K_exceeding"] == 600

    def test_unrun_modes_leave_empty_cells(self, bank12, scaled_curve_12, tmp_path):
        rows = sweep(bank12, [4], scaled_curve_12, DEFAULT_EPSILON, seed=9,
                     draws_exceeding=600, draws_meeting=400,
                     modes=("exceeding",))
        path = tmp_path / "sweep.csv"
        write_sweep_csv(rows, path)
        record = read_sweep_csv(path)[0]
        assert record["mu_A"] is None
        assert record["se_A"] is None
        assert record["mu_R"] is None
        assert record["se_R"] is None
        assert record["K_meeting"] is None
        assert record["mu_E"] is not None
        assert record["K_exceeding"] == 600

    def test_a_failed_write_keeps_the_old_file(self, rows, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("old contents\n")

        def interrupted():
            yield rows[0]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write_sweep_csv(interrupted(), path)
        assert path.read_bytes() == b"old contents\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "not_sweep.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(FileFormatError, match="not a sweep CSV"):
            read_sweep_csv(path)

    def test_repeated_length_rejected(self, tmp_path):
        row = "{},0.5,0.1,0.5,0.1,0.5,0.1,100,100,0"
        path = tmp_path / "sweep.csv"
        path.write_text("\n".join([",".join(SWEEP_HEADER), row.format(3), row.format(4),
                                   row.format(3)]) + "\n")
        with pytest.raises(FileFormatError, match="line 4: length n=3 repeats line 2"):
            read_sweep_csv(path)


def test_file_format_error_is_exported():
    assert fixedform.FileFormatError is FileFormatError
    assert issubclass(fixedform.BankFormatError, fixedform.FileFormatError)
