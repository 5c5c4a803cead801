"""The three benchmark workloads: what each runs, how much work it is, how it is checked.

Every operation is one or more ``fixedform`` CLI commands run in-process,
one at a time (a closed loop with a single client). The workload seed
derives each operation's program seed; the bank realizations are fixed.
"""

from __future__ import annotations

import csv
import json
import math
from functools import cached_property
from pathlib import Path

import numpy as np

import oracle
from common import BANK20, BANK300, MODES, SWEEP_LENGTHS, gen_bank_argv

OK, FAILED, WRONG = "ok", "failed", "wrong"


def derive_seed(workload_seed: int, index: int) -> int:
    """Program seed of operation ``index``; a pure function of the workload seed."""
    state = np.random.SeedSequence((workload_seed, index)).generate_state(1, np.uint64)[0]
    return int(state >> np.uint64(1))


class Workload:
    name = ""
    banks: tuple[dict, ...] = ()
    # Whether an operation runs on one thread only; see run.run_ops.
    single_threaded = True

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.dir: Path | None = None  # the directory of the last set-up, which the operations use

    def setup_commands(self, directory: Path) -> list[list[str]]:
        """The set-up: generate the workload's banks with ``fixedform gen-bank``."""
        return [gen_bank_argv(spec, directory / f"bank{spec['m']}.csv") for spec in self.banks]

    def bank(self, spec: dict) -> str:
        return str(self.dir / f"bank{spec['m']}.csv")

    def commands(self, index: int) -> list[list[str]]:
        raise NotImplementedError

    def collect(self, rcs: list) -> dict:
        """Read an operation's outputs right after it ran (outside the timed region)."""
        raise NotImplementedError

    def work(self, output: dict) -> float:
        """Work units the operation did: draws, annealer proposals or forms."""
        raise NotImplementedError

    def check(self, output: dict) -> str:
        """OK, FAILED (the command failed) or WRONG (an output disagrees with the oracle)."""
        raise NotImplementedError


def _read_csv(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


class SweepBank300(Workload):
    name = "sweep-bank300"
    banks = (BANK300,)
    K = 16384  # two fixed 8192-draw chunks per (length, mode), so both workers are busy
    WORKERS = 2
    single_threaded = False
    ANCHOR = 70

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        with open(Path(__file__).with_name("reference_bank300.json"), encoding="utf-8") as fh:
            self.reference = json.load(fh)["ratios"]

    def commands(self, index):
        sweep_csv, counts_csv = self.dir / "sweep.csv", self.dir / "counts.csv"
        step = SWEEP_LENGTHS[1] - SWEEP_LENGTHS[0]
        return [
            ["sweep", "--bank", self.bank(BANK300), "--seed", str(derive_seed(self.seed, index)),
             "--target", "lsat", "--n-from", str(SWEEP_LENGTHS[0]), "--n-to", str(SWEEP_LENGTHS[-1]),
             "--n-step", str(step), "--K", str(self.K), "--workers", str(self.WORKERS), "-o", str(sweep_csv)],
            ["counts", "--sweep", str(sweep_csv), "--m", str(BANK300["m"]), "--anchor-n", str(self.ANCHOR),
             "--modes", "exceeding", "-o", str(counts_csv)],
        ]

    def collect(self, rcs):
        if any(rc != 0 for rc in rcs):
            return {"rcs": rcs}
        return {"rcs": rcs, "sweep": _read_csv(self.dir / "sweep.csv"), "counts": _read_csv(self.dir / "counts.csv")}

    def work(self, output):
        return self.K * len(SWEEP_LENGTHS) * len(MODES)

    def check(self, out):
        if any(rc != 0 for rc in out["rcs"]):
            return FAILED
        suffix = {"absolute": "A", "relative": "R", "exceeding": "E"}
        rows = {int(r["n"]): r for r in out["sweep"]}
        if sorted(rows) != list(SWEEP_LENGTHS):
            return WRONG
        for n, row in rows.items():
            for mode in MODES:
                ref = self.reference[mode][str(n)]
                mu, se = float(row[f"mu_{suffix[mode]}"]), float(row[f"se_{suffix[mode]}"])
                if not oracle.within_reference(mu, se, ref["mu"], ref["se"]):
                    return WRONG
        counts = {int(r["n"]): r for r in out["counts"]}
        if sorted(counts) != list(SWEEP_LENGTHS):
            return WRONG
        m = BANK300["m"]
        for n, row in counts.items():
            if abs(float(row["log10_N"]) - oracle.log10_binom(m, n)) > 1e-9:
                return WRONG
        anchor = math.log10(float(rows[self.ANCHOR]["mu_E"])) + oracle.log10_binom(m, self.ANCHOR)
        if abs(float(counts[self.ANCHOR]["log10_N_E"]) - anchor) > 1e-9:
            return WRONG
        return OK


class AssembleN40(Workload):
    name = "assemble-n40"
    banks = (BANK300,)
    N = 40

    def commands(self, index):
        return [["assemble", "--bank", self.bank(BANK300), "--n", str(self.N),
                 "--seed", str(derive_seed(self.seed, index)), "-o", str(self.dir / "test.json")]]

    def collect(self, rcs):
        out = {"rcs": rcs}
        if rcs[0] in (0, 3):
            with open(self.dir / "test.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            out.update(items=doc["items"], proposals=doc["proposals"], succeeded=doc["succeeded"])
        return out

    def work(self, output):
        return output.get("proposals", 0)

    @cached_property
    def _information(self):
        return oracle.read_bank_information(self.bank(BANK300))

    def check(self, out):
        if out["rcs"][0] != 0 or not out["succeeded"]:
            return FAILED
        return OK if oracle.form_exceeds(out["items"], self.N, self._information, oracle.target_values()) else WRONG


class EnumerateM20(Workload):
    name = "enumerate-m20"
    banks = (BANK20,)
    N = 6
    TARGET_SCALE = 0.05

    def commands(self, index):
        target = ",".join(repr(c * self.TARGET_SCALE) for c in oracle.LSAT_COEFFS_DESCENDING)
        return [["enumerate", "--bank", self.bank(BANK20), "--n", str(self.N), "--target", target,
                 "-o", str(self.dir / "exact.json")]]

    def collect(self, rcs):
        out = {"rcs": rcs}
        if rcs[0] == 0:
            with open(self.dir / "exact.json", encoding="utf-8") as fh:
                doc = json.load(fh)
            out["counts"] = {k: doc[k] for k in ("N", "N_A", "N_R", "N_E")}
        return out

    def work(self, output):
        return math.comb(BANK20["m"], self.N)

    @cached_property
    def _expected(self):
        info = oracle.read_bank_information(self.bank(BANK20))
        return oracle.exact_counts(info, self.N, oracle.target_values(self.TARGET_SCALE))

    def check(self, out):
        if out["rcs"][0] != 0:
            return FAILED
        return OK if out["counts"] == self._expected else WRONG


WORKLOADS = {cls.name: cls for cls in (SweepBank300, AssembleN40, EnumerateM20)}
