"""Produce the pinned reference ratios the sweep-bank300 check compares against.

    python3 perfbench/make_reference.py

Runs ``fixedform sweep`` in-process on the bank300 realization (m=300,
seed=11) with the built-in LSAT target, 1,000,000 draws per (length, mode)
at every workload length, and writes ``perfbench/reference_bank300.json``
with the ratios, their standard errors and the exact command. Takes about
five minutes on two cores. Rerun only when the reference itself must
change; the sweep's results do not depend on the worker count.
"""

from __future__ import annotations

import csv
import json
import tempfile
import time

from common import BANK300, MODES, ROOT, SWEEP_LENGTHS, WORK, gen_bank_argv, import_program, machine_facts, run_cli

DRAWS = 1_000_000
SEED = 20210531
WORKERS = 2
OUT = ROOT / "perfbench" / "reference_bank300.json"


def sweep_argv(bank: str, out: str) -> list[str]:
    return [
        "sweep", "--bank", bank, "--seed", str(SEED), "--target", "lsat",
        "--n-from", str(SWEEP_LENGTHS[0]), "--n-to", str(SWEEP_LENGTHS[-1]),
        "--n-step", str(SWEEP_LENGTHS[1] - SWEEP_LENGTHS[0]),
        "--K", str(DRAWS), "--workers", str(WORKERS), "-o", out,
    ]


def main() -> int:
    fixedform = import_program()
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        bank = f"{tmp}/bank300.csv"
        out = f"{tmp}/sweep.csv"
        if run_cli(gen_bank_argv(BANK300, bank)) != 0:
            raise SystemExit("gen-bank failed")
        started = time.perf_counter()
        if run_cli(sweep_argv(bank, out)) != 0:
            raise SystemExit("sweep failed")
        elapsed = time.perf_counter() - started
        with open(out, encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    suffix = {"absolute": "A", "relative": "R", "exceeding": "E"}
    ratios = {
        mode: {row["n"]: {"mu": float(row[f"mu_{suffix[mode]}"]), "se": float(row[f"se_{suffix[mode]}"])} for row in rows}
        for mode in MODES
    }
    doc = {
        "command": "python3 perfbench/make_reference.py",
        "fixedform_argv": ["fixedform", *sweep_argv("bank300.csv", "sweep.csv")],
        "bank": BANK300,
        "target": "lsat",
        "draws_per_length_and_mode": DRAWS,
        "fixedform_version": fixedform.__version__,
        "elapsed_s": round(elapsed, 1),
        "machine": machine_facts(),
        "ratios": ratios,
    }
    OUT.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {OUT.relative_to(ROOT)} in {elapsed:.0f} s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
