"""Shared plumbing for the benchmark scripts.

The benchmark runs from the root of a source checkout and imports the
program from ``src/`` of that checkout, never from an installed copy, so a
checkout without the program makes every script fail before it measures.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Everything the benchmark writes goes below this directory.
WORK = ROOT / ".perfbench"

# Fixed bank realizations named by the workloads.
BANK300 = {"m": 300, "seed": 11}
BANK20 = {"m": 20, "seed": 6}

# Sweep lengths of the sweep-bank300 workload and of the reference ratios.
SWEEP_LENGTHS = (30, 50, 70, 90, 110)
MODES = ("absolute", "relative", "exceeding")


def benchmark_spec() -> dict:
    """BENCHMARK.json: the workloads and every metric's name, unit and bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_program():
    """Import ``fixedform`` from this checkout; exit 2 if it is not there."""
    if not (SRC / "fixedform" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'fixedform'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import fixedform
    import fixedform.cli

    if Path(fixedform.__file__).resolve().parent != SRC / "fixedform":
        print(f"perfbench: imported fixedform from {fixedform.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return fixedform


def run_cli(argv: list[str]) -> int:
    """Run one ``fixedform`` command in-process with its console output discarded."""
    from fixedform.cli import main

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return main(argv)


def gen_bank_argv(spec: dict, path: Path) -> list[str]:
    return ["gen-bank", "--m", str(spec["m"]), "--seed", str(spec["seed"]), "-o", str(path)]


def machine_facts() -> dict:
    """Facts that decide how comparable two result files are; read, never set."""
    import numpy as np

    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
