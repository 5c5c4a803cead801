"""Run the benchmark several times per workload and summarize across runs.

    python3 perfbench/repeat.py --runs 10 --out perfbench/baseline.json

Runs ``run.py`` for the ``run_seconds`` of BENCHMARK.json once per (seed,
workload) with seeds ``--first-seed`` .. ``--first-seed + runs - 1``,
interleaving the workloads, then one traced run per workload on the first
seed. Prints, for every end-to-end metric of
every workload, the median and quartiles over runs, the run count and the
spread (q3 - q1) / median; with ``--out`` it also writes all of it, the
per-layer numbers and the machine facts to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import ROOT, benchmark_spec, machine_facts

RUN_TIMEOUT_S = 300


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "runs": len(values),
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main() -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args()
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs: dict[str, list[dict]] = {name: [] for name in names}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        for name in names:
            runs[name].append(run_once(name, seed, seconds, 0))
            print(f"ran {name} seed {seed}", file=sys.stderr, flush=True)

    doc = {
        "command": f"python3 perfbench/repeat.py --runs {args.runs} --first-seed {args.first_seed}",
        "run_seconds": seconds,
        "machine": machine_facts(),
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for name in names:
        attempted = sum(r["attempted"] for r in runs[name])
        failed = sum(r["failed"] for r in runs[name])
        metrics = {}
        print(f"{name}: {why[name]}")
        for metric, meta in runs[name][0]["metrics"].items():
            stats = summarize([r["metrics"][metric]["value"] for r in runs[name]])
            stats["unit"] = meta["unit"]
            metrics[metric] = stats
            spread = "-" if stats["spread"] is None else f"{stats['spread']:.3f}"
            print(f"  {metric:<16} {meta['unit']:<6} median={stats['median']:<12.6g} q1={stats['q1']:<12.6g} "
                  f"q3={stats['q3']:<12.6g} runs={stats['runs']} spread={spread} bound={bounds[metric]}")
        print(f"  error_rate = {failed / attempted:.6g} ({failed} failed of {attempted} operations); "
              f"correct in {sum(r['correct'] for r in runs[name])} of {len(runs[name])} runs")
        traced = run_once(name, args.first_seed, seconds, 1)
        doc["workloads"][name] = {
            "why": why[name],
            "attempted": attempted,
            "failed": failed,
            "error_rate": failed / attempted,
            "all_correct": all(r["correct"] for r in runs[name]),
            "end_to_end": metrics,
            "per_layer_traced_seed": args.first_seed,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
