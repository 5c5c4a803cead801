"""Run one benchmark workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload assemble-n40 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. Operations run one at a time through ``fixedform.cli.main``
in-process until the time is up, and every output is checked against an
independent oracle afterwards (a failed check counts as a failed operation
and never stops the run). The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` or the per-layer metrics with
``--trace 1``. Work files, the span trace and a result file with the
machine facts go under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path
from typing import NamedTuple

import tracing
from common import WORK, benchmark_spec, import_program, machine_facts, run_cli
from workloads import OK, WORKLOADS, WRONG

# Set-ups per run, spread over it; setup_s is their median.
SETUPS = 15

# What the generic metrics are called on the workload they were chosen for.
ALIASES = {
    "sweep-bank300": {"work_rate_per_s": "sweep.draws_per_s"},
    "assemble-n40": {
        "op_p50_s": "assemble.time_to_form_p50_s",
        "op_p90_s": "assemble.time_to_form_p90_s",
        "success_rate": "assemble.success_rate",
        "work_rate_per_s": "assemble.proposals_per_s",
    },
    "enumerate-m20": {"work_rate_per_s": "enumerate.forms_per_s"},
}


class Op(NamedTuple):
    seconds: float
    traced: bool
    output: dict


def call(argv: list[str], tracer) -> int | None:
    """One CLI command; a crash is recorded as exit status None and the run goes on."""
    try:
        if tracer is None:
            return run_cli(argv)
        with tracer.span(f"cli.{argv[0]}"):
            return run_cli(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


def timed(commands: list[list[str]], tracer, kind: str) -> tuple[float, list]:
    with tracer.request(kind) if tracer is not None else nullcontext():
        start = time.perf_counter()
        rcs = [call(argv, tracer) for argv in commands]
        return time.perf_counter() - start, rcs


def execute(workload, index: int, tracer) -> Op:
    seconds, rcs = timed(workload.commands(index), tracer, "op")
    try:
        output = workload.collect(rcs)
    except (OSError, ValueError, KeyError) as exc:
        output = {"rcs": rcs, "unreadable": repr(exc)}
    return Op(seconds, tracer is not None, output)


def set_up(workload, tmp: Path, tracer, setup_times: list[float]) -> None:
    """One set-up into a fresh directory, which the operations after it use."""
    directory = tmp / f"setup{len(setup_times)}"
    directory.mkdir()
    seconds, rcs = timed(workload.setup_commands(directory), tracer, "setup")
    if any(rc != 0 for rc in rcs):
        raise SystemExit(f"perfbench: set-up of {workload.name} failed with exit codes {rcs}")
    setup_times.append(seconds)
    workload.dir = directory


def run_ops(workload, seconds: float, tracer, tmp: Path) -> tuple[list[Op], list[float]]:
    """Closed loop until the next round would end past ``seconds``.

    The SETUPS set-ups are spread evenly over the run, so their median does
    not hang on how busy the machine was in one instant. A single-threaded
    workload runs each round pinned to the next allowed CPU in turn, so every
    run samples every CPU alike: on a small VM one vCPU can take the
    interrupts or share its core with a busier neighbour and run slower, and
    where the scheduler happened to put the process then moved whole runs by
    10% or more. In a traced run
    each operation runs twice on the same inputs, untraced and traced,
    alternating which goes first, so the pair gives the tracing overhead.
    """
    ops: list[Op] = []
    rounds: list[float] = []
    setup_times: list[float] = []
    cpus = sorted(os.sched_getaffinity(0))
    set_up(workload, tmp, tracer, setup_times)
    start = time.perf_counter()
    try:
        while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
            index = len(rounds)
            if workload.single_threaded:
                os.sched_setaffinity(0, {cpus[index % len(cpus)]})
            tracers = [None] if tracer is None else [None, tracer] if index % 2 == 0 else [tracer, None]
            round_start = time.perf_counter()
            ops.extend(execute(workload, index, t) for t in tracers)
            rounds.append(time.perf_counter() - round_start)
            while len(setup_times) < SETUPS * min(1.0, (time.perf_counter() - start) / seconds):
                set_up(workload, tmp, tracer, setup_times)
        while len(setup_times) < SETUPS:
            set_up(workload, tmp, tracer, setup_times)
    finally:
        os.sched_setaffinity(0, cpus)
    return ops, setup_times


def verdict(workload, output: dict) -> str:
    if "unreadable" in output:
        return WRONG
    try:
        return workload.check(output)
    except (KeyError, ValueError, TypeError, IndexError):
        return WRONG


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "q1": q1, "median": median, "q3": q3}


def main() -> int:
    spec = benchmark_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1; 1000 is held out for claims)")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"], help="how long the operations run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    import_program()

    workload = WORKLOADS[args.workload](args.seed)
    tracer = tracing.Tracer() if args.trace else None
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        ops, setup_times = run_ops(workload, args.seconds, tracer, Path(tmp))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        verdicts = [verdict(workload, op.output) for op in ops]

    attempted = len(ops)
    ok = verdicts.count(OK)
    times = [op.seconds for op in ops if not op.traced]
    rates = [workload.work(op.output) / op.seconds for op in ops if not op.traced]
    distributions = {"setup_s": spread(setup_times), "op_s": spread(times), "work_rate_per_s": spread(rates)}
    if tracer is None:
        p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
        values = {
            "setup_s": distributions["setup_s"]["median"],
            "peak_rss_mb": peak_rss_mb,
            "success_rate": ok / attempted,
            "work_rate_per_s": distributions["work_rate_per_s"]["median"],
            "op_p50_s": distributions["op_s"]["median"],
            "op_p90_s": p90,
        }
        declared = spec["end_to_end"]
    else:
        values = tracing.layer_metrics(tracer)
        traced = sum(op.seconds for op in ops if op.traced)
        values["trace.overhead_pct"] = (traced / sum(times) - 1.0) * 100.0
        declared = spec["per_layer"]
        tracer.write_csv(WORK / f"trace-{workload.name}.csv")

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    result = {
        "correct": WRONG not in verdicts,
        "attempted": attempted,
        "failed": attempted - ok,
        "metrics": metrics,
    }
    facts = machine_facts()
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    record = {
        "workload": workload.name,
        "why": why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "verdicts": {v: verdicts.count(v) for v in sorted(set(verdicts))},
        "error_rate": (attempted - ok) / attempted,
        "distributions": distributions,
        **result,
    }
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {workload.name} seed {args.seed}: {why}")
    print("machine " + json.dumps(facts))
    aliases = ALIASES[workload.name]
    for name, d in distributions.items():
        print(f"  within run  {name:<18} n={d['n']:<4} q1={d['q1']:.6g} median={d['median']:.6g} q3={d['q3']:.6g}")
    for name, metric in metrics.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        print(f"  {name}{alias} = {metric['value']:.6g} {metric['unit']}")
    print(f"  error_rate = {record['error_rate']:.6g} ({attempted - ok} failed of {attempted} attempted)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
