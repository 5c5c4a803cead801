"""Spans around the calls one fixedform module makes into another.

A traced operation patches the names listed in ``WRAPPED`` on the importing
module for its duration, so spans nest cli -> sampling / anneal / counts ->
irt / metrics while the program's source stays untouched. Spans stay in
memory and are written out when the run ends. Counts (draws, hits,
proposals, forms) are read from the wrapped calls' return values.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import itertools
import statistics
import threading
import time
from collections import defaultdict
from typing import NamedTuple

from common import MODES, SWEEP_LENGTHS

# (importing module, imported name, span name)
WRAPPED = (
    ("fixedform.cli", "sweep", "sampling.sweep"),
    ("fixedform.cli", "write_sweep_csv", "sampling.write_sweep_csv"),
    ("fixedform.cli", "read_sweep_csv", "sampling.read_sweep_csv"),
    ("fixedform.cli", "anneal", "anneal.anneal"),
    ("fixedform.cli", "enumerate_exact", "counts.enumerate_exact"),
    ("fixedform.cli", "extrapolate_counts", "counts.extrapolate_counts"),
    ("fixedform.cli", "generate_bank", "bank.generate_bank"),
    ("fixedform.cli", "save_bank", "bank.save_bank"),
    ("fixedform.cli", "load_bank", "bank.load_bank"),
    ("fixedform.cli", "tabulate_target", "target.tabulate_target"),
    ("fixedform.cli", "test_information", "irt.test_information"),
    ("fixedform.cli", "fit_report", "metrics.fit_report"),
    ("fixedform.sampling", "estimate_mu", "sampling.estimate_mu"),
    ("fixedform.sampling", "estimate_mu_relative", "sampling.estimate_mu"),
    ("fixedform.sampling", "information_matrix", "irt.information_matrix"),
    ("fixedform.counts", "test_information", "irt.test_information"),
    ("fixedform.counts", "is_exceeding", "metrics.is_exceeding"),
    ("fixedform.counts", "is_absolute_meeting", "metrics.is_absolute_meeting"),
    ("fixedform.counts", "is_relative_meeting", "metrics.is_relative_meeting"),
    ("fixedform.anneal", "information_matrix", "irt.information_matrix"),
    ("fixedform.anneal", "test_information", "irt.test_information"),
    ("fixedform.anneal", "is_exceeding", "metrics.is_exceeding"),
    ("fixedform.anneal", "deficiency_energy", "metrics.deficiency_energy"),
)

# Counts kept from a wrapped call's return value, by span name.
NOTES = {
    "sampling.estimate_mu": lambda r: (r.mode, r.n, r.draws, r.hits),
    "anneal.anneal": lambda r: (r.proposals, r.accepted),
    "counts.enumerate_exact": lambda r: r.total,
}

CLI_COMMANDS = ("gen-bank", "sweep", "counts", "assemble", "enumerate")


class Span(NamedTuple):
    span_id: int
    parent_id: int
    request_id: int
    name: str
    start_ns: int
    end_ns: int
    note: object


class Tracer:
    """Collects spans in memory; one request id per benchmark operation."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.requests: dict[int, str] = {}
        self._request = -1
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, note_of=None):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        holder = [None]
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            yield holder
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            note = note_of(holder[0]) if note_of is not None and holder[0] is not None else None
            self.spans.append(Span(span_id, parent, self._request, name, start, end, note))

    def _wrap(self, name: str, fn):
        note_of = NOTES.get(name)

        def traced(*args, **kwargs):
            with self.span(name, note_of) as holder:
                holder[0] = fn(*args, **kwargs)
                return holder[0]

        return traced

    @contextlib.contextmanager
    def request(self, kind: str):
        """Trace one operation ("op" or "setup"): patch the wrapped names, restore after."""
        self._request = len(self.requests)
        self.requests[self._request] = kind
        saved = []
        try:
            for module_name, attr, name in WRAPPED:
                module = importlib.import_module(module_name)
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, self._wrap(name, getattr(module, attr)))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["span_id", "parent_id", "request_id", "request_kind", "name", "start_ns", "end_ns"])
            for s in self.spans:
                writer.writerow([s.span_id, s.parent_id, s.request_id, self.requests[s.request_id], s.name, s.start_ns, s.end_ns])


def _covered_ns(intervals: list[tuple[int, int]]) -> int:
    covered, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return covered


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: list[float], k: int) -> float:
    # k-th decile; a single value is its own decile.
    if len(values) < 2:
        return float(values[0]) if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer numbers from the spans; a layer the workload never calls reads 0.

    Times per call use a span's self time: its duration minus the part of
    it that its child spans cover. Calls are per traced operation.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for s in tracer.spans:
        children[s.parent_id].append((s.start_ns, s.end_ns))
    calls: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    op_calls: dict[str, int] = defaultdict(int)
    for s in tracer.spans:
        calls[s.name] += 1
        self_ns[s.name] += s.end_ns - s.start_ns - _covered_ns(children[s.span_id])
        if tracer.requests[s.request_id] == "op":
            op_calls[s.name] += 1
    ops = sum(1 for kind in tracer.requests.values() if kind == "op")

    def per_call(name: str, scale: float) -> float:
        return _ratio(self_ns[name] / scale, calls[name])

    out: dict[str, float] = {}
    draws: dict[tuple, list[int]] = defaultdict(lambda: [0, 0, 0])
    # A call that raised has no note; its operation already counts as failed.
    noted = [s for s in tracer.spans if s.note is not None]
    for s in noted:
        if s.name == "sampling.estimate_mu":
            mode, n, n_draws, hits = s.note
            acc = draws[(mode, n)]
            acc[0] += n_draws
            acc[1] += hits
            acc[2] += s.end_ns - s.start_ns
    for mode in MODES:
        for n in SWEEP_LENGTHS:
            n_draws, hits, ns = draws[(mode, n)]
            out[f"sampling.draws_per_s.{mode}.n{n}"] = _ratio(n_draws, ns / 1e9)
            out[f"sampling.hit_ratio.{mode}.n{n}"] = _ratio(hits, n_draws)
    out["irt.information_matrix_ms"] = per_call("irt.information_matrix", 1e6)
    out["irt.test_information_us"] = per_call("irt.test_information", 1e3)
    out["irt.test_information_calls"] = _ratio(op_calls["irt.test_information"], ops)
    for name in ("is_exceeding", "is_absolute_meeting", "is_relative_meeting", "fit_report"):
        out[f"metrics.{name}_us"] = per_call(f"metrics.{name}", 1e3)
    out["metrics.calls"] = _ratio(sum(v for k, v in op_calls.items() if k.startswith("metrics.")), ops)

    forms = sum(s.note for s in noted if s.name == "counts.enumerate_exact")
    out["counts.enumerate_exact_self_us_per_form"] = _ratio(self_ns["counts.enumerate_exact"] / 1e3, forms)
    out["counts.forms"] = _ratio(forms, calls["counts.enumerate_exact"])
    out["counts.extrapolate_counts_ms"] = per_call("counts.extrapolate_counts", 1e6)

    chains = [s for s in noted if s.name == "anneal.anneal"]
    proposals = [s.note[0] for s in chains]
    anneal_s = sum(s.end_ns - s.start_ns for s in chains) / 1e9
    out["anneal.proposals_per_s"] = _ratio(sum(proposals), anneal_s)
    out["anneal.proposals_to_form_p50"] = _quantile(proposals, 5)
    out["anneal.proposals_to_form_p90"] = _quantile(proposals, 9)
    out["anneal.acceptance_ratio"] = _ratio(sum(s.note[1] for s in chains), sum(proposals))
    out["anneal.self_ms_per_chain"] = per_call("anneal.anneal", 1e6)

    out["bank.load_bank_ms"] = per_call("bank.load_bank", 1e6)
    out["bank.generate_bank_ms"] = per_call("bank.generate_bank", 1e6)
    out["target.tabulate_target_ms"] = per_call("target.tabulate_target", 1e6)
    for command in CLI_COMMANDS:
        out[f"cli.self_ms.{command}"] = per_call(f"cli.{command}", 1e6)
    return out
