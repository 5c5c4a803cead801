"""Command-line interface.

Commands: gen-bank, sweep, assemble, counts, enumerate. Every command
writes its primary output plus a run manifest at ``<out>.manifest.json``
recording the resolved parameters; rerunning a command with
``--config <manifest>`` reproduces the primary output byte for byte.

Exit codes: 0 success, 1 usage or domain error, 2 I/O or parse error,
3 assembly stopped by the proposal budget.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .anneal import AnnealConfig, anneal
from .bank import BankGenSpec, generate_bank, load_bank, save_bank
from .counts import binom_total, enumerate_exact, extrapolate_counts
from .errors import FileFormatError, FixedFormError, ParameterError
from .irt import AbilityGrid, ItemBank, Curve, test_information
from .metrics import DEFAULT_EPSILON, fit_report
from .sampling import MODES, read_sweep_csv, sweep, write_sweep_csv
from .target import parse_target, tabulate_target

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_USAGE", "EXIT_IO", "EXIT_BUDGET"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BUDGET = 3

_COUNT_COLUMNS = {"absolute": "N_A", "relative": "N_R", "exceeding": "N_E"}
_MU_COLUMNS = {"absolute": "mu_A", "relative": "mu_R", "exceeding": "mu_E"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for I/O.
    def error(self, message):
        raise _UsageError(message)


def _add_common(sub, dests: set[str], *, bank: bool, seed: bool, target: bool, out_default: str) -> None:
    def add(*names, **kw) -> None:
        dests.add(sub.add_argument(*names, **kw).dest)

    if bank:
        add("--bank", help="item bank CSV")
    if seed:
        add("--seed", type=int, default=None, help="master seed; generated and printed if omitted")
    if target:
        add("--target", default="lsat",
            help="'lsat' or comma-separated polynomial coefficients, highest degree first")
        add("--grid-points", type=int, default=121, help="ability grid resolution on [-3, 3]")
        add("--epsilon", type=float, default=DEFAULT_EPSILON, help="fit tolerance")
    add("-o", "--out", default=out_default, help=f"output path (default {out_default})")
    add("--config", default=None, help="JSON file (or run manifest) supplying defaults; flags win")
    dests.discard("config")


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, tuple[argparse.ArgumentParser, set[str]]]]:
    parser = _Parser(prog="fixedform", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fixedform {__version__}")
    subs = parser.add_subparsers(dest="command")
    commands: dict[str, tuple[argparse.ArgumentParser, set[str]]] = {}

    def new_command(name: str, help_text: str, handler) -> tuple[argparse.ArgumentParser, set[str]]:
        sub = subs.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(func=handler)
        dests: set[str] = set()
        commands[name] = (sub, dests)
        return sub, dests

    sub, dests = new_command("gen-bank", "generate a synthetic item bank CSV", _cmd_gen_bank)
    _add_common(sub, dests, bank=False, seed=True, target=False, out_default="bank.csv")
    for names, kw in (
        (("--m",), dict(type=int, default=300, help="number of items")),
        (("--a-min",), dict(type=float, default=1.0, help="discrimination lower bound")),
        (("--a-max",), dict(type=float, default=3.0, help="discrimination upper bound")),
        (("--b-min",), dict(type=float, default=-3.0, help="difficulty lower bound")),
        (("--b-max",), dict(type=float, default=3.0, help="difficulty upper bound")),
        (("--c",), dict(type=float, default=0.2, help="shared guessing parameter")),
    ):
        dests.add(sub.add_argument(*names, **kw).dest)

    sub, dests = new_command("sweep", "estimate hit ratios across a range of test lengths", _cmd_sweep)
    _add_common(sub, dests, bank=True, seed=True, target=True, out_default="sweep.csv")
    for names, kw in (
        (("--modes",), dict(default="absolute,relative,exceeding",
                            help="comma-separated subset of absolute,relative,exceeding")),
        (("--K",), dict(type=int, default=100_000, help="draws per (length, mode)")),
        (("--K-meeting",), dict(type=int, default=None, help="override draws for the meeting modes")),
        (("--K-exceeding",), dict(type=int, default=None, help="override draws for the exceeding mode")),
        (("--n-from",), dict(type=int, default=None, help="first test length")),
        (("--n-to",), dict(type=int, default=None, help="last test length (inclusive)")),
        (("--n-step",), dict(type=int, default=1, help="test length stride")),
        (("--workers",), dict(type=int, default=1, help="threads; results identical for any value")),
    ):
        dests.add(sub.add_argument(*names, **kw).dest)

    sub, dests = new_command("assemble", "anneal a test whose information exceeds the target", _cmd_assemble)
    _add_common(sub, dests, bank=True, seed=True, target=True, out_default="test.json")
    for names, kw in (
        (("--n",), dict(type=int, default=None, help="test length")),
        (("--T0",), dict(type=float, default=0.05, help="initial temperature")),
        (("--alpha",), dict(type=float, default=0.9, help="geometric cooling factor")),
        (("--iters-per-temp",), dict(type=int, default=1000, help="proposals per temperature step")),
        (("--max-proposals",), dict(type=int, default=100_000, help="proposal budget")),
        (("--greedy-init",), dict(action="store_true", help="start from the top-area items")),
        (("--trace",), dict(default=None, help="also write the accepted-energy trace CSV here")),
    ):
        dests.add(sub.add_argument(*names, **kw).dest)

    sub, dests = new_command("counts", "turn a ratio sweep into log10 form counts", _cmd_counts)
    _add_common(sub, dests, bank=False, seed=False, target=False, out_default="counts.csv")
    for names, kw in (
        (("--sweep",), dict(default=None, help="sweep CSV produced by the sweep command")),
        (("--m",), dict(type=int, default=None, help="bank size (or pass --bank)")),
        (("--bank",), dict(default=None, help="bank CSV; supplies m")),
        (("--anchor-n",), dict(type=int, default=None, help="length whose count anchors the curves")),
        (("--modes",), dict(default="absolute,relative,exceeding",
                            help="comma-separated subset of absolute,relative,exceeding")),
    ):
        dests.add(sub.add_argument(*names, **kw).dest)

    sub, dests = new_command("enumerate", "exactly classify every n-item form of a small bank", _cmd_enumerate)
    _add_common(sub, dests, bank=True, seed=False, target=True, out_default="exact.json")
    dests.add(sub.add_argument("--n", type=int, default=None, help="test length").dest)

    return parser, commands


def _require(value, flag: str):
    if value is None:
        raise _UsageError(f"{flag} is required")
    return value


def _parse_modes(text: str) -> tuple[str, ...]:
    parts = tuple(p.strip() for p in text.split(",") if p.strip())
    for part in parts:
        if part not in MODES:
            raise ParameterError(f"unknown mode {part!r}; expected a subset of {','.join(MODES)}")
    if not parts:
        raise ParameterError("at least one mode is required")
    return tuple(m for m in MODES if m in parts)


def _resolve_seed(args) -> int:
    if args.seed is None:
        args.seed = int.from_bytes(os.urandom(8), "big") >> 1
        print(f"generated seed {args.seed}", file=sys.stderr)
    elif args.seed < 0:
        raise ParameterError(f"seed must be non-negative, got {args.seed}")
    return args.seed


def _grid(args) -> AbilityGrid:
    return AbilityGrid(num_points=args.grid_points)


def _target_curve(args, grid: AbilityGrid) -> tuple[tuple[float, ...], Curve]:
    spec = parse_target(args.target)
    return tuple(reversed(spec.coefficients)), tabulate_target(spec, grid)


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_manifest(args, extra: dict | None = None) -> None:
    doc = {
        "command": args.command,
        "parameters": {
            k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command", "config")
        },
    }
    if extra:
        doc.update(extra)
    doc["tool_version"] = __version__
    doc["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    with open(f"{args.out}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _load_bank_checked(path) -> ItemBank:
    _require(path, "--bank")
    return load_bank(path)


def _cmd_gen_bank(args) -> int:
    _resolve_seed(args)
    spec = BankGenSpec(
        m=args.m,
        a_range=(args.a_min, args.a_max),
        b_range=(args.b_min, args.b_max),
        c_fixed=args.c,
        seed=args.seed,
    )
    save_bank(generate_bank(spec), args.out)
    _write_manifest(args, {"bank_sha256": _sha256(args.out)})
    print(f"wrote {args.out} ({args.m} items)")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    _resolve_seed(args)
    _require(args.n_from, "--n-from")
    _require(args.n_to, "--n-to")
    if args.n_step < 1:
        raise ParameterError(f"--n-step must be >= 1, got {args.n_step}")
    if args.n_from < 1 or args.n_to < args.n_from:
        raise ParameterError(
            f"need 1 <= --n-from <= --n-to, got {args.n_from}..{args.n_to}"
        )
    bank = _load_bank_checked(args.bank)
    grid = _grid(args)
    coeffs, curve = _target_curve(args, grid)
    modes = _parse_modes(args.modes)
    k_meeting = args.K if args.K_meeting is None else args.K_meeting
    k_exceeding = args.K if args.K_exceeding is None else args.K_exceeding
    n_values = list(range(args.n_from, args.n_to + 1, args.n_step))
    rows = sweep(
        bank,
        n_values,
        curve,
        args.epsilon,
        args.seed,
        draws_exceeding=k_exceeding,
        draws_meeting=k_meeting,
        modes=modes,
        workers=args.workers,
    )
    write_sweep_csv(rows, args.out)
    _write_manifest(
        args,
        {"bank_sha256": _sha256(args.bank), "target_coefficients_descending": list(coeffs)},
    )
    print(f"wrote {args.out} ({len(rows)} lengths, modes {','.join(modes)})")
    return EXIT_OK


def _cmd_assemble(args) -> int:
    _resolve_seed(args)
    _require(args.n, "--n")
    bank = _load_bank_checked(args.bank)
    grid = _grid(args)
    coeffs, curve = _target_curve(args, grid)
    config = AnnealConfig(
        t0=args.T0,
        alpha=args.alpha,
        iters_per_temp=args.iters_per_temp,
        max_proposals=args.max_proposals,
        seed=args.seed,
        greedy_init=args.greedy_init,
    )
    result = anneal(bank, args.n, curve, config)
    final_curve = test_information(bank, result.test, grid)
    doc = result.to_json_dict()
    doc["fit"] = fit_report(final_curve, curve, args.epsilon).to_json_dict()
    _write_json(args.out, doc)
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["proposal", "energy", "temperature"])
            for proposal, energy, temperature in result.energy_trace:
                writer.writerow([proposal, repr(energy), repr(temperature)])
    _write_manifest(
        args,
        {"bank_sha256": _sha256(args.bank), "target_coefficients_descending": list(coeffs)},
    )
    if result.succeeded:
        print(f"wrote {args.out} (exceeding test found after {result.proposals} proposals)")
        return EXIT_OK
    print(
        f"wrote {args.out} (budget of {args.max_proposals} proposals exhausted, "
        f"residual energy {result.energy:.6g})",
        file=sys.stderr,
    )
    return EXIT_BUDGET


def _cmd_counts(args) -> int:
    _require(args.sweep, "--sweep")
    _require(args.anchor_n, "--anchor-n")
    if args.m is None and args.bank is None:
        raise _UsageError("--m or --bank is required")
    if args.bank is not None:
        m = load_bank(args.bank).m
        if args.m is not None and args.m != m:
            raise ParameterError(f"--m {args.m} contradicts the bank size {m}")
        args.m = m
    m = args.m
    modes = _parse_modes(args.modes)
    records = read_sweep_csv(args.sweep)
    if not records:
        raise ParameterError(f"sweep file {args.sweep} has no rows")
    n_values = [rec["n"] for rec in records]
    for n in n_values:
        if n < 1 or n > m:
            raise ParameterError(f"sweep length n={n} is outside [1, {m}]; wrong --m?")
    if args.anchor_n not in n_values:
        raise ParameterError(f"anchor n={args.anchor_n} is not a sweep length")

    curves = {}
    for mode in modes:
        column = _MU_COLUMNS[mode]
        mu_curve = {}
        for rec in records:
            if rec[column] is None:
                raise ParameterError(
                    f"sweep file has no {mode} estimates (empty {column} at n={rec['n']})"
                )
            mu_curve[rec["n"]] = rec[column]
        anchor_mu = mu_curve[args.anchor_n]
        if anchor_mu <= 0.0:
            raise ParameterError(
                f"{mode} ratio at the anchor n={args.anchor_n} is 0; "
                "pick an anchor length with a positive estimate"
            )
        anchor_log10 = math.log10(anchor_mu) + binom_total(m, args.anchor_n).log10
        curves[mode] = extrapolate_counts(args.anchor_n, anchor_log10, mu_curve, m).as_dict()

    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["n", "log10_N", "log10_N_A", "log10_N_R", "log10_N_E", "flags"])
        for n in sorted(n_values):
            row: list = [n, repr(binom_total(m, n).log10)]
            notes = []
            for mode in ("absolute", "relative", "exceeding"):
                if mode not in curves:
                    row.append("")
                    continue
                value = curves[mode][n]
                row.append(repr(value))
                if math.isnan(value):
                    notes.append(f"{_COUNT_COLUMNS[mode]}:no-estimate")
            row.append(";".join(notes))
            writer.writerow(row)
    _write_manifest(args, {"sweep_sha256": _sha256(args.sweep)})
    print(f"wrote {args.out} ({len(n_values)} lengths, anchor n={args.anchor_n})")
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    _require(args.n, "--n")
    bank = _load_bank_checked(args.bank)
    grid = _grid(args)
    coeffs, curve = _target_curve(args, grid)
    counts = enumerate_exact(bank, args.n, curve, args.epsilon)
    doc = {
        "m": bank.m,
        "n": args.n,
        "epsilon": args.epsilon,
        "N": counts.total,
        "N_A": counts.absolute,
        "N_R": counts.relative,
        "N_E": counts.exceeding,
    }
    _write_json(args.out, doc)
    _write_manifest(
        args,
        {"bank_sha256": _sha256(args.bank), "target_coefficients_descending": list(coeffs)},
    )
    print(f"wrote {args.out} (N={counts.total})")
    return EXIT_OK


def _load_config(path, command: str, dests: set[str]) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise _UsageError(f"config {path} must hold a JSON object")
    if "parameters" in doc and isinstance(doc["parameters"], dict):
        recorded = doc.get("command")
        if recorded is not None and recorded != command:
            raise _UsageError(
                f"config {path} records command {recorded!r}, not {command!r}"
            )
        doc = doc["parameters"]
    unknown = sorted(set(doc) - dests)
    if unknown:
        raise _UsageError(
            f"config {path} has keys unknown to {command}: {', '.join(unknown)}"
        )
    return doc


def main(argv=None) -> int:
    parser, commands = build_parser()
    arg_list = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        args = parser.parse_args(arg_list)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            raise _UsageError("a command is required")
        if args.config is not None:
            sub, dests = commands[args.command]
            sub.set_defaults(**_load_config(args.config, args.command, dests))
            args = parser.parse_args(arg_list)
        return args.func(args)
    except _UsageError as exc:
        print(f"fixedform: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileFormatError as exc:
        print(f"fixedform: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except json.JSONDecodeError as exc:
        print(f"fixedform: error: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_IO
    except FixedFormError as exc:
        print(f"fixedform: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"fixedform: error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
