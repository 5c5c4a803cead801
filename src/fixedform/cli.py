"""Command-line interface.

Commands: gen-bank, sweep, assemble, counts, enumerate. A command
validates its inputs, computes, writes its primary output and returns
``(exit code, detail, facts)``. ``main`` then records the run manifest at
``<out>.manifest.json`` (the resolved parameters, fingerprints of the
input files and the command's facts, such as a sweep's bank size) and
reports the run; rerunning a command with
``--config <manifest>`` reproduces the primary output byte for byte.

Exit codes: 0 success, 1 usage or domain error, 2 I/O or parse error,
3 assembly stopped by the proposal budget. ``main`` maps every error to
one of them.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .anneal import AnnealConfig, anneal
from .bank import BankGenSpec, generate_bank, load_bank, save_bank
from .counts import NO_ESTIMATE, binom_total, enumerate_exact
from .errors import FileFormatError, FixedFormError, ParameterError
from .files import dump_csv, dump_json, read_json, replacing, sha256, write_csv, write_json
from .irt import AbilityGrid, Curve, check_length
from .metrics import DEFAULT_EPSILON, MODES, check_epsilon, check_modes, fit_report
from .sampling import _pool_threads, read_sweep_csv, sweep, write_sweep_csv
# perfbench/tracing.py patches these names on this module; keep them bound.
from .counts import extrapolate_counts  # noqa: F401
from .irt import test_information  # noqa: F401
from .target import parse_target, tabulate_target

__all__ = ["main", "build_parser", "EXIT_OK", "EXIT_USAGE", "EXIT_IO", "EXIT_BUDGET"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_BUDGET = 3

# A fit class's letter in the column names: mu_A, log10_N_A, N_A.
_LETTERS = {"absolute": "A", "relative": "R", "exceeding": "E"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; our contract reserves 2 for I/O.
    def error(self, message):
        raise _UsageError(message)


def build_parser(command: str | None = None) -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its command parsers by name: every command's, or only ``command``'s
    (none where ``command`` names no command).

    Every ``add_argument`` builds a help formatter, which reads the terminal
    size: on a 2-vCPU VM all five took 1.3 ms and one 0.3 ms, so ``main``
    builds only the one it runs.
    """
    parser = _Parser(prog="fixedform", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fixedform {__version__}")
    subs = parser.add_subparsers(dest="command")
    all_modes = ",".join(MODES)
    modes_flag = (("--modes",), dict(default=all_modes, help=f"comma-separated subset of {all_modes}"))

    def new_command(name: str, help_text: str, handler, flags, *,
                    bank: bool, seed: bool, target: bool, out_default: str) -> None:
        if command not in (None, name):
            return
        sub = subs.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(func=handler)
        if bank:
            sub.add_argument("--bank", help="item bank CSV")
        if seed:
            sub.add_argument("--seed", type=int, default=None, help="master seed; generated and printed if omitted")
        if target:
            sub.add_argument("--target", default="lsat",
                             help="'lsat' or comma-separated polynomial coefficients, highest degree first")
            sub.add_argument("--grid-points", type=int, default=AbilityGrid.num_points,
                             help="ability grid resolution on [-3, 3]")
            sub.add_argument("--epsilon", type=float, default=DEFAULT_EPSILON, help="fit tolerance")
        sub.add_argument("-o", "--out", default=out_default, help=f"output path (default {out_default})")
        sub.add_argument("--config", default=None, help="JSON file (or run manifest) supplying defaults; flags win")
        for names, kw in flags:
            sub.add_argument(*names, **kw)

    new_command("gen-bank", "generate a synthetic item bank CSV", _cmd_gen_bank, (
        (("--m",), dict(type=int, default=BankGenSpec.m, help="number of items")),
        (("--a-min",), dict(type=float, default=BankGenSpec.a_range[0], help="discrimination lower bound")),
        (("--a-max",), dict(type=float, default=BankGenSpec.a_range[1], help="discrimination upper bound")),
        (("--b-min",), dict(type=float, default=BankGenSpec.b_range[0], help="difficulty lower bound")),
        (("--b-max",), dict(type=float, default=BankGenSpec.b_range[1], help="difficulty upper bound")),
        (("--c",), dict(type=float, default=BankGenSpec.c_fixed, help="shared guessing parameter")),
    ), bank=False, seed=True, target=False, out_default="bank.csv")

    new_command("sweep", "estimate hit ratios across a range of test lengths", _cmd_sweep, (
        modes_flag,
        (("--K",), dict(type=int, default=100_000, help="draws per (length, mode)")),
        (("--K-meeting",), dict(type=int, default=None, help="override draws for the meeting modes")),
        (("--K-exceeding",), dict(type=int, default=None, help="override draws for the exceeding mode")),
        (("--n-from",), dict(type=int, default=None, help="first test length")),
        (("--n-to",), dict(type=int, default=None, help="last test length (inclusive)")),
        (("--n-step",), dict(type=int, default=1, help="test length stride")),
        (("--workers",), dict(type=int, default=1, help="threads; results identical for any value")),
    ), bank=True, seed=True, target=True, out_default="sweep.csv")

    new_command("assemble", "anneal a test whose information exceeds the target", _cmd_assemble, (
        (("--n",), dict(type=int, default=None, help="test length")),
        (("--T0",), dict(type=float, default=AnnealConfig.t0, help="initial temperature")),
        (("--alpha",), dict(type=float, default=AnnealConfig.alpha, help="geometric cooling factor")),
        (("--iters-per-temp",), dict(type=int, default=AnnealConfig.iters_per_temp,
                                     help="proposals per temperature step")),
        (("--max-proposals",), dict(type=int, default=AnnealConfig.max_proposals, help="proposal budget")),
        (("--greedy-init",), dict(action="store_true", help="start from the top-area items")),
        (("--trace",), dict(default=None, help="also write the accepted-energy trace CSV here")),
    ), bank=True, seed=True, target=True, out_default="test.json")

    new_command("counts", "turn a ratio sweep into log10 form counts", _cmd_counts, (
        (("--sweep",), dict(default=None, help="sweep CSV produced by the sweep command")),
        (("--m",), dict(type=int, default=None, help="bank size (or pass --bank)")),
        (("--bank",), dict(default=None, help="bank CSV; supplies m")),
        (("--anchor-n",), dict(type=int, default=None, help="ignored; accepted so that 0.3.0 command lines run")),
        modes_flag,
    ), bank=False, seed=False, target=False, out_default="counts.csv")

    new_command("enumerate", "exactly classify every n-item form of a small bank", _cmd_enumerate, (
        (("--n",), dict(type=int, default=None, help="test length")),
    ), bank=True, seed=False, target=True, out_default="exact.json")

    return parser, subs.choices


def _require(value, flag: str):
    if value is None:
        raise _UsageError(f"{flag} is required")
    return value


def _parse_modes(text: str) -> tuple[str, ...]:
    return check_modes(p.strip() for p in text.split(",") if p.strip())


def _resolve_seed(args) -> int:
    if args.seed is None:
        args.seed = int.from_bytes(os.urandom(8), "big") >> 1
        print(f"generated seed {args.seed}", file=sys.stderr)
    elif args.seed < 0:
        raise ParameterError(f"seed must be non-negative, got {args.seed}")
    return args.seed


def _target_curve(args) -> Curve:
    # Every command with --target also takes --epsilon: checked here, before any work.
    check_epsilon(args.epsilon)
    return tabulate_target(parse_target(args.target), AbilityGrid(num_points=args.grid_points))


def _parameters(args) -> dict:
    """A command's parameters: what its manifest records and what ``--config`` may set."""
    return {k: v for k, v in sorted(vars(args).items()) if k not in ("func", "command", "config")}


def _check_outputs(args) -> None:
    """Refuse a written path that names an input file or another written path."""
    seen = {os.path.realpath(path): f"{flag} {path}" for flag in ("--bank", "--sweep")
            if (path := getattr(args, flag[2:], None)) is not None}
    for flag, path in (("-o", args.out), ("the manifest", f"{args.out}.manifest.json"),
                       ("--trace", getattr(args, "trace", None))):
        if path is not None:
            real = os.path.realpath(path)
            if real in seen:
                raise _UsageError(f"{flag} {path} would overwrite {seen[real]}")
            seen[real] = f"{flag} {path}"


def _write_manifest(args, facts: dict) -> None:
    params = _parameters(args)
    doc = {"command": args.command, "parameters": params, **facts}
    bank = args.out if args.command == "gen-bank" else params.get("bank")
    if bank is not None:
        doc["bank_sha256"] = sha256(bank)
    if params.get("sweep") is not None:
        doc["sweep_sha256"] = sha256(params["sweep"])
    if "target" in params:
        doc["target_coefficients_descending"] = list(reversed(parse_target(params["target"]).coefficients))
    doc["tool_version"] = __version__
    doc["timestamp"] = datetime.now(timezone.utc).isoformat(timespec="seconds")
    write_json(f"{args.out}.manifest.json", doc)


def _cmd_gen_bank(args) -> tuple[int, str, dict]:
    _resolve_seed(args)
    spec = BankGenSpec(
        m=args.m,
        a_range=(args.a_min, args.a_max),
        b_range=(args.b_min, args.b_max),
        c_fixed=args.c,
        seed=args.seed,
    )
    save_bank(generate_bank(spec), args.out)
    return EXIT_OK, f"{args.m} items", {}


def _cmd_sweep(args) -> tuple[int, str, dict]:
    _resolve_seed(args)
    _require(args.n_from, "--n-from")
    _require(args.n_to, "--n-to")
    if args.n_step < 1:
        raise ParameterError(f"--n-step must be >= 1, got {args.n_step}")
    if args.n_from < 1 or args.n_to < args.n_from:
        raise ParameterError(
            f"need 1 <= --n-from <= --n-to, got {args.n_from}..{args.n_to}"
        )
    bank = load_bank(_require(args.bank, "--bank"))
    curve = _target_curve(args)
    modes = _parse_modes(args.modes)
    k_meeting = args.K if args.K_meeting is None else args.K_meeting
    k_exceeding = args.K if args.K_exceeding is None else args.K_exceeding
    n_values = range(args.n_from, args.n_to + 1, args.n_step)
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
    draws = max(k_exceeding if mode == "exceeding" else k_meeting for mode in modes)
    facts = {"bank_m": bank.m, "threads": _pool_threads(args.workers, draws)}
    return EXIT_OK, f"{len(rows)} lengths, modes {','.join(modes)}", facts


def _cmd_assemble(args) -> tuple[int, str, dict]:
    _resolve_seed(args)
    _require(args.n, "--n")
    curve = _target_curve(args)
    bank = load_bank(_require(args.bank, "--bank"))
    config = AnnealConfig(
        t0=args.T0,
        alpha=args.alpha,
        iters_per_temp=args.iters_per_temp,
        max_proposals=args.max_proposals,
        seed=args.seed,
        greedy_init=args.greedy_init,
    )
    result = anneal(bank, args.n, curve, config)
    doc = result.to_json_dict()
    doc["fit"] = fit_report(result.curve, curve, args.epsilon).to_json_dict()
    # One replacing block, so neither file is written unless both can be.
    paths = [args.out] if args.trace is None else [args.out, args.trace]
    with replacing(*paths) as handles:
        if args.trace is not None:
            rows = ([proposal, repr(energy), repr(temp)] for proposal, energy, temp in result.energy_trace)
            dump_csv(handles[1], ["proposal", "energy", "temperature"], rows)
        dump_json(handles[0], doc)
    facts = {"temperature_stages": [
        {"temperature": temp, "proposed": proposed, "accepted": accepted, "uphill": uphill}
        for temp, proposed, accepted, uphill in result.stages
    ]}
    if result.succeeded:
        return EXIT_OK, f"exceeding test found after {result.proposals} proposals", facts
    return EXIT_BUDGET, (
        f"budget of {args.max_proposals} proposals exhausted, residual energy {result.energy:.6g}"
    ), facts


def _check_sweep_bank(sweep_path, m: int) -> None:
    """Refuse a bank size that contradicts the one the sweep's manifest records, if it has one."""
    manifest = f"{sweep_path}.manifest.json"
    if not os.path.exists(manifest):
        return
    doc = read_json(manifest)
    if not isinstance(doc, dict):
        raise FileFormatError(f"{manifest}: a manifest must be a JSON object, got {json.dumps(doc)}")
    if "bank_m" not in doc:
        return
    recorded = doc["bank_m"]
    if type(recorded) is not int:
        raise FileFormatError(f"{manifest}: bank_m must be a JSON integer, got {json.dumps(recorded)}")
    if recorded != m:
        raise ParameterError(f"bank size {m} contradicts the bank size {recorded} recorded in {manifest}")


def _cmd_counts(args) -> tuple[int, str, dict]:
    _require(args.sweep, "--sweep")
    if args.m is None and args.bank is None:
        raise _UsageError("--m or --bank is required")
    if args.bank is not None:
        m = load_bank(args.bank).m
        if args.m is not None and args.m != m:
            raise ParameterError(f"--m {args.m} contradicts the bank size {m}")
        args.m = m
    m = args.m
    _check_sweep_bank(args.sweep, m)
    modes = _parse_modes(args.modes)
    records = sorted(read_sweep_csv(args.sweep), key=lambda rec: rec["n"])
    if not records:
        raise ParameterError(f"sweep file {args.sweep} has no rows")

    # Each count is its own length's estimate: log10 N_X(n) = log10 mu_X(n) + log10 C(m, n).
    rows = []
    for rec in records:
        n = rec["n"]
        check_length(n, m)
        total = binom_total(m, n).log10
        cells = dict.fromkeys(MODES, "")
        for mode in modes:
            column = f"mu_{_LETTERS[mode]}"
            if (mu := rec[column]) is None:
                raise ParameterError(f"sweep file has no {mode} estimates (empty {column} at n={n})")
            if not 0.0 <= mu <= 1.0:
                raise ParameterError(f"{column} at n={n} must lie in [0, 1], got {mu}")
            cells[mode] = repr(math.log10(mu) + total) if mu > 0.0 else repr(math.nan)
        flags = ";".join(f"N_{_LETTERS[mode]}:{NO_ESTIMATE}" for mode in modes if rec[f"mu_{_LETTERS[mode]}"] == 0.0)
        rows.append([n, repr(total), *cells.values(), flags])
    write_csv(args.out, ["n", "log10_N", "log10_N_A", "log10_N_R", "log10_N_E", "flags"], rows)
    return EXIT_OK, f"{len(rows)} lengths", {}


def _cmd_enumerate(args) -> tuple[int, str, dict]:
    _require(args.n, "--n")
    bank = load_bank(_require(args.bank, "--bank"))
    counts = enumerate_exact(bank, args.n, _target_curve(args), args.epsilon)
    doc = {
        "m": bank.m,
        "n": args.n,
        "epsilon": args.epsilon,
        "N": counts.total,
        "N_A": counts.absolute,
        "N_R": counts.relative,
        "N_E": counts.exceeding,
    }
    write_json(args.out, doc)
    return EXIT_OK, f"N={counts.total}", {}


def _load_config(path, command: str, defaults: dict) -> dict:
    """Read a config or manifest into parser defaults for ``command``.

    ``defaults`` maps each parameter the command accepts to its parser
    default. A null leaves the flag at its default, a bool may only set a
    bool flag, and any other scalar goes to the parser as text so that the
    flag's own type checks it.
    """
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise _UsageError(f"config {path} must hold a JSON object")
    if "parameters" in doc and isinstance(doc["parameters"], dict):
        recorded = doc.get("command")
        if recorded is not None and recorded != command:
            raise _UsageError(
                f"config {path} records command {recorded!r}, not {command!r}"
            )
        doc = doc["parameters"]
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise _UsageError(
            f"config {path} has keys unknown to {command}: {', '.join(unknown)}"
        )
    values = {}
    for key, value in doc.items():
        if value is None:
            continue
        if isinstance(value, (list, dict)) or isinstance(value, bool) != isinstance(defaults[key], bool):
            raise _UsageError(f"config {path}: {key} cannot be {json.dumps(value)}")
        values[key] = value if isinstance(value, bool) else str(value)
    return values


def main(argv=None) -> int:
    arg_list = list(sys.argv[1:]) if argv is None else list(argv)
    # The top-level parser takes no option with a value, so a command is always
    # the first argument. Anything else (none, -h, --version or a typo) gets
    # every command's parser, for the top-level usage, help and choices.
    parser, commands = build_parser(arg_list[0] if arg_list else None)
    if not commands:
        parser, commands = build_parser()
    try:
        args = parser.parse_args(arg_list)
        if getattr(args, "command", None) is None:
            parser.print_usage(sys.stderr)
            raise _UsageError("a command is required")
        if args.config is not None:
            sub = commands[args.command]
            defaults = {key: sub.get_default(key) for key in _parameters(args)}
            sub.set_defaults(**_load_config(args.config, args.command, defaults))
            args = parser.parse_args(arg_list)
        _check_outputs(args)
        code, detail, facts = args.func(args)
        _write_manifest(args, facts)
    except (FileFormatError, OSError) as exc:
        print(f"fixedform: error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (_UsageError, FixedFormError) as exc:
        print(f"fixedform: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"wrote {args.out} ({detail})", file=sys.stdout if code == EXIT_OK else sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
