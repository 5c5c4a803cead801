"""Each public decision is declared once: the package's exports come from the
modules' ``__all__`` and the CLI's defaults from the library's config types."""

import importlib
import inspect

import pytest

import fixedform
from fixedform import AbilityGrid, AnnealConfig, BankGenSpec, metrics, sampling
from fixedform.cli import build_parser

MODULES = ("anneal", "bank", "counts", "errors", "irt", "metrics", "sampling", "target")

# fixedform.__all__ as released in 0.3.0; every entry must stay exported.
RELEASED_0_3_0 = (
    "__version__", "AbilityGrid", "AnnealConfig", "AnnealResult", "BankFormatError",
    "BankGenSpec", "BinomialCount", "BudgetError", "CountCurve", "Curve", "DEFAULT_EPSILON",
    "ENUMERATION_BUDGET", "EstimateResult", "ExactCounts", "FileFormatError", "FitReport",
    "FixedFormError", "GridMismatchError", "ItemBank", "ItemParams", "LSAT_COEFFS_DESCENDING",
    "MODES", "NO_ESTIMATE", "ParameterError", "SweepRow", "TargetDomainError", "TargetSpec",
    "TestForm", "UnknownItemError", "acceptance_probability", "anneal", "area_under",
    "binom_total", "builtin_lsat_target", "deficiency_energy", "draw_random_test",
    "enumerate_exact", "estimate_mu", "estimate_mu_relative", "eval_target",
    "extrapolate_counts", "fit_report", "generate_bank", "information_matrix",
    "is_absolute_meeting", "is_exceeding", "is_relative_meeting", "item_information",
    "l2_distance", "lambda_of", "load_bank", "parse_target", "prob_correct", "propose_swap",
    "read_sweep_csv", "save_bank", "standard_error", "sweep", "tabulate_target",
    "test_information", "trapezoid_weights", "write_sweep_csv",
)


def _defining_modules():
    return [importlib.import_module(f"fixedform.{name}") for name in MODULES]


def test_the_released_list_is_the_frozen_one():
    assert len(RELEASED_0_3_0) == len(set(RELEASED_0_3_0)) == 62


@pytest.mark.parametrize("name", RELEASED_0_3_0)
def test_every_released_name_is_still_exported(name):
    assert name in fixedform.__all__
    assert hasattr(fixedform, name)


def test_all_is_the_union_of_the_modules_all_plus_the_version():
    union = {"__version__"}.union(*(module.__all__ for module in _defining_modules()))
    assert set(fixedform.__all__) == union
    assert len(fixedform.__all__) == len(set(fixedform.__all__))


def test_every_export_is_its_defining_modules_object():
    for module in _defining_modules():
        for name in module.__all__:
            assert getattr(fixedform, name) is getattr(module, name), f"{module.__name__}.{name}"


def test_files_and_cli_stay_unexported():
    for module in ("files", "cli"):
        names = importlib.import_module(f"fixedform.{module}").__all__
        assert not set(names) & set(fixedform.__all__), module


def test_anneal_is_the_function_not_the_module():
    assert inspect.isfunction(fixedform.anneal)
    assert fixedform.anneal is importlib.import_module("fixedform.anneal").anneal


def test_the_fit_classes_are_one_tuple():
    assert sampling.MODES is metrics.MODES is fixedform.MODES


def _defaults(command):
    return build_parser()[1][command].parse_args([])


def test_gen_bank_defaults_are_bank_gen_spec():
    args, spec = _defaults("gen-bank"), BankGenSpec()
    assert (args.m, (args.a_min, args.a_max), (args.b_min, args.b_max), args.c) == (
        spec.m, spec.a_range, spec.b_range, spec.c_fixed)


def test_assemble_defaults_are_anneal_config():
    args, config = _defaults("assemble"), AnnealConfig()
    assert (args.T0, args.alpha, args.iters_per_temp, args.max_proposals, args.greedy_init) == (
        config.t0, config.alpha, config.iters_per_temp, config.max_proposals, config.greedy_init)


@pytest.mark.parametrize("command", ["sweep", "assemble", "enumerate"])
def test_grid_points_default_is_ability_grid(command):
    assert _defaults(command).grid_points == AbilityGrid().num_points


@pytest.mark.parametrize("command", ["sweep", "counts"])
def test_modes_default_is_every_fit_class(command):
    assert _defaults(command).modes == ",".join(fixedform.MODES)
