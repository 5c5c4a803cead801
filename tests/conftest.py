import pytest

import fixedform
from fixedform import (
    LSAT_COEFFS_DESCENDING,
    AbilityGrid,
    BankGenSpec,
    TargetSpec,
    builtin_lsat_target,
    fit_batch,
    generate_bank,
    save_bank,
    tabulate_target,
)
from fixedform import metrics
from fixedform.irt import form_curves

# Library names that happen to match pytest's collection patterns.
fixedform.TestForm.__test__ = False
fixedform.test_information.__test__ = False

# Frozen calibration: a 12-item bank and a down-scaled target for which
# exact enumeration at n=4 puts a healthy number of forms in each class
# (absolute 130, relative 490, exceeding 53 of 495).
BANK12_SEED = 6
TARGET_SCALE_12 = 0.034

# Frozen 300-item bank realization used by the large-scale checks.
BANK300_SEED = 11


@pytest.fixture(scope="session")
def grid():
    return AbilityGrid()


@pytest.fixture(scope="session")
def lsat_curve(grid):
    return tabulate_target(builtin_lsat_target(), grid)


@pytest.fixture(scope="session")
def scaled_target_12():
    base = builtin_lsat_target()
    return TargetSpec(tuple(c * TARGET_SCALE_12 for c in base.coefficients))


@pytest.fixture(scope="session")
def scaled_curve_12(scaled_target_12, grid):
    return tabulate_target(scaled_target_12, grid)


@pytest.fixture(scope="session")
def bank12():
    return generate_bank(BankGenSpec(m=12, seed=BANK12_SEED))


@pytest.fixture(scope="session")
def bank300():
    return generate_bank(BankGenSpec(m=300, seed=BANK300_SEED))


@pytest.fixture(scope="session")
def scaled_target_arg():
    """The down-scaled target as a CLI --target argument (highest degree first)."""
    return ",".join(repr(c * TARGET_SCALE_12) for c in LSAT_COEFFS_DESCENDING)


@pytest.fixture(scope="session")
def bank12_csv(bank12, tmp_path_factory):
    path = tmp_path_factory.mktemp("banks") / "bank12.csv"
    save_bank(bank12, path)
    return path


@pytest.fixture(scope="session")
def bank300_csv(bank300, tmp_path_factory):
    path = tmp_path_factory.mktemp("banks") / "bank300.csv"
    save_bank(bank300, path)
    return path


def unscreened_hits(info, ids, target_curve, epsilon, classes):
    """The reference for count_hits: fit_batch on every form's float64 curve."""
    fit = fit_batch(form_curves(info, ids), target_curve, epsilon, classes)
    return {name: int(fit[name].sum()) for name in classes}


def spy_curve_kernels(monkeypatch, record):
    """Make count_hits call ``record(kernel, (dtype, nodes), forms)`` for each batch of curves it builds.

    ``kernel`` is "gather" (form_curves) or "product" (indicator rows times
    a table whose last column, ones, counts items and is not a node).
    """
    product_curves = metrics._product_curves

    def gather(table, ids):
        record("gather", (table.dtype.name, table.shape[1]), len(ids))
        return form_curves(table, ids)

    def product(table, ids):
        record("product", (table.dtype.name, table.shape[1] - 1), len(ids))
        return product_curves(table, ids)

    monkeypatch.setattr(metrics, "form_curves", gather)
    monkeypatch.setattr(metrics, "_product_curves", product)
