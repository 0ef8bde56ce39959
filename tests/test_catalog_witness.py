"""Every catalog entry against the termwise expansion that it relaxes.

Expanding S S^* and taking norms term by term gives

    E = sum_i |a_i|^2 ||A_i||^2 + sum_{i != j} |a_i||a_j| ||A_i A_j^*||

(the displayed inequality of the bounds module docstring), and every
catalog entry relaxes E further, so ||S||^2 <= E <= every entry.  E is a
sharper witness than the left side: an entry whose formula runs low can
still sit above ||S||^2, but fall below E.  E is summed here with
math.fsum from the family's norm data, not from bounds.py's aggregates.

The inputs on which the catalog is wrong today, far from unit scale or
at extreme grid exponents, are strict xfails naming ROADMAP item 1, so
the defect shows in every test summary and its fix turns each mark into
a failure until the mark is removed.
"""

import math

import numpy as np
import pytest

from opsumbounds.bounds import DEFAULT_GRID, catalog_reports
from opsumbounds.cbs import OperatorFamily
from opsumbounds.harness import KINDS, InstanceSpec, generate
from opsumbounds.rng import PortableRng
from opsumbounds.vectors import VectorFamily

EPS = np.finfo(float).eps


def _expansion(w, fam) -> float:
    """E from |w|, fam.norms and fam.cross, with one rounding in the sum."""
    wa, norms, cross = np.abs(w).tolist(), fam.norms.tolist(), fam.cross.tolist()
    n = len(wa)
    return math.fsum([wa[i] ** 2 * norms[i] ** 2 for i in range(n)]
                     + [wa[i] * wa[j] * cross[i][j] for i in range(n) for j in range(n) if i != j])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_every_entry_is_at_least_the_termwise_expansion(kind, n):
    below = []
    for seed in range(10):
        w, fam, _ = generate(InstanceSpec(kind, max(n, 6), n, seed))
        for grid in (DEFAULT_GRID, (1.1, 7.0)):
            reports = catalog_reports(w, fam, grid)
            floor = _expansion(w, fam) * (1.0 - 8.0 * EPS)
            below += [(seed, grid, r.name, r.exponents, r.bound, floor) for r in reports if not r.bound >= floor]
    assert not below, f"{len(below)} entries below E (1 - 8 eps), the first {below[0]}"


def _wrong(reports) -> int:
    # a plain bound < lhs count misses the nan entries
    return sum(not (r.bound >= r.lhs_sq and math.isfinite(r.bound)) for r in reports)


ITEM_1 = "ROADMAP item 1: the catalog is wrong far from unit scale and at extreme grid exponents"


def _gaussian(d, n):
    w, fam, _ = generate(InstanceSpec("GaussianDense", d, n, 1))
    return w, fam.ops


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [-150, -80, -60, 60, 80, 150])
@pytest.mark.parametrize("side", ["weights", "operators"])
def test_the_catalog_holds_on_a_scaled_operator_family(side, k):
    w, ops = _gaussian(4, 3)
    if side == "weights":
        w = w * 10.0**k
    else:
        ops = ops * 10.0**k
    assert _wrong(catalog_reports(w, OperatorFamily(ops))) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("k", [-120, -60, 60, 120])
def test_the_catalog_holds_on_scaled_vectors(k):
    y = PortableRng(3).complex_normal((4, 6)) * 10.0**k
    assert _wrong(catalog_reports(PortableRng(4).complex_normal(4), VectorFamily(y))) == 0


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=ITEM_1)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("weights, grid", [(np.ones(2), (1.001, 1000.0)), ([1.0, 0.9], (1000.0,))],
                         ids=["ones", "one_and_nine_tenths"])
def test_the_catalog_holds_at_extreme_grid_exponents(weights, grid):
    _, ops = _gaussian(4, 2)
    assert _wrong(catalog_reports(weights, OperatorFamily(ops), grid)) == 0


# the true values are of order 1; today the norm pass's products
# overflow (ValueError), or the weight aggregates do (OverflowError)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("w_scale, op_scale", [
    pytest.param(1e-170, 1e170, marks=pytest.mark.xfail(strict=True, raises=ValueError, reason=ITEM_1)),
    pytest.param(1e170, 1e-170, marks=pytest.mark.xfail(strict=True, raises=OverflowError, reason=ITEM_1)),
], ids=["small_weights", "small_operators"])
def test_the_catalog_holds_at_opposite_scales(w_scale, op_scale):
    w, ops = _gaussian(4, 3)
    assert _wrong(catalog_reports(w * w_scale, OperatorFamily(ops * op_scale))) == 0
