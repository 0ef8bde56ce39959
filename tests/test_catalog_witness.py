"""Every catalog entry against the termwise expansion that it relaxes.

Expanding S S^* and taking norms term by term gives

    E = sum_i |a_i|^2 ||A_i||^2 + sum_{i != j} |a_i||a_j| ||A_i A_j^*||

(the displayed inequality of the bounds module docstring), and every
catalog entry relaxes E further, so ||S||^2 <= E <= every entry.  E is a
sharper witness than the left side: an entry whose formula runs low can
still sit above ||S||^2, but fall below E.  E is summed here with
math.fsum from the family's norm data, not from bounds.py's aggregates.

E cannot catch an entry that runs low yet stays above E, so on the same
cases the l1_cross, l2_cross and power_mean_cross entries are also
checked against their formulas, evaluated in 40-digit decimal arithmetic.

The inputs on which the catalog is wrong today, far from unit scale or
at extreme grid exponents, are strict xfails naming ROADMAP item 1, so
the defect shows in every test summary and its fix turns each mark into
a failure until the mark is removed.
"""

import math
from decimal import Decimal, localcontext

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


CROSS_NAMES = ("l1_cross", "l2_cross", "power_mean_cross")


def _exact_cross_entries(w, fam, grid) -> dict:
    """l1_cross, l2_cross and each power_mean_cross entry by (name, exponents),
    in 40-digit decimal arithmetic from the floats |w|, fam.norms and fam.cross:

    power_mean_cross(r, s) = sum_i |a_i|^2 (max_i ||A_i||^2 + n^(2/r - 1) (sum_{i != j} c_ij^s)^(1/s))

    for each grid entry r <= 2 and its conjugate s, l2_cross is the r = s = 2
    case, and l1_cross = sum_i |a_i|^2 (max_i ||A_i||^2 + sum_{i != j} c_ij).
    """
    with localcontext() as ctx:
        ctx.prec = 40
        wa = [Decimal(x) for x in np.abs(w).tolist()]
        top = max(Decimal(x) for x in fam.norms.tolist()) ** 2
        cross = fam.cross.tolist()
        n = len(wa)
        off = [Decimal(cross[i][j]) for i in range(n) for j in range(n) if i != j]
        weight = sum(x * x for x in wa)

        def power_mean(r, s):
            return weight * (top + Decimal(n) ** (2 / r - 1) * sum(c**s for c in off) ** (1 / s))

        exact = {("l1_cross", ""): weight * (top + sum(off)),
                 ("l2_cross", "r=2,s=2"): power_mean(Decimal(2), Decimal(2))}
        for p in grid:
            if p <= 2.0:
                r = Decimal(p)
                exact["power_mean_cross", f"r={p:g},s={p / (p - 1.0):g}"] = power_mean(r, r / (r - 1))
        return exact


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("kind", KINDS)
def test_the_cross_entries_match_their_exact_formulas(kind, n):
    off = []
    for seed in range(10):
        w, fam, _ = generate(InstanceSpec(kind, max(n, 6), n, seed))
        for grid in (DEFAULT_GRID, (1.1, 7.0)):
            got = {(r.name, r.exponents): r.bound for r in catalog_reports(w, fam, grid) if r.name in CROSS_NAMES}
            exact = _exact_cross_entries(w, fam, grid)
            assert got.keys() == exact.keys()
            for key, want in exact.items():
                err = float(abs(Decimal(got[key]) - want) / want)
                if not err <= 1e-13:
                    off.append((seed, grid, *key, got[key], float(want), err))
    assert not off, f"{len(off)} entries off their exact value by more than 1e-13 relative, the first {off[0]}"


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
