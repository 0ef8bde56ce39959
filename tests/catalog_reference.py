"""The catalog's per-aggregate arithmetic, the probe pair without its
memos and the checklist's scalar rules, kept as a test reference.

bounds.catalog_reports forms the power sums sum v^x of the weights, the
norms and the cross table each by one power call and one row reduction,
and shares them between the aggregates; it takes its slack ratios, as
harness.verify_instance takes its ratios and violations, from array
expressions.  The probe pair reads the family's memos of the last probe
image and the last probe's ||x||^2.  Here each aggregate forms its own
sums, one exponent at a time, each probe call forms its image and norms
afresh, and each ratio or violation is one scalar rule, as before; the
bits must be the same.
"""

import math

import numpy as np

from opsumbounds.bounds import CHECK_TOL


def slack_ratio(lhs_sq: float, bound: float) -> float:
    """bound / lhs_sq; 1 when both vanish, inf when only the left side does."""
    if lhs_sq <= 0.0:
        return 1.0 if bound <= 0.0 else math.inf
    return bound / lhs_sq


def violation(lhs: float, bound: float) -> float:
    """How far lhs exceeds bound, relative to it; inf over a bound that is
    not positive."""
    if bound > 0.0:
        return max(lhs / bound - 1.0, 0.0)
    return 0.0 if lhs <= 0.0 else math.inf


def power_sum(values: np.ndarray, x: float) -> float:
    """sum v^x over the 1-d values, by one power call and one sum for x alone."""
    return float((values**x).sum())


def lp_aggregate(values: np.ndarray, sums: dict, p: float) -> float:
    """bounds._lp_aggregate, forming its own sum; sums is not read."""
    if p == math.inf:
        return float(values.max()) ** 2
    return power_sum(values, 2.0 * p) ** (1.0 / p)


def pair_weight(wa: np.ndarray, sums: dict, r: float) -> float:
    """bounds._pair_weight, forming its own two sums; sums is not read."""
    n = wa.size
    if r == math.inf:
        if n < 2:
            return 0.0
        top = np.partition(wa, n - 2)[n - 2 :]
        return float(top[0]) * float(top[1])
    s1 = power_sum(wa, r)
    s2 = power_sum(wa, 2.0 * r)
    inside = s1 * s1 - s2
    if inside <= 0.0:
        return 0.0
    return inside ** (1.0 / r)


def cross_aggregate(off: np.ndarray, s: float) -> float:
    """(sum_{i != j} cross^s)^(1/s) over the n x n table off, its sum a
    reduction of its own; s = inf gives the largest entry."""
    if s == math.inf:
        return float(off.max())
    return power_sum(off.ravel(), s) ** (1.0 / s)


def vector_image_bound(w: np.ndarray, ops: np.ndarray, x: np.ndarray, M: float) -> tuple:
    """bounds.vector_image_bound on checked arrays, its image and ||x||^2
    formed afresh: no memo of the family's is read."""
    lhs = float(np.add.reduce(np.abs(np.einsum("i,iab,b->a", w, ops, x)) ** 2))
    rhs = float(np.add.reduce(np.abs(x) ** 2)) * M
    return lhs, rhs, lhs <= rhs * (1.0 + CHECK_TOL)


def bilinear_bound(w: np.ndarray, ops: np.ndarray, x: np.ndarray, y: np.ndarray, M: float) -> tuple:
    """bounds.bilinear_bound on checked arrays, its image and both squared
    norms formed afresh."""
    lhs = float(abs(np.add.reduce(np.einsum("i,iab,b->a", w, ops, x) * y.conj())) ** 2)
    rhs = float(np.add.reduce(np.abs(x) ** 2)) * float(np.add.reduce(np.abs(y) ** 2)) * M
    return lhs, rhs, lhs <= rhs * (1.0 + CHECK_TOL)
