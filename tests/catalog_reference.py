"""The catalog's per-aggregate arithmetic and the checklist's scalar
rules, kept as a test reference.

bounds.catalog_reports forms each weight power sum sum |a_i|^x once and
shares it between the aggregates, and takes its slack ratios, as
harness.verify_instance takes its ratios and violations, from array
expressions.  Here each aggregate forms its own sums and each ratio or
violation is one scalar rule, as before; the bits must be the same.
"""

import math

import numpy as np


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


def lp_aggregate(values: np.ndarray, sums: dict, p: float) -> float:
    """bounds._lp_aggregate, forming its own sum; sums is not read."""
    if p == math.inf:
        return float(values.max()) ** 2
    return float((values ** (2.0 * p)).sum()) ** (1.0 / p)


def pair_weight(wa: np.ndarray, sums: dict, r: float) -> float:
    """bounds._pair_weight, forming its own two sums; sums is not read."""
    n = wa.size
    if r == math.inf:
        if n < 2:
            return 0.0
        top = np.partition(wa, n - 2)[n - 2 :]
        return float(top[0]) * float(top[1])
    s1 = float((wa**r).sum())
    s2 = float((wa ** (2.0 * r)).sum())
    inside = s1 * s1 - s2
    if inside <= 0.0:
        return 0.0
    return inside ** (1.0 / r)
