"""The upper-bound catalog for ||sum alpha_i A_i||^2.

Expanding S S^* for S = sum alpha_i A_i and taking norms termwise gives

    ||S||^2  <=  sum |a_i|^2 ||A_i||^2  +  sum_{i != j} |a_i||a_j| ||A_i A_j^*||,

and each of the two sums can then be relaxed three ways: pull out the
largest weight factor, apply Holder with conjugate exponents, or pull
out the largest norm factor.  The max-based lines are the limiting
Holder cases, so a single exponent-parametrized formula covers all of
them: the diagonal sum is handled by (p, q) with sentinels (inf, 1) and
(1, inf), the off-diagonal sum by (r, s) likewise.  On top of the nine
resulting configurations sit several named variants that trade the
off-diagonal bracket for cruder aggregates, and a family of tighter
bounds available only when all cross products vanish.

Every bound here is pure arithmetic over |alpha_i|, ||A_i|| and
||A_i A_j^*||; the assembled sum is touched only to report the exact
left side.  The i != j sums range over ordered pairs, so symmetric
contributions count twice.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .cbs import OperatorFamily, as_weights
from .errors import DimensionMismatch, InvalidExponent, finite_array

DEFAULT_GRID = (1.25, 1.5, 2.0, 3.0, 4.0)
CHECK_TOL = 1e-9

MAX_WEIGHT = "max_weight"
MAX_NORM = "max_norm"
MAX_PAIR = "max_pair"
MAX_CROSS = "max_cross"

_INF = math.inf


class BoundReport(NamedTuple):
    name: str
    exponents: str
    lhs_sq: float
    bound: float
    slack_ratio: float


def slack_ratio(lhs_sq, bound) -> np.ndarray:
    """bound / lhs_sq elementwise; 1 where both vanish, inf where only the left side does."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(lhs_sq <= 0.0, np.where(bound <= 0.0, 1.0, _INF), np.divide(bound, lhs_sq))


def _power_sums(values: np.ndarray, exps) -> dict:
    """sum v^x for each distinct finite x of exps."""
    return {x: float((values**x).sum()) for x in set(exps) if x != _INF}


def _lp_aggregate(values: np.ndarray, sums: dict, p: float) -> float:
    """(sum v^(2p))^(1/p), the sum from sums; p = inf gives the limit (max v)^2."""
    if p == _INF:
        return float(values.max()) ** 2
    return sums[2.0 * p] ** (1.0 / p)


def _pair_weight(wa: np.ndarray, sums: dict, r: float) -> float:
    """The ordered-pair weight factor sum_{i != j} |a_i|^r |a_j|^r, to the 1/r.

    Expanded as (sum wa^r)^2 - sum wa^(2r), the sums from sums, clamped
    at zero before the outer power: the difference is nonnegative exactly
    but can round slightly negative when a single weight dominates.
    r = inf gives the largest pair product instead.
    """
    n = wa.size
    if r == _INF:
        if n < 2:
            return 0.0
        top = np.partition(wa, n - 2)[n - 2 :]
        return float(top[0]) * float(top[1])
    s1 = sums[r]
    inside = s1 * s1 - sums[2.0 * r]
    if inside <= 0.0:
        return 0.0
    return inside ** (1.0 / r)


def _cross_aggregate(off: np.ndarray, s: float) -> float:
    """(sum_{i != j} cross^s)^(1/s); s = inf gives max_{i != j}."""
    if s == _INF:
        return float(off.max())
    return float((off**s).sum()) ** (1.0 / s)


@lru_cache(maxsize=16)
def _catalog_table(grid: tuple[float, ...]):
    """The grid-only part of the catalog, after the check of the grid's
    entries and labels: the exponent and power-mean pairs, the exponents
    of each aggregate and power sum, and two sets of label columns.

    The diagonal choices (max_weight, Holder, max_norm) and the
    off-diagonal ones (max_pair, Holder, max_cross) share one list of
    conjugate pairs 1/p + 1/q = 1, the max-based limiting cases being
    the sentinels (inf, 1) and (1, inf).  The name and exponents columns
    run in catalog order: the master table row by row, the named variants
    and, in the second set only, the orthogonal entries.
    """
    if not grid:
        raise InvalidExponent("empty exponent grid")
    for p in grid:
        # between 2^53 and 2^54 the conjugate p / (p - 1) starts to round
        # to 1, which leaves no Holder pair of finite exponents
        if not (p > 1.0 and math.isfinite(p) and p / (p - 1.0) > 1.0):
            raise InvalidExponent(f"grid entries must be finite, > 1 and have a conjugate > 1, got {p}")
    pairs = [(_INF, 1.0), *((p, p / (p - 1.0)) for p in grid), (1.0, _INF)]
    power_means = [(r, s) for r, s in pairs[1:-1] if r <= 2.0]
    holder = [f"p={p:g},q={q:g}" for p, q in pairs[1:-1]]
    # one label on two entries would give rows that cannot be told apart
    for k, label in enumerate(holder):
        if label in holder[:k]:
            raise InvalidExponent(f"grid entries must have distinct labels, got {grid[holder.index(label)]} "
                                  f"and {grid[k]}, both labelled {label}")
    diag = [(MAX_WEIGHT, "")] + [("holder", exps) for exps in holder] + [(MAX_NORM, "")]
    off = [(MAX_PAIR, "")] + [("holder", f"r={r:g},s={s:g}") for r, s in pairs[1:-1]] + [(MAX_CROSS, "")]
    labels = [(f"master:{dn}+{on}", ";".join(e for e in (de, oe) if e)) for dn, de in diag for on, oe in off]
    labels.append(("cross_total", ""))
    labels += [("holder_count", exps) for exps in holder]
    labels += [("max_terms", ""), ("l2_cross", "r=2,s=2"), ("l1_cross", "")]
    labels += [("power_mean_cross", f"r={r:g},s={s:g}") for r, s in power_means]
    orthogonal = [(f"orthogonal:{dn}", de) for dn, de in diag]
    ps, qs = frozenset(p for p, _ in pairs), frozenset(q for _, q in pairs)
    exps = ps, qs, qs | {2.0}, [x for p in ps for x in (p, 2.0 * p)], [2.0 * q for q in qs]
    return pairs, power_means, exps, (tuple(zip(*labels)), tuple(zip(*(labels + orthogonal))))


def catalog_reports(alpha, fam, exponent_grid=None) -> list[BoundReport]:
    """Every catalog bound on one instance, in fixed catalog order.

    fam is an OperatorFamily or a vectors.VectorFamily; the catalog reads
    four things from it: count, norms (||A_i||), cross (the n x n table
    of ||A_i A_j^*||, diagonal included) and weighted_sum_norm(w), the
    exact ||sum w_i A_i||.  The grid is checked before anything is
    solved; the left side is solved before the norm data is read, so an
    OperatorFamily solves both in one pass.

    Each aggregate, and each power sum sum v^x that aggregates share, is
    computed once per distinct exponent.  The master entries are the
    table D[i] + O[j] of a diagonal term per diagonal choice and an
    off-diagonal term per off-diagonal choice; the named variants follow,
    and, when every cross product ||A_i A_j^*|| (i != j) is exactly 0, as
    the paper's orthogonal bound assumes, the diagonal terms D themselves.
    """
    w = as_weights(alpha, fam.count)
    grid = DEFAULT_GRID if exponent_grid is None else tuple(float(p) for p in exponent_grid)
    pairs, power_means, (ps, qs, ss, w_exps, n_exps), columns = _catalog_table(grid)
    lhs = fam.weighted_sum_norm(w) ** 2
    wa = np.abs(w)
    na = fam.norms
    cross = fam.cross
    off = cross.copy()
    np.fill_diagonal(off, 0.0)
    n = wa.size

    sw = _power_sums(wa, w_exps)
    sn = _power_sums(na, n_exps)
    lw = {p: _lp_aggregate(wa, sw, p) for p in ps}
    ln = {q: _lp_aggregate(na, sn, q) for q in qs}
    pw = {r: _pair_weight(wa, sw, r) for r in ps}
    xa = {s: _cross_aggregate(off, s) for s in ss}
    diag = np.array([lw[p] * ln[q] for p, q in pairs])
    offdiag = np.array([pw[r] * xa[s] for r, s in pairs])

    def power_mean(r, s):
        return lw[1.0] * (ln[_INF] + n ** (2.0 / r - 1.0) * xa[s])

    # cross_total takes the full table, diagonal included
    named = [lw[_INF] * float(cross.sum())]
    named += [lw[p] * (ln[q] + (n - 1) * xa[q]) for p, q in pairs[1:-1]]
    named.append(lw[1.0] * (ln[_INF] + (n - 1) * xa[_INF]))
    # l2_cross is the r = 2 power mean under its own name; sharing the
    # formula makes the recapture identity exact by construction
    named.append(power_mean(2.0, 2.0))
    named.append(lw[1.0] * (ln[_INF] + xa[1.0]))
    named += [power_mean(r, s) for r, s in power_means]

    values = [(diag[:, None] + offdiag[None, :]).ravel(), np.array(named)]
    orthogonal = not off.any()
    if orthogonal:
        # the bound is on the norm itself; its squared form is exactly
        # the diagonal term
        values.append(diag)
    values = np.concatenate(values)
    names, exps = columns[orthogonal]
    return list(map(tuple.__new__, repeat(BoundReport), zip(names, exps, repeat(lhs), values.tolist(),
                                                            slack_ratio(lhs, values).tolist())))


def tightest_report(reports) -> BoundReport:
    """The first strict minimum of a report list: a report replaces the
    running best only if its bound is strictly smaller, so ties resolve
    to the earliest entry."""
    return min(reports, key=lambda rep: rep.bound)


def _probe_vector(x, dim: int, where: str) -> tuple[np.ndarray, float]:
    """The probe x as a checked array of dim entries, and ||x||^2."""
    xv = finite_array(x, 1, where)
    if xv.size != dim:
        raise DimensionMismatch(f"probe vector shape {xv.shape} does not match dimension {dim}")
    return xv, float((np.abs(xv) ** 2).sum())


def vector_image_bound(alpha, fam: OperatorFamily, x, M: float) -> tuple[float, float, bool]:
    """Check ||sum alpha_i A_i x||^2 <= M ||x||^2 for a concrete x."""
    w = as_weights(alpha, fam.count)
    xv, x_sq = _probe_vector(x, fam.dim, "x")
    lhs, rhs = float((np.abs(np.einsum("i,iab,b->a", w, fam.ops, xv)) ** 2).sum()), x_sq * M
    return lhs, rhs, lhs <= rhs * (1.0 + CHECK_TOL)


def bilinear_bound(alpha, fam: OperatorFamily, x, y, M: float) -> tuple[float, float, bool]:
    """Check |sum alpha_i (A_i x, y)|^2 <= M ||x||^2 ||y||^2."""
    w = as_weights(alpha, fam.count)
    xv, x_sq = _probe_vector(x, fam.dim, "x")
    img = np.einsum("i,iab,b->a", w, fam.ops, xv)
    yv, y_sq = _probe_vector(y, fam.dim, "y")
    lhs, rhs = float(abs((img * yv.conj()).sum()) ** 2), x_sq * y_sq * M
    return lhs, rhs, lhs <= rhs * (1.0 + CHECK_TOL)


def probe_checks(alpha, fam: OperatorFamily, probes, M: float) -> list[tuple[float, float, bool]]:
    """vector_image_bound(x_k) for each probe x_k, then bilinear_bound(x_k,
    x_{(k+1) mod K}), with the same bits, by array operations on the probe
    stack but for each image's einsum and |(S x, y)|^2's abs and power, whose
    bits batching moves; a bad list is walked to name its first bad probe."""
    w = as_weights(alpha, fam.count)
    try:
        xs = finite_array(probes, 2, "probes")
    except ValueError:
        xs = None
    if xs is None or xs.shape[1] != fam.dim:
        xs = np.array([_probe_vector(x, fam.dim, f"probes[{k}]")[0] for k, x in enumerate(probes)])
        xs = xs.reshape(-1, fam.dim)
    imgs = np.array([np.einsum("i,iab,b->a", w, fam.ops, x) for x in xs]).reshape(xs.shape)
    x_sq = (np.abs(xs) ** 2).sum(axis=1)
    inner = (imgs * np.concatenate((xs[1:], xs[:1])).conj()).sum(axis=1)
    lhs = np.concatenate([(np.abs(imgs) ** 2).sum(axis=1), [abs(c) ** 2 for c in inner]])
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = np.concatenate((x_sq, x_sq * np.concatenate((x_sq[1:], x_sq[:1])))) * M
        holds = lhs <= rhs * (1.0 + CHECK_TOL)
    return list(zip(lhs.tolist(), rhs.tolist(), holds.tolist()))
