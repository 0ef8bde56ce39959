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
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .cbs import as_family, as_weights
from .errors import DimensionMismatch, InvalidExponent, NotOrthogonalFamily

DEFAULT_GRID = (1.25, 1.5, 2.0, 3.0, 4.0)
ORTHOGONAL_TOL = 1e-10

MAX_WEIGHT = "max_weight"
MAX_NORM = "max_norm"
MAX_PAIR = "max_pair"
MAX_CROSS = "max_cross"

_INF = math.inf


@dataclass(frozen=True)
class HolderPair:
    """Conjugate exponents 1/p + 1/q = 1.

    The sentinel pairs (inf, 1) and (1, inf) stand for the max-based
    limiting cases and are accepted everywhere a pair is.
    """

    p: float
    q: float

    def __post_init__(self):
        p, q = self.p, self.q
        if (p == _INF and q == 1.0) or (p == 1.0 and q == _INF):
            return
        if p > 1.0 and q > 1.0 and math.isfinite(p) and math.isfinite(q):
            if abs(1.0 / p + 1.0 / q - 1.0) <= 1e-12:
                return
        raise InvalidExponent(f"not a conjugate pair: p={p}, q={q}")

    @classmethod
    def conjugate(cls, p: float) -> "HolderPair":
        if p == _INF:
            return cls(_INF, 1.0)
        if p == 1.0:
            return cls(1.0, _INF)
        if not (p > 1.0 and math.isfinite(p)):
            raise InvalidExponent(f"exponent must be in (1, inf), got {p}")
        return cls(p, p / (p - 1.0))


_DIAG_CHOICES = (MAX_WEIGHT, MAX_NORM)
_OFFDIAG_CHOICES = (MAX_PAIR, MAX_CROSS)


@dataclass(frozen=True)
class BoundConfig:
    """One cell of the 3 x 3 configuration table.

    Each choice is either a sentinel string or a HolderPair; the pair
    plays the role of (p, q) on the diagonal side and (r, s) on the
    off-diagonal side.
    """

    diag_choice: object
    offdiag_choice: object

    def __post_init__(self):
        if not isinstance(self.diag_choice, HolderPair) and self.diag_choice not in _DIAG_CHOICES:
            raise InvalidExponent(f"unknown diagonal choice {self.diag_choice!r}")
        if not isinstance(self.offdiag_choice, HolderPair) and self.offdiag_choice not in _OFFDIAG_CHOICES:
            raise InvalidExponent(f"unknown off-diagonal choice {self.offdiag_choice!r}")


@dataclass(frozen=True)
class BoundReport:
    name: str
    exponents: str
    lhs_sq: float
    bound: float
    config: object
    slack_ratio: float


def _slack(lhs_sq: float, bound: float) -> float:
    if lhs_sq <= 0.0:
        return 1.0 if bound <= 0.0 else math.inf
    return bound / lhs_sq


class _Eval:
    """Per-instance arithmetic shared by every catalog entry.

    Carries |alpha_i|, the norm data, and a thunk for the exact left
    side so that one instance evaluated against the whole catalog pays
    for the assembled-sum norm exactly once.  scale multiplies both the
    bounds and the left side (used by the Gram path to fold in ||x||^2),
    leaving slack ratios untouched.
    """

    def __init__(self, wa, na, cross, lhs_thunk, scale: float = 1.0):
        self.wa = np.asarray(wa, dtype=np.float64)
        self.na = np.asarray(na, dtype=np.float64)
        self.cross = np.asarray(cross, dtype=np.float64)
        off = self.cross.copy()
        np.fill_diagonal(off, 0.0)
        self.off = off
        self.n = int(self.wa.size)
        self._lhs_thunk = lhs_thunk
        self.scale = float(scale)
        self._memo = {}

    @cached_property
    def lhs_sq(self) -> float:
        return self.scale * float(self._lhs_thunk())

    # The catalog evaluates the same handful of aggregates for many
    # configurations; memoized accessors keep that linear in the number
    # of distinct exponents instead of the number of catalog entries.

    def lp_weights(self, p: float) -> float:
        key = ("w", p)
        if key not in self._memo:
            self._memo[key] = _lp_aggregate(self.wa, p)
        return self._memo[key]

    def lp_norms(self, q: float) -> float:
        key = ("n", q)
        if key not in self._memo:
            self._memo[key] = _lp_aggregate(self.na, q)
        return self._memo[key]

    def pair_weight(self, r: float) -> float:
        key = ("pw", r)
        if key not in self._memo:
            self._memo[key] = _pair_weight(self.wa, r)
        return self._memo[key]

    def cross_agg(self, s: float) -> float:
        key = ("x", s)
        if key not in self._memo:
            self._memo[key] = _cross_aggregate(self.off, s)
        return self._memo[key]

    @cached_property
    def cross_total_sum(self) -> float:
        return float(self.cross.sum())


def _eval_operators(alpha, A) -> _Eval:
    fam = as_family(A)
    w = as_weights(alpha, fam.count)

    def thunk():
        # the batch route falls back to the eigen-decomposition when the
        # assembled sum has a nearly degenerate top pair; random
        # ensembles do hit such instances
        s = np.einsum("i,iab->ab", w, fam.ops)
        return float(linalg.spectral_norms(s[None])[0]) ** 2

    return _Eval(np.abs(w), fam.norms, fam.cross, thunk)


def _lp_aggregate(values: np.ndarray, p: float) -> float:
    """(sum v^(2p))^(1/p); p = inf gives the limit (max v)^2."""
    if p == _INF:
        return float(values.max()) ** 2
    if p == 1.0:
        return float((values**2).sum())
    return float((values ** (2.0 * p)).sum()) ** (1.0 / p)


def _pair_weight(wa: np.ndarray, r: float) -> float:
    """The ordered-pair weight factor sum_{i != j} |a_i|^r |a_j|^r, to the 1/r.

    Expanded as (sum wa^r)^2 - sum wa^(2r), clamped at zero before the
    outer power: the difference is nonnegative exactly but can round
    slightly negative when a single weight dominates.  r = inf gives the
    largest pair product instead.
    """
    n = wa.size
    if r == _INF:
        if n < 2:
            return 0.0
        top = np.partition(wa, n - 2)[n - 2 :]
        return float(top[0]) * float(top[1])
    s1 = float((wa**r).sum())
    s2 = float((wa ** (2.0 * r)).sum())
    inside = s1 * s1 - s2
    if inside <= 0.0:
        return 0.0
    return inside ** (1.0 / r) if r != 1.0 else inside


def _cross_aggregate(off: np.ndarray, s: float) -> float:
    """(sum_{i != j} cross^s)^(1/s); s = inf gives max_{i != j}."""
    if s == _INF:
        return float(off.max())
    if s == 1.0:
        return float(off.sum())
    return float((off**s).sum()) ** (1.0 / s)


def _diag_exponents(choice) -> tuple[float, float]:
    if isinstance(choice, HolderPair):
        return choice.p, choice.q
    if choice == MAX_WEIGHT:
        return _INF, 1.0
    if choice == MAX_NORM:
        return 1.0, _INF
    raise InvalidExponent(f"unknown diagonal choice {choice!r}")


def _offdiag_exponents(choice) -> tuple[float, float]:
    if isinstance(choice, HolderPair):
        return choice.p, choice.q
    if choice == MAX_PAIR:
        return _INF, 1.0
    if choice == MAX_CROSS:
        return 1.0, _INF
    raise InvalidExponent(f"unknown off-diagonal choice {choice!r}")


def _choice_label(choice) -> str:
    return "holder" if isinstance(choice, HolderPair) else str(choice)


def _master_exponents(config: BoundConfig) -> str:
    parts = []
    if isinstance(config.diag_choice, HolderPair):
        parts.append(f"p={config.diag_choice.p:g},q={config.diag_choice.q:g}")
    if isinstance(config.offdiag_choice, HolderPair):
        parts.append(f"r={config.offdiag_choice.p:g},s={config.offdiag_choice.q:g}")
    return ";".join(parts)


def _finish(ev: _Eval, name: str, exponents: str, config, raw_bound: float) -> BoundReport:
    bound = float(raw_bound) * ev.scale
    lhs = ev.lhs_sq
    return BoundReport(
        name=name,
        exponents=exponents,
        lhs_sq=lhs,
        bound=bound,
        config=config,
        slack_ratio=_slack(lhs, bound),
    )


def _master(ev: _Eval, config: BoundConfig) -> BoundReport:
    p, q = _diag_exponents(config.diag_choice)
    r, s = _offdiag_exponents(config.offdiag_choice)
    raw = ev.lp_weights(p) * ev.lp_norms(q) + ev.pair_weight(r) * ev.cross_agg(s)
    name = f"master:{_choice_label(config.diag_choice)}+{_choice_label(config.offdiag_choice)}"
    return _finish(ev, name, _master_exponents(config), config, raw)


def _cross_total(ev: _Eval) -> BoundReport:
    # largest |weight|^2 times the full n x n cross-norm mass, diagonal
    # included; already in squared form.
    raw = ev.lp_weights(_INF) * ev.cross_total_sum
    return _finish(ev, "cross_total", "", "cross_total", raw)


def _holder_count(ev: _Eval, pair: HolderPair) -> BoundReport:
    if not (math.isfinite(pair.p) and pair.p > 1.0):
        raise InvalidExponent(f"needs a finite exponent p > 1, got {pair.p}")
    bracket = ev.lp_norms(pair.q) + (ev.n - 1) * ev.cross_agg(pair.q)
    raw = ev.lp_weights(pair.p) * bracket
    return _finish(ev, "holder_count", f"p={pair.p:g},q={pair.q:g}", "holder_count", raw)


def _max_terms(ev: _Eval) -> BoundReport:
    bracket = ev.lp_norms(_INF) + (ev.n - 1) * ev.cross_agg(_INF)
    raw = ev.lp_weights(1.0) * bracket
    return _finish(ev, "max_terms", "", "max_terms", raw)


def _power_mean(ev: _Eval, r: float, name: str = "power_mean_cross") -> BoundReport:
    if not (1.0 < r <= 2.0):
        raise InvalidExponent(f"power-mean exponent must lie in (1, 2], got {r}")
    s = r / (r - 1.0)
    bracket = ev.lp_norms(_INF) + ev.n ** (2.0 / r - 1.0) * ev.cross_agg(s)
    raw = ev.lp_weights(1.0) * bracket
    return _finish(ev, name, f"r={r:g},s={s:g}", name, raw)


def _l2_cross(ev: _Eval) -> BoundReport:
    # the r = 2 power mean under its own catalog name; sharing the code
    # path makes the recapture identity exact by construction
    return _power_mean(ev, 2.0, name="l2_cross")


def _l1_cross(ev: _Eval) -> BoundReport:
    bracket = ev.lp_norms(_INF) + ev.cross_agg(1.0)
    raw = ev.lp_weights(1.0) * bracket
    return _finish(ev, "l1_cross", "", "l1_cross", raw)


def _orthogonality_holds(ev: _Eval, tol: float) -> bool:
    return float(ev.off.max()) <= tol * ev.lp_norms(_INF)


def _orthogonal(ev: _Eval, choice, tol: float) -> BoundReport:
    if not _orthogonality_holds(ev, tol):
        raise NotOrthogonalFamily(
            f"largest cross norm {float(ev.off.max()):.3e} exceeds "
            f"{tol:g} times the largest squared norm"
        )
    p, q = _diag_exponents(choice)
    # the bound is on the norm itself; the squared form equals the
    # corresponding diagonal term exactly
    raw = ev.lp_weights(p) * ev.lp_norms(q)
    exps = f"p={p:g},q={q:g}" if isinstance(choice, HolderPair) else ""
    return _finish(ev, f"orthogonal:{_choice_label(choice)}", exps, choice, raw)


def _validated_grid(exponent_grid) -> tuple[float, ...]:
    if exponent_grid is None:
        return DEFAULT_GRID
    grid = tuple(float(p) for p in exponent_grid)
    for p in grid:
        if not (p > 1.0 and math.isfinite(p)):
            raise InvalidExponent(f"grid entries must be finite and > 1, got {p}")
    return grid


def _catalog(ev: _Eval, exponent_grid, orthogonal_tol: float = ORTHOGONAL_TOL) -> list[BoundReport]:
    grid = _validated_grid(exponent_grid)
    diag_choices = [MAX_WEIGHT] + [HolderPair.conjugate(p) for p in grid] + [MAX_NORM]
    off_choices = [MAX_PAIR] + [HolderPair.conjugate(r) for r in grid] + [MAX_CROSS]
    reports = [
        _master(ev, BoundConfig(dc, oc)) for dc in diag_choices for oc in off_choices
    ]
    reports.append(_cross_total(ev))
    reports.extend(_holder_count(ev, HolderPair.conjugate(p)) for p in grid)
    reports.append(_max_terms(ev))
    reports.append(_l2_cross(ev))
    reports.append(_l1_cross(ev))
    reports.extend(_power_mean(ev, r) for r in grid if 1.0 < r <= 2.0)
    if _orthogonality_holds(ev, orthogonal_tol):
        for choice in diag_choices:
            reports.append(_orthogonal(ev, choice, orthogonal_tol))
    return reports


# -- public surface ----------------------------------------------------------


def lhs_norm_sq(alpha, A) -> float:
    """||sum alpha_i A_i||^2, the exact quantity every bound dominates."""
    return _eval_operators(alpha, A).lhs_sq


def diag_term(alpha, A, choice) -> float:
    """Upper bound for sum |a_i|^2 ||A_i||^2 per the chosen relaxation."""
    ev = _eval_operators(alpha, A)
    p, q = _diag_exponents(choice)
    return _lp_aggregate(ev.wa, p) * _lp_aggregate(ev.na, q)


def offdiag_term(alpha, A, choice) -> float:
    """Upper bound for sum_{i != j} |a_i||a_j| ||A_i A_j^*||; 0 when n = 1."""
    ev = _eval_operators(alpha, A)
    r, s = _offdiag_exponents(choice)
    return _pair_weight(ev.wa, r) * _cross_aggregate(ev.off, s)


def master_bound(alpha, A, config: BoundConfig) -> BoundReport:
    """diag_term + offdiag_term for one of the nine configurations."""
    return _master(_eval_operators(alpha, A), config)


def bound_cross_total(alpha, A) -> BoundReport:
    """(max |a_i|)^2 times the full cross-norm table, diagonal included."""
    return _cross_total(_eval_operators(alpha, A))


def bound_holder_count(alpha, A, pair: HolderPair) -> BoundReport:
    """Holder weights against a count-inflated cross bracket."""
    return _holder_count(_eval_operators(alpha, A), pair)


def bound_max_terms(alpha, A) -> BoundReport:
    """sum |a_i|^2 times [max norm^2 + (n - 1) max cross]."""
    return _max_terms(_eval_operators(alpha, A))


def bound_l2_cross(alpha, A) -> BoundReport:
    """sum |a_i|^2 times [max norm^2 + l2 mass of the cross norms]."""
    return _l2_cross(_eval_operators(alpha, A))


def bound_l1_cross(alpha, A) -> BoundReport:
    """sum |a_i|^2 times [max norm^2 + l1 mass of the cross norms]."""
    return _l1_cross(_eval_operators(alpha, A))


def bound_power_mean(alpha, A, r: float) -> BoundReport:
    """Power-mean interpolation of the cross bracket, 1 < r <= 2."""
    return _power_mean(_eval_operators(alpha, A), r)


def bound_orthogonal(alpha, A, choice, tol: float = ORTHOGONAL_TOL) -> BoundReport:
    """Diagonal-only bounds valid when all cross products vanish."""
    return _orthogonal(_eval_operators(alpha, A), choice, tol)


def catalog_reports(alpha, A, exponent_grid=None, orthogonal_tol: float = ORTHOGONAL_TOL) -> list[BoundReport]:
    """Every catalog bound on one instance, in fixed catalog order."""
    return _catalog(_eval_operators(alpha, A), exponent_grid, orthogonal_tol)


def tightest_report(reports) -> BoundReport:
    """The first strict minimum of a report list: a report replaces the
    running best only if its bound is strictly smaller, so ties resolve
    to the earliest entry."""
    return min(reports, key=lambda rep: rep.bound)


def tightest_bound(alpha, A, exponent_grid=None) -> BoundReport:
    """The smallest catalog bound; ties resolve to the earliest entry."""
    return tightest_report(catalog_reports(alpha, A, exponent_grid))


def _probe_vector(x, dim: int) -> np.ndarray:
    xv = np.asarray(x, dtype=np.complex128)
    if xv.ndim != 1 or xv.size != dim:
        raise DimensionMismatch(f"probe vector shape {xv.shape} does not match dimension {dim}")
    if not np.isfinite(xv).all():
        raise ValueError("probe entries must be finite")
    return xv


def vector_image_bound(alpha, A, x, M: float) -> tuple[float, float, bool]:
    """Check ||sum alpha_i A_i x||^2 <= M ||x||^2 for a concrete x."""
    fam = as_family(A)
    w = as_weights(alpha, fam.count)
    xv = _probe_vector(x, fam.dim)
    img = np.einsum("i,iab,b->a", w, fam.ops, xv)
    lhs = float((np.abs(img) ** 2).sum())
    rhs = float((np.abs(xv) ** 2).sum()) * M
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)


def bilinear_bound(alpha, A, x, y, M: float) -> tuple[float, float, bool]:
    """Check |sum alpha_i (A_i x, y)|^2 <= M ||x||^2 ||y||^2."""
    fam = as_family(A)
    w = as_weights(alpha, fam.count)
    xv = _probe_vector(x, fam.dim)
    yv = _probe_vector(y, fam.dim)
    img = np.einsum("i,iab,b->a", w, fam.ops, xv)
    lhs = float(abs((img * yv.conj()).sum()) ** 2)
    rhs = float((np.abs(xv) ** 2).sum()) * float((np.abs(yv) ** 2).sum()) * M
    return lhs, rhs, lhs <= rhs * (1.0 + 1e-9)
