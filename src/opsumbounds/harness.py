"""Instance generation, catalog-wide verification, and slack sweeps.

All randomness flows through the package's portable generator, so a
spec (kind, dim, count, seed) reproduces the same instance on any
platform, and the same verification numbers with it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import repeat
from typing import NamedTuple

import numpy as np

from . import bounds
from .cbs import OperatorFamily, as_weights, cbs_operator_gap
from .errors import InvalidSpec
from .problemio import format_float
from .rng import PortableRng, derive_seed
from .vectors import VectorFamily, rank_one_family

KINDS = (
    "GaussianDense",
    "UnitaryScaled",
    "RankOneFromVectors",
    "BlockOrthogonal",
    "OrthonormalRankOne",
)

_PROBE_COUNT = 8
_PROBE_SALT = 0x50B1
_CHECK_NAMES: dict = {}  # verify's check names by (grid, catalog length), which fix them


def _is_int(value) -> bool:
    # bool is an int subclass, but True is no dimension, count or seed
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class InstanceSpec:
    kind: str
    dim: int
    count: int
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InvalidSpec(f"unknown kind {self.kind!r}; expected one of {', '.join(KINDS)}")
        if not (_is_int(self.dim) and self.dim >= 1):
            raise InvalidSpec(f"dim must be a positive integer, got {self.dim!r}")
        if not (_is_int(self.count) and self.count >= 1):
            raise InvalidSpec(f"count must be a positive integer, got {self.count!r}")
        if not _is_int(self.seed):
            raise InvalidSpec(f"seed must be an integer, got {self.seed!r}")
        if self.kind in ("BlockOrthogonal", "OrthonormalRankOne") and self.dim < self.count:
            raise InvalidSpec(f"{self.kind} needs dim >= count, got dim={self.dim}, count={self.count}")


def _gram_schmidt_stack(m: np.ndarray) -> np.ndarray:
    """Orthonormalize the columns of each matrix of an (n, d, d) stack by
    modified Gram-Schmidt, one column of the whole stack at a time.

    Raises ValueError when a column's residual is not above 1e-12 times
    that column's norm (a numerically dependent input, which Gaussian
    draws essentially never are).  The test is relative, so scaling the
    stack by a power of two changes no bit of the result.

    Each slice gets the arithmetic of the one-matrix loop, in the same
    order, so the bits equal that loop's: each projection coefficient
    and each squared norm is a per-slice dot, which numpy sends to the
    BLAS dot that a 1-d ``@`` and ``np.linalg.norm`` use.
    """
    d = m.shape[1]
    floor = 1e-12 * np.linalg.norm(m, axis=1)
    # Column j of the result and its conjugate, each a contiguous (n, d)
    # array.  The dots must read unit-stride rows: BLAS sums a strided
    # vector in another order, and a column sliced out of a stored
    # (conjugate) matrix changed the bits.
    cols: list[np.ndarray] = []
    conj_cols: list[np.ndarray] = []
    for j in range(d):
        v = m[:, :, j].copy()
        for i in range(j):
            v -= (conj_cols[i][:, None, :] @ v[:, :, None])[:, 0] * cols[i]
        # np.linalg.norm's route: real part's dot plus imaginary part's dot
        re, im = v.real, v.imag
        nv = np.sqrt((re[:, None, :] @ re[:, :, None] + im[:, None, :] @ im[:, :, None])[:, 0, 0])
        if not (nv > floor[:, j]).all():
            raise ValueError(f"column {j} of a base matrix is numerically dependent on the columns before it")
        col = v / nv[:, None]
        cols.append(col)
        conj_cols.append(col.conj())
    return np.stack(cols, axis=2)


def generate(spec: InstanceSpec):
    """Deterministically build (weights, OperatorFamily, VectorFamily or None)."""
    rng = PortableRng(derive_seed(spec.seed, KINDS.index(spec.kind), spec.dim, spec.count))
    n, d = spec.count, spec.dim
    vf = None
    if spec.kind == "GaussianDense":
        ops = rng.complex_normal((n, d, d))
    elif spec.kind == "UnitaryScaled":
        base = rng.complex_normal((n, d, d))
        ops = rng.complex_normal(n)[:, None, None] * _gram_schmidt_stack(base)
    elif spec.kind == "RankOneFromVectors":
        vf = VectorFamily(rng.complex_normal((n, d)))
    elif spec.kind == "BlockOrthogonal":
        base = d // n
        sizes = [base + 1] * (d % n) + [base] * (n - d % n)
        ops = np.zeros((n, d, d), dtype=np.complex128)
        offset = 0
        for i, k in enumerate(sizes):
            ops[i, offset : offset + k, offset : offset + k] = rng.complex_normal((k, k))
            offset += k
    else:
        # OrthonormalRankOne: distinct basis vectors, unit weights; the
        # resulting operators are commuting orthogonal projections with
        # exactly vanishing cross products.
        vf = VectorFamily(np.eye(d, dtype=np.complex128)[rng.permutation(d)[:n]])
    weights = np.ones(n, dtype=np.complex128) if spec.kind == "OrthonormalRankOne" else rng.complex_normal(n)
    return weights, (OperatorFamily(ops) if vf is None else rank_one_family(vf)), vf


class CheckRecord(NamedTuple):
    name: str
    lhs: float
    bound: float
    holds: bool
    slack_ratio: float


@dataclass(frozen=True)
class VerificationResult:
    checks: list
    all_hold: bool
    worst_violation: float


@lru_cache(maxsize=64)
def _probes(dim: int, count: int) -> tuple[np.ndarray, ...]:
    # The probe vectors depend on the shape alone; cached, read-only.
    prng = PortableRng(derive_seed(_PROBE_SALT, dim, count))
    probes = (np.ones(dim, dtype=np.complex128),) + tuple(prng.complex_normal(dim) for _ in range(_PROBE_COUNT))
    for x in probes:
        x.flags.writeable = False
    return probes


def verify_instance(alpha, fam: OperatorFamily | VectorFamily, tol: float = bounds.CHECK_TOL, *,
                    exponent_grid=None) -> VerificationResult:
    """Run every inequality in the catalog against one instance.

    fam is an OperatorFamily, or a VectorFamily, which is verified through
    its materialized operators, as generate builds the rank-one kinds.
    Records, per check: name, the exact quantity being dominated, the
    dominating quantity, whether it holds and the slack ratio.  tol is
    the relative tolerance of the catalog checks alone: cbs_norm and the
    probes hold at bounds.CHECK_TOL, the PSD checks at the gap's limits.
    """
    if isinstance(fam, VectorFamily):
        fam = rank_one_family(fam)
    if isinstance(tol, (bool, np.bool_)) or not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    w = as_weights(alpha, fam.count)
    grid = bounds.check_grid(exponent_grid)
    # formed first, sum A_i A_i^* joins the norm pass that the catalog starts
    fam.sum_products
    reports = bounds.catalog_reports(w, fam, grid)
    gap = cbs_operator_gap(w, fam)
    lhs = reports[0].lhs_sq
    rhs = float(np.add.reduce(np.abs(w) ** 2)) * fam.sum_products_norm
    m = bounds.tightest_report(reports).bound

    # the checks' names, left sides, bounds and verdicts as columns, in report order
    probe_lhs, probe_bound, probe_holds = zip(*bounds.probe_checks(w, fam, _probes(fam.dim, fam.count), m))
    names = _CHECK_NAMES.get((grid, len(reports)))
    if names is None:
        if len(_CHECK_NAMES) >= 16:
            _CHECK_NAMES.clear()
        names = _CHECK_NAMES[grid, len(reports)] = (
            "psd_gap", "psd_gap_inner", "cbs_norm",
            *(f"{r.name}({r.exponents})" if r.exponents else r.name for r in reports),
            *(f"{check}_probe_{k}" for check in ("image", "bilinear") for k in range(_PROBE_COUNT + 1)))
    lhss = [-gap.min_eigenvalue, -gap.inner_min_eigenvalue, lhs, *[lhs] * len(reports), *probe_lhs]
    rhss = [gap.limit, gap.inner_limit, rhs, *(rep.bound for rep in reports), *probe_bound]
    holds = [gap.holds, gap.inner_holds, lhs <= rhs * (1.0 + bounds.CHECK_TOL),
             *(lhs <= rep.bound * (1.0 + tol) for rep in reports), *probe_holds]
    la, ra = np.array(lhss), np.array(rhss)
    # a PSD gap's lhs, a negated eigenvalue, may be negative: the ratio reads it as 0;
    # the violation is lhs/bound - 1 above 0, or inf for lhs > 0 over a bound that is not
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        violations = np.where(ra > 0.0, np.maximum(la / ra - 1.0, 0.0), np.where(la <= 0.0, 0.0, np.inf))
    rows = zip(names, lhss, rhss, holds, bounds.slack_ratio(la, ra).tolist())
    checks = list(map(tuple.__new__, repeat(CheckRecord), rows))
    return VerificationResult(checks=checks, all_hold=all(holds),
                              worst_violation=max([0.0] + violations.tolist()))


def slack_sweep(specs, exponent_grid=None) -> list[tuple]:
    """One row per (instance, catalog bound): seed, kind, dim, count,
    bound name, exponents, lhs, bound value, slack ratio.  Row order is
    spec order, then catalog order.  The grid is checked before any instance."""
    grid = bounds.check_grid(exponent_grid)
    rows = []
    for spec in specs:
        weights, fam, _ = generate(spec)
        for rep in bounds.catalog_reports(weights, fam, grid):
            rows.append((spec.seed, spec.kind, spec.dim, spec.count,
                         rep.name, rep.exponents, rep.lhs_sq, rep.bound, rep.slack_ratio))
    return rows


CSV_HEADER = ("seed", "kind", "dim", "count", "bound", "exponents", "lhs", "bound_value", "slack_ratio")


def write_slack_csv(rows, path) -> None:
    """Emit the sweep table: UTF-8, LF endings, 17 significant digits."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows([format_float(v) if isinstance(v, float) else v for v in row] for row in rows)
