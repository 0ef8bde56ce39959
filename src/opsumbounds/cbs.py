"""Operator-order form of the Cauchy-Bunyakovsky-Schwarz inequality.

For operators A_1..A_n on C^d and scalars z_1..z_n, the weighted sum
S = sum z_i A_i satisfies, in the PSD order,

    S S^*  <=  (sum |z_i|^2) (sum A_i A_i^*),

with both sides PSD.  This module materializes the gap between the two
sides and tests it.  Its scalar norm consequence
||S||^2 <= (sum |z_i|^2) ||sum A_i A_i^*|| reads both sides from one
family's norm pass (OperatorFamily.weighted_sum_norm and
sum_products_norm).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import linalg
from .errors import DimensionMismatch, finite_array


def as_weights(z, n: int) -> np.ndarray:
    """Coerce a weight list to a finite complex 1-d array of n entries."""
    w = finite_array(z, 1, "weights")
    if w.size != n:
        raise DimensionMismatch(f"{w.size} weights for a family of {n} operators")
    return w


class OperatorFamily:
    """A family A_1..A_n of d x d operators with cached norm data.

    The norm caches exist because the whole point of the bound catalog
    is to avoid touching the assembled sum: every bound is arithmetic
    over ||A_i|| and ||A_i A_j^*||, so those are computed once, in one
    batched norm pass (linalg.spectral_norms), on first use; ||sum z_i
    A_i|| rides in that pass as one more slice when it comes first
    (weighted_sum_norm).
    """

    def __init__(self, ops):
        stack = finite_array(ops, 3, "operators")
        if stack.shape[1] != stack.shape[2]:
            raise DimensionMismatch(f"expected a stack of square matrices, got shape {stack.shape}")
        self.ops = stack
        self.count = int(stack.shape[0])
        self.dim = int(stack.shape[1])

    def weighted_sum(self, z) -> np.ndarray:
        w = as_weights(z, self.count)
        return np.einsum("i,iab->ab", w, self.ops)

    @cached_property
    def sum_products(self) -> np.ndarray:
        """The matrix sum A_1 A_1^* + ... + A_n A_n^*."""
        return np.einsum("iab,icb->ac", self.ops, self.ops.conj())

    def _norm_pass(self, extra: np.ndarray):
        """(norm data, norms of extra's slices) from one spectral_norms call; each
        slice is solved on its own, so extra changes no bit of the norm data.

        The stack [A_i A_j^* for i <= j, A_1..A_n, sum A_i A_i^*, extra]
        is allocated once and filled in place, so no slice is held twice.
        """
        n = self.count
        iu, ju = _upper_pairs(n)
        p = iu.size
        m = p + n
        stack = np.empty((m + 1 + len(extra), self.dim, self.dim), dtype=np.complex128)
        np.einsum("kab,kcb->kac", self.ops[iu], self.ops.conj()[ju], out=stack[:p])
        stack[p:m] = self.ops
        stack[m] = self.sum_products
        stack[m + 1 :] = extra
        values = linalg.spectral_norms(stack)
        cross = np.zeros((n, n))
        cross[iu, ju] = values[:p]
        cross[ju, iu] = values[:p]
        return (values[p:m], cross, float(values[m])), values[m + 1 :]

    @cached_property
    def _norm_data(self):
        return self._norm_pass(self.ops[:0])[0]

    def weighted_sum_norm(self, z) -> float:
        """||sum z_i A_i||, solved in the norm-data pass if that is not cached yet."""
        s = self.weighted_sum(z)[None]
        if "_norm_data" in self.__dict__:
            return float(linalg.spectral_norms(s)[0])
        self._norm_data, values = self._norm_pass(s)
        return float(values[0])

    @property
    def norms(self) -> np.ndarray:
        """||A_i|| for each member."""
        return self._norm_data[0]

    @property
    def cross(self) -> np.ndarray:
        """Full n x n table of ||A_i A_j^*||, diagonal included."""
        return self._norm_data[1]

    @property
    def sum_products_norm(self) -> float:
        """||sum A_i A_i^*||."""
        return self._norm_data[2]


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    # ||A_i A_j^*|| = ||A_j A_i^*|| (adjoint invariance), so only the
    # upper triangle goes through the norm computation; cached, read-only
    iu, ju = np.triu_indices(n)
    iu.flags.writeable = False
    ju.flags.writeable = False
    return iu, ju


@dataclass(frozen=True)
class PsdGapResult:
    """Outcome of the operator-order check.

    gap is the symmetrized difference between the dominating side and
    S S^*; holds records whether its smallest eigenvalue is at least
    -limit, with limit = linalg.PSD_TOL * max(1, ||gap||).  The inner_*
    fields report the same test on S S^* itself, which must also be PSD.
    """

    gap: np.ndarray
    min_eigenvalue: float
    holds: bool
    limit: float
    inner_min_eigenvalue: float
    inner_holds: bool
    inner_limit: float


def _psd_verdict(eigs: np.ndarray) -> tuple[float, float, bool]:
    lo = float(eigs[0])
    limit = linalg.PSD_TOL * max(1.0, abs(lo), abs(float(eigs[-1])))
    return lo, limit, lo >= -limit


def cbs_operator_gap(z, fam: OperatorFamily) -> PsdGapResult:
    """The PSD gap (sum |z_i|^2)(sum A_i A_i^*) - S S^* with S = sum z_i A_i.

    The assembled difference is symmetrized before eigenvalue analysis:
    the exact gap is self-adjoint, floating point is not quite.  The gap
    and the symmetrized S S^* go to the eigensolver as one stack.
    """
    w = as_weights(z, fam.count)
    s = fam.weighted_sum(w)
    inner = s @ s.conj().T
    raw = float((np.abs(w) ** 2).sum()) * fam.sum_products - inner
    gap = 0.5 * (raw + raw.conj().T)
    eigs = linalg.hermitian_eigenvalues(np.stack([gap, 0.5 * (inner + inner.conj().T)]))
    min_eig, limit, holds = _psd_verdict(eigs[0])
    inner_min, inner_limit, inner_holds = _psd_verdict(eigs[1])
    return PsdGapResult(
        gap=gap,
        min_eigenvalue=min_eig,
        holds=holds,
        limit=limit,
        inner_min_eigenvalue=inner_min,
        inner_holds=inner_holds,
        inner_limit=inner_limit,
    )

