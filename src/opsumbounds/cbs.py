"""Operator-order form of the Cauchy-Bunyakovsky-Schwarz inequality.

For operators A_1..A_n on C^d and scalars z_1..z_n, the weighted sum
S = sum z_i A_i satisfies, in the PSD order,

    S S^*  <=  (sum |z_i|^2) (sum A_i A_i^*),

with both sides PSD.  This module materializes the gap between the two
sides and tests it.  Its scalar norm consequence
||S||^2 <= (sum |z_i|^2) ||sum A_i A_i^*|| takes both sides from one
norm pass of the family when the sum is formed before the pass
(OperatorFamily.weighted_sum_norm and sum_products_norm).
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
    (weighted_sum_norm), and so does sum A_i A_i^* once formed.
    ||A_i A_i^*|| is ||A_i||^2: no slice of its own.  Beside the last S,
    the family keeps the last probe image and the last probe's ||x||^2.
    """

    def __init__(self, ops):
        stack = finite_array(ops, 3, "operators")
        if stack.shape[1] != stack.shape[2]:
            raise DimensionMismatch(f"expected a stack of square matrices, got shape {stack.shape}")
        self.ops = stack
        self.count = int(stack.shape[0])
        self.dim = int(stack.shape[1])
        self._last_sum = self._last_image = self._last_norm_sq = (None, None)

    def weighted_sum(self, z) -> np.ndarray:
        """S = sum z_i A_i, read-only, kept for the bytes of the last weights."""
        w = as_weights(z, self.count)
        if self._last_sum[0] != w.tobytes():
            self._last_sum = (w.tobytes(), np.einsum("i,iab->ab", w, self.ops))
            self._last_sum[1].flags.writeable = False
        return self._last_sum[1]

    def probe_image(self, w: np.ndarray, x: np.ndarray) -> np.ndarray:
        """sum w_i A_i x for checked w and x, read-only, kept for the bytes of the last w and x."""
        if self._last_image[0] != (key := (w.tobytes(), x.tobytes())):
            self._last_image = (key, np.einsum("i,iab,b->a", w, self.ops, x))
            self._last_image[1].flags.writeable = False
        return self._last_image[1]

    def probe_norm_sq(self, x: np.ndarray) -> float:
        """||x||^2 for a checked probe x, kept for the bytes of the last probe."""
        if self._last_norm_sq[0] != (key := x.tobytes()):
            self._last_norm_sq = (key, float(np.add.reduce(np.abs(x) ** 2)))
        return self._last_norm_sq[1]

    @cached_property
    def sum_products(self) -> np.ndarray:
        """The matrix sum A_1 A_1^* + ... + A_n A_n^*."""
        return np.einsum("iab,icb->ac", self.ops, self.ops.conj())

    def _norm_pass(self, extra: np.ndarray):
        """((norms, cross), norms of extra's slices) from one spectral_norms call;
        each slice is solved on its own, so extra changes no bit of the norm data.

        The stack [A_i A_j^* for i < j, A_1..A_n, extra] is allocated once and
        filled in place, so no slice is held twice; cross's diagonal is norms**2.
        A formed sum_products is one more slice, and its norm is kept.
        """
        n = self.count
        iu, ju = _upper_pairs(n)
        p = iu.size
        m = p + n
        formed = "sum_products" in self.__dict__
        stack = np.empty((m + len(extra) + formed, self.dim, self.dim), dtype=np.complex128)
        np.einsum("kab,kcb->kac", self.ops[iu], self.ops.conj()[ju], out=stack[:p])
        stack[p:m] = self.ops
        stack[m:] = [*extra, self.sum_products] if formed else extra
        values = linalg.spectral_norms(stack)
        if formed:
            self._sum_products_norm = float(values[-1])
        norms = values[p:m]
        cross = np.diag(norms * norms)
        cross[iu, ju] = values[:p]
        cross[ju, iu] = values[:p]
        return (norms, cross), values[m:]

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
        """Full n x n table of ||A_i A_j^*||; its diagonal is norms**2."""
        return self._norm_data[1]

    @property
    def sum_products_norm(self) -> float:
        """||sum A_i A_i^*||, from the norm pass if the sum was formed first; no bound reads it."""
        if "_sum_products_norm" not in self.__dict__:
            self._sum_products_norm = float(linalg.spectral_norms(self.sum_products[None])[0])
        return self._sum_products_norm


@lru_cache(maxsize=64)
def _upper_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    # ||A_i A_j^*|| = ||A_j A_i^*|| (adjoint invariance), so only the
    # pairs i < j go through the norm computation; cached, read-only
    iu, ju = np.triu_indices(n, 1)
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


def _psd_verdict(eigs: np.ndarray) -> tuple[float, bool, float]:
    lo = float(eigs[0])
    limit = linalg.PSD_TOL * max(1.0, abs(lo), abs(float(eigs[-1])))
    return lo, lo >= -limit, limit


def cbs_operator_gap(z, fam: OperatorFamily) -> PsdGapResult:
    """The PSD gap (sum |z_i|^2)(sum A_i A_i^*) - S S^* with S = sum z_i A_i.

    The assembled difference is symmetrized before eigenvalue analysis:
    the exact gap is self-adjoint, floating point is not quite.  The gap
    and S S^* as formed go to hermitian_eigenvalues, which symmetrizes both.
    """
    w = as_weights(z, fam.count)
    s = fam.weighted_sum(w)
    inner = s @ s.conj().T
    raw = float(np.add.reduce(np.abs(w) ** 2)) * fam.sum_products - inner
    gap = 0.5 * (raw + raw.conj().T)
    eigs = linalg.hermitian_eigenvalues(np.stack([gap, inner]))
    return PsdGapResult(gap, *_psd_verdict(eigs[0]), *_psd_verdict(eigs[1]))
