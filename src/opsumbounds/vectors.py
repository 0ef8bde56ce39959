"""Rank-one operator families built from vectors, evaluated Gram-only.

For nonzero vectors y_1..y_n, the operators A_i = y_i y_i^H / ||y_i||
satisfy ||A_i|| = ||y_i|| and ||A_i A_j^H|| = |(y_i, y_j)|, so the whole
bound catalog collapses to arithmetic over the Gram matrix: a
VectorFamily goes to bounds.catalog_reports as it is, and never
materializes the operators or their sum; the matrix path, which
harness.verify_instance takes, cross-validates it.

The left side uses the usual rank reduction: with Z the d x n matrix of
columns y_i and D = diag(alpha_i / ||y_i||), the weighted sum is
S = Z D Z^H.  The thin QR factorization Z = QR, with orthonormal columns
in Q, gives S = Q (R D R^H) Q^H, so ||S|| = ||R D R^H||, a norm problem
of size min(d, n).  It holds for any F with F^H F = Gbar, the conjugated
Gram matrix; R is such an F taken from the vectors themselves, so no
entry is ever squared.  The norms ||y_i||, and R, are computed after
scaling each vector by a power of two, so the left side keeps full
relative accuracy whenever it and the norms are representable, subnormal
entries included.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import linalg
from .cbs import OperatorFamily, as_weights
from .errors import ZeroVector, finite_array


class VectorFamily:
    """Nonzero vectors y_1..y_n in C^d, with the norm data of their rank-one
    operators read off the Gram matrix."""

    def __init__(self, vectors):
        stack = finite_array(vectors, 2, "vectors")
        # the rows u_i of _scaled: y_i = 2^e_i u_i with 2^e_i near y_i's
        # largest part, so no square of u_i can overflow or underflow
        self._scaled, self._exps = linalg.pow2_scale(stack)
        self._unit_norms = np.sqrt((np.abs(self._scaled) ** 2).sum(axis=1))
        norms = np.ldexp(self._unit_norms, self._exps)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroVector(f"vectors[{zero[0]}] is the zero vector")
        self.vectors = stack
        self.count = int(stack.shape[0])
        self.dim = int(stack.shape[1])
        self.norms = norms

    @cached_property
    def cross(self) -> np.ndarray:
        """|(y_i, y_j)| = ||A_i A_j^H||, the full n x n table."""
        return np.abs(self.vectors @ self.vectors.conj().T)

    @cached_property
    def _unit_r_factor(self) -> np.ndarray:
        # R of the power-of-two-scaled vectors over their own norms: a
        # subnormal norm has no finite reciprocal
        return np.linalg.qr(self._scaled.T, mode="r") / self._unit_norms

    def weighted_sum_norm(self, alpha) -> float:
        """||sum alpha_i A_i|| as ||R D R^H||, with R the R factor of
        the vectors (at most min(d, n) rows) and D = diag(alpha_i / ||y_i||).

        It is computed as ||U diag(alpha_i ||y_i||) U^H|| with U = R
        diag(1/||y_i||), the cached R factor of the unit vectors, whose
        entries are at most 1: no intermediate leaves the scale of S.
        """
        w = as_weights(alpha, self.count)
        u = self._unit_r_factor
        return float(linalg.spectral_norms(((u * (w * self.norms)) @ u.conj().T)[None])[0])


def rank_one_family(vf: VectorFamily) -> OperatorFamily:
    """Materialize A_i = y_i y_i^H / ||y_i|| as explicit matrices, as
    2^e u_i u_i^H / ||u_i|| with y_i = 2^e u_i: a tiny y_i meets no square
    that underflows, nor numpy's complex division by a subnormal (nan)."""
    ops = np.einsum("ia,ib->iab", vf._scaled, vf._scaled.conj()) / vf._unit_norms[:, None, None]
    return OperatorFamily(np.ldexp(ops.view(np.float64), vf._exps[:, None, None]).view(np.complex128))


def bessel_weighting(vf: VectorFamily) -> np.ndarray:
    """Weights alpha_i = ||y_i||, turning the bounded quantity into the
    frame-operator image sum (x, y_i) y_i."""
    return vf.norms.copy()
