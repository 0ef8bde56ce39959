"""The round-robin Jacobi eigensolver, kept as a test oracle.

It shares no code with either of the package's eigenvalue routes (power
iteration and LAPACK), so the tests check both against it.
"""

from functools import lru_cache

import numpy as np

from opsumbounds.errors import NoConvergence
from opsumbounds.linalg import DEFAULT_TOL

_MAX_SWEEPS = 100

_TINY = np.finfo(np.float64).tiny


@lru_cache(maxsize=64)
def _round_robin(n: int) -> tuple:
    """The n-1 rounds of a sweep on n (even) indices, cached, read-only:
    per round, the flat positions of the k = n/2 pivots (p, q) and of
    their diagonal entries, (3, k), and per index its partner, pivot
    number s and side (s for p_s, k+s for q_s).  Slot s pairs with slot
    n-1-s; index 0 stays in slot 0, and index j > 0 is in slot
    (j-1+r) % (n-1) + 1 in round r, so every pair meets once.
    """
    k = n // 2
    r = np.arange(n - 1)[:, None]
    slots = np.hstack([np.zeros_like(r), (np.arange(n - 1) - r) % (n - 1) + 1])
    p, q = slots[:, :k], slots[:, : k - 1 : -1]
    at = np.argsort(slots, axis=1)
    side = np.r_[0:k, n - 1 : k - 1 : -1][at]
    rounds = (np.stack([p * n + q, p * (n + 1), q * (n + 1)], axis=1),
              np.take_along_axis(slots[:, ::-1], at, axis=1), side % k, side)
    for a in rounds:
        a.flags.writeable = False
    return rounds


def _jacobi_stack(ws: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending, one row per slice) of a stack of Hermitian
    matrices, by Jacobi sweeps in round-robin order (Brent & Luk, 1985).

    A matrix of odd size d is bordered by a zero row and column at index
    0, which pairs only with zero pivots and so is never rotated.  A
    sweep is the n-1 rounds of n/2 disjoint pivots of _round_robin, each
    applied to every slice at once in the matrix's own index order: a
    gather reads the pivots and their diagonal entries, and each column,
    then each row, is updated from itself and its partner, so a round
    costs O(n^2) per slice.  A pivot h is reduced to a real 2x2 problem
    through its phase and annihilated by the classical rotation, up to
    rounding; with tol = DEFAULT_TOL, pivots with |h| <= tol ||W||_F /
    (4 d^2) are skipped.  The diagonal is read as its real part.  A
    slice is done, and leaves the active set, when the Frobenius mass of
    its off-diagonal part is at most tol ||W||_F, tested before each
    sweep.  Raises NoConvergence after _MAX_SWEEPS.
    """
    m, d, _ = ws.shape
    pad = d % 2
    n = d + pad
    w = np.zeros((m, n, n), dtype=np.complex128)
    w[:, pad:, pad:] = ws
    target = DEFAULT_TOL * np.sqrt((w.real**2 + w.imag**2).sum(axis=(1, 2)))
    skip = target[:, None] / (4.0 * d * d)
    off = ~np.eye(n, dtype=bool)
    out = np.zeros((m, n))
    idx = np.arange(m)
    for sweep in range(_MAX_SWEEPS + 1):
        # summed directly off the off-diagonal entries: subtracting the
        # diagonal mass from the total would cancel catastrophically and
        # bottom out near eps * ||w||^2, far above target^2
        off_sq = ((w.real**2 + w.imag**2) * off).sum(axis=(1, 2))
        finished = off_sq <= target * target
        if finished.any():
            out[idx[finished]] = w[finished].diagonal(axis1=1, axis2=2).real
            keep = ~finished
            if not keep.any():
                break
            idx, w, target, skip = idx[keep], w[keep], target[keep], skip[keep]
        if sweep == _MAX_SWEEPS:
            raise NoConvergence("jacobi sweep limit reached")
        for gather, partner, pair, side in zip(*_round_robin(n)):
            piv = w.reshape(len(w), n * n).take(gather, axis=1)
            h = piv[:, 0]
            ah = np.abs(h)
            live = ah > skip
            h = h * live
            ah = ah * live
            # t = sign(tau) / (|tau| + sqrt(1 + tau^2)), tau = (w_qq - w_pp) / (2 |h|);
            # multiplying top and bottom by 2 |h| gives t = g |h|, which cannot
            # overflow for small |h|.  The floor keeps a skipped pivot between
            # equal diagonal entries at t = 0 instead of 0/0.
            diff = piv[:, 2].real - piv[:, 1].real
            g = np.copysign(2.0, diff) / np.maximum(np.abs(diff) + np.hypot(diff, 2.0 * ah), _TINY)
            c = 1.0 / np.sqrt(1.0 + (g * ah) ** 2)
            sp = c * g * h
            # p_s gets coefficient c on itself and -conj(sp) on q_s, and
            # q_s gets c on itself and sp on p_s
            cs = c.take(pair, axis=1)
            ss = np.concatenate([-sp.conj(), sp], axis=1).take(side, axis=1)
            x = w * cs[:, None, :] + w.take(partner, axis=2) * ss[:, None, :]
            w = x * cs[:, :, None] + x.take(partner, axis=1) * ss.conj()[:, :, None]
    return np.sort(out[:, pad:], axis=1)
