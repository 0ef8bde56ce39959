"""Dense complex linear algebra with explicit, checkable iterations.

Everything downstream consumes this module: spectral norms via power
iteration, and Hermitian eigenvalues via Jacobi sweeps in a round-robin
order cached per size, which rotate every slice of a stack at once in
its own index order.  The two eigenvalue routes are kept side by side
on purpose so each can serve as an independent oracle for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, finite_array

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000
_MAX_SWEEPS = 100
PSD_TOL = 1e-8

_TINY = np.finfo(np.float64).tiny


@dataclass(frozen=True)
class SpectralNormResult:
    value: float
    iterations: int
    residual: float


@lru_cache(maxsize=64)
def _perturbation(k: int) -> np.ndarray:
    # Fixed direction with irrational entry pattern; used both to confirm
    # convergence and to escape kernel-trapped iterates; cached, read-only.
    j = np.arange(k)
    p = np.sin(3.0 * j + 1.0) + 1j * np.cos(5.0 * j + 2.0)
    p = p / np.linalg.norm(p)
    p.flags.writeable = False
    return p


def pow2_scale(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each stack[i] divided by 2^e over all of its remaining axes, with
    e the binary exponent of its largest real or imaginary part, and the
    exponents e.

    Dividing by a power of two is exact, so a result computed on the
    scaled slices and multiplied back by np.ldexp carries the same bits
    as the unscaled computation, while the squares and products that
    make up B and the Jacobi scale can no longer overflow, nor underflow
    at the slice's own scale.
    """
    parts = np.asarray(stack, dtype=np.complex128, order="C").view(np.float64)
    exps = np.frexp(np.abs(parts).max(axis=tuple(range(1, parts.ndim))))[1]
    return np.ldexp(parts, -exps.reshape((-1,) + (1,) * (parts.ndim - 1))).view(np.complex128), exps


def _hermitian_products(stack: np.ndarray) -> np.ndarray:
    """B = S^H S for each slice, or S S^H for wide slices (the smaller side)."""
    adj = stack.conj().transpose(0, 2, 1)
    rows, cols = stack.shape[1:]
    return adj @ stack if rows >= cols else stack @ adj


_SQUARINGS = 10


def _squared_power(bs: np.ndarray) -> np.ndarray:
    """B^(2^_SQUARINGS) for each slice, up to a positive factor.

    Each slice is divided by its trace before every squaring, which
    keeps the top eigenvalue between 1/k^2 and 1, so nothing overflows
    and the dominant part never underflows.  A zero slice stays zero.
    """
    c = bs
    for _ in range(_SQUARINGS):
        tr = c.trace(axis1=1, axis2=2).real
        c = c / np.where(tr > 0.0, tr, 1.0)[:, None, None]
        c = c @ c
    return c


def _unit_rows(w: np.ndarray, pert: np.ndarray) -> np.ndarray:
    # a row with an exactly zero image (a kernel stall) restarts from pert
    nw = np.sqrt((w.real**2 + w.imag**2).sum(axis=1))
    alive = nw > 0.0
    return np.where(alive[:, None], w / np.where(alive, nw, 1.0)[:, None], pert)


def _power_stack(bs: np.ndarray):
    """Largest eigenvalues of a stack of Hermitian PSD matrices.

    Each slice B is first squared _SQUARINGS times (renormalized before
    each squaring), giving C proportional to B^1024, whose eigenvalue
    ratios are those of B raised to the 1024th power: a relative gap of
    1e-3 between the top two eigenvalues of B becomes a ratio of 0.36
    in C.  Deterministic power iteration from a normalized all-ones
    start then moves the iterate v one step with C between checks,
    while every check is made on B itself: the eigenvalue is the
    Rayleigh quotient v^H B v / v^H v and the residual is
    ||B v - lam v|| / (|lam| ||v||), so DEFAULT_TOL bounds a relative
    eigen-residual of B.

    Every slice must pass the residual test twice, with a fixed
    perturbation applied between the passes: a start vector that is
    orthogonal to the dominant eigenspace (or sits in the kernel)
    satisfies the residual test while converging to the wrong
    eigenvalue, and only the restart can tell the difference.  A
    kernel-stalled iterate (image exactly zero) is replaced by the
    perturbation vector.  Finished slices leave the active arrays.

    Returns (eigenvalue, iterations, relative residual, converged), where
    iterations counts the steps taken with C, not with B, and is at most
    DEFAULT_MAX_ITER.
    """
    m, k, _ = bs.shape
    lam = np.zeros(m)
    resid = np.zeros(m)
    iters = np.zeros(m, dtype=np.int64)
    done = np.zeros(m, dtype=bool)
    pert = _perturbation(k)

    idx = np.arange(m)
    b = bs
    c = _squared_power(bs)
    v = np.full((m, k), 1.0 / math.sqrt(k), dtype=np.complex128)
    seen = np.zeros(m, dtype=bool)
    for _ in range(DEFAULT_MAX_ITER):
        v = _unit_rows((c @ v[:, :, None])[:, :, 0], pert)
        bv = (b @ v[:, :, None])[:, :, 0]
        vv = (v.real**2 + v.imag**2).sum(axis=1)
        lam_a = (v.conj() * bv).sum(axis=1).real / vv
        r = bv - lam_a[:, None] * v
        gap = np.sqrt((r.real**2 + r.imag**2).sum(axis=1))
        rel = gap / (np.maximum(np.abs(lam_a), _TINY) * np.sqrt(vv))
        iters[idx] += 1
        lam[idx] = lam_a
        resid[idx] = rel

        ok = rel <= DEFAULT_TOL
        finished = ok & seen
        fresh = ok & ~seen
        if fresh.any():
            v[fresh] = _unit_rows(v[fresh] + 0.25 * pert, pert)
            seen = seen | fresh
        if finished.any():
            done[idx[finished]] = True
            keep = ~finished
            if not keep.any():
                break
            idx, b, c, v, seen = idx[keep], b[keep], c[keep], v[keep], seen[keep]
    return lam, iters, resid, done


def spectral_norm(m) -> SpectralNormResult:
    """Largest singular value of M, via power iteration on M^H M.

    The residual reported is the relative eigen-residual of the final
    iterate on the Hermitian product matrix, and iterations counts the
    steps taken on its repeated square (see _power_stack).  Raises
    NoConvergence when the residual is still above DEFAULT_TOL after
    DEFAULT_MAX_ITER steps.
    """
    scaled, exps = pow2_scale(finite_array(m, 2, "matrix")[None])
    lam, iters, resid, done = _power_stack(_hermitian_products(scaled))
    value = math.ldexp(math.sqrt(max(float(lam[0]), 0.0)), int(exps[0]))
    if not done[0]:
        raise NoConvergence(
            f"spectral norm residual {float(resid[0]):.3e} above tol {DEFAULT_TOL:.3e} "
            f"after {int(iters[0])} iterations")
    return SpectralNormResult(value=value, iterations=int(iters[0]), residual=float(resid[0]))


def spectral_norms(ms) -> np.ndarray:
    """Spectral norms of a stack of same-shape matrices.

    Power iteration first; the slices whose spectral gap is too small
    to converge in DEFAULT_MAX_ITER steps fall back together to the
    Jacobi eigenvalue route, which is slower but gap-independent.
    """
    scaled, exps = pow2_scale(finite_array(ms, 3, "matrices"))
    bs = _hermitian_products(scaled)
    del scaled  # not read again; freeing it lowers the peak of a large stack
    lam, _, _, done = _power_stack(bs)
    if not done.all():
        lam[~done] = _jacobi_stack(bs[~done])[:, -1]
    return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), exps)


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


def _require_hermitian(stack: np.ndarray) -> None:
    asym = np.abs(stack - stack.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    scale = np.abs(stack).max(axis=(1, 2))
    bad = np.flatnonzero(asym > DEFAULT_TOL * scale)
    if bad.size:
        i = bad[0]
        raise NotHermitian(
            f"matrix deviates from its adjoint by {asym[i]:.3e} (largest entry {scale[i]:.3e})"
        )


def hermitian_eigenvalues(h) -> np.ndarray:
    """All eigenvalues of (H + H^H)/2 for each H of a stack of square
    matrices, ascending, one row per slice, by round-robin Jacobi.

    Each slice is divided by a power of two near its largest entry
    first, so that entries of any representable size give eigenvalues
    to full relative accuracy.  Raises NotHermitian when H deviates from
    its adjoint by more than DEFAULT_TOL times its largest entry.
    """
    stack = finite_array(h, 3, "matrices")
    if stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {stack.shape}")
    scaled, exps = pow2_scale(stack)
    _require_hermitian(scaled)
    w = 0.5 * (scaled + scaled.conj().transpose(0, 2, 1))
    return np.ldexp(_jacobi_stack(w), exps[:, None])
