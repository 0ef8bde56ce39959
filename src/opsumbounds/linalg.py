"""Dense complex linear algebra with explicit, checkable iterations.

Everything downstream consumes this module: spectral norms via power
iteration, and Hermitian eigenvalues via LAPACK (numpy.linalg.eigvalsh)
on every slice of a stack at once.  The two eigenvalue routes share no
code on purpose, so each can serve as an independent oracle for the
other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, finite_array

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 64
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
    make up B and the eigensolver's input can no longer overflow, nor
    underflow at the slice's own scale.
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

    It multiplies both parts by 1/trace, the product numpy's complex
    division by (trace, 0) forms, so only the sign of a zero can differ.
    bs is read again by the caller, so only the products change in place.
    """
    c = bs
    for _ in range(_SQUARINGS):
        tr = c.trace(axis1=1, axis2=2).real
        inv = (1.0 / np.where(tr > 0.0, tr, 1.0))[:, None, None]
        parts = c.view(np.float64)
        c = (parts * inv if c is bs else np.multiply(parts, inv, out=parts)).view(np.complex128)
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
    to converge in DEFAULT_MAX_ITER steps fall back together to LAPACK's
    Hermitian eigenvalues of B, which do not depend on the gap.
    """
    scaled, exps = pow2_scale(finite_array(ms, 3, "matrices"))
    bs = _hermitian_products(scaled)
    del scaled  # not read again; freeing it lowers the peak of a large stack
    lam, _, _, done = _power_stack(bs)
    if not done.all():
        lam[~done] = _eigvalsh(bs[~done])[:, -1]
    return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), exps)


def _eigvalsh(ws: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of each slice of a Hermitian stack, by
    LAPACK; its failure to converge is raised as NoConvergence."""
    try:
        return np.linalg.eigvalsh(ws)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue solver did not converge: {exc}") from exc


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
    matrices, ascending, one row per slice, by LAPACK's Hermitian
    eigensolver (numpy.linalg.eigvalsh).

    Each slice is divided by a power of two near its largest entry
    first, so that entries of any representable size give eigenvalues
    to full relative accuracy.  Raises NotHermitian when H deviates from
    its adjoint by more than DEFAULT_TOL times its largest entry, and
    NoConvergence when LAPACK does not converge.
    """
    stack = finite_array(h, 3, "matrices")
    if stack.shape[1] != stack.shape[2]:
        raise DimensionMismatch(f"expected a stack of square matrices, got shape {stack.shape}")
    scaled, exps = pow2_scale(stack)
    _require_hermitian(scaled)
    w = 0.5 * (scaled + scaled.conj().transpose(0, 2, 1))
    return np.ldexp(_eigvalsh(w), exps[:, None])
