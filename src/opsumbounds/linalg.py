"""Dense complex linear algebra with explicit, checkable iterations.

Everything downstream consumes this module: spectral norms via power
iteration, Hermitian eigenvalues via cyclic Jacobi sweeps, PSD tests on
top of those.  The two eigenvalue routes are kept side by side on
purpose so each can serve as an independent oracle for the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian

DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 10000
PSD_TOL = 1e-8

_TINY = np.finfo(np.float64).tiny


def as_matrix(m) -> np.ndarray:
    """Coerce to a finite complex 2-d array."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise DimensionMismatch(f"expected a nonempty 2-d array, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite")
    return a


def _square(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    return a


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T.copy()


def matmul(a, b) -> np.ndarray:
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatch(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def gram(vectors) -> np.ndarray:
    """Pairwise inner products (y_i, y_j) of a family of d-vectors.

    The inner product is linear in the first slot and conjugate-linear
    in the second, so G = Y Y^H row-wise.  The result is Hermitian PSD.
    """
    rows = [np.asarray(v, dtype=np.complex128) for v in vectors]
    if not rows:
        raise DimensionMismatch("empty vector family")
    d = rows[0].shape
    if len(d) != 1:
        raise DimensionMismatch(f"expected 1-d vectors, got shape {d}")
    for v in rows[1:]:
        if v.shape != d:
            raise DimensionMismatch(f"mixed vector dimensions {d} and {v.shape}")
    y = np.stack(rows)
    if not np.isfinite(y).all():
        raise ValueError("vector entries must be finite")
    return y @ y.conj().T


@dataclass(frozen=True)
class SpectralNormResult:
    value: float
    iterations: int
    residual: float


def _perturbation(k: int) -> np.ndarray:
    # Fixed direction with irrational entry pattern; used both to confirm
    # convergence and to escape kernel-trapped iterates.
    j = np.arange(k)
    p = np.sin(3.0 * j + 1.0) + 1j * np.cos(5.0 * j + 2.0)
    return p / np.linalg.norm(p)


def _pow2_scale(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each slice divided by 2^e, with e the binary exponent of its
    largest real or imaginary part, and the exponents e.

    Dividing by a power of two is exact, so a result computed on the
    scaled slices and multiplied back by np.ldexp carries the same bits
    as the unscaled computation, while the squares and products that
    make up B and the Jacobi scale can no longer overflow, nor underflow
    at the slice's own scale.
    """
    parts = stack.view(np.float64)
    exps = np.frexp(np.abs(parts).max(axis=(1, 2)))[1]
    return np.ldexp(parts, -exps[:, None, None]).view(np.complex128), exps


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


def _power_stack(bs: np.ndarray, tol: float, max_iter: int):
    """Largest eigenvalues of a stack of Hermitian PSD matrices.

    Each slice B is first squared _SQUARINGS times (renormalized before
    each squaring), giving C proportional to B^1024, whose eigenvalue
    ratios are those of B raised to the 1024th power: a relative gap of
    1e-3 between the top two eigenvalues of B becomes a ratio of 0.36
    in C.  Deterministic power iteration from a normalized all-ones
    start then moves the iterate v one step with C between checks,
    while every check is made on B itself: the eigenvalue is the
    Rayleigh quotient v^H B v / v^H v and the residual is
    ||B v - lam v|| / (|lam| ||v||), so tol keeps its meaning as a
    relative eigen-residual of B.

    Every slice must pass the residual test twice, with a fixed
    perturbation applied between the passes: a start vector that is
    orthogonal to the dominant eigenspace (or sits in the kernel)
    satisfies the residual test while converging to the wrong
    eigenvalue, and only the restart can tell the difference.  A
    kernel-stalled iterate (image exactly zero) is replaced by the
    perturbation vector.  Finished slices leave the active arrays.

    Returns (eigenvalue, iterations, relative residual, converged), where
    iterations counts the steps taken with C, not with B, and is at most
    max_iter.
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
    for _ in range(max_iter):
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

        ok = rel <= tol
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


def spectral_norm(m, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> SpectralNormResult:
    """Largest singular value of M, via power iteration on M^H M.

    The residual reported is the relative eigen-residual of the final
    iterate on the Hermitian product matrix, and iterations counts the
    steps taken on its repeated square (see _power_stack).  Raises
    NoConvergence, carrying the best estimate, when the residual is
    still above tol after max_iter steps.
    """
    a = as_matrix(m)
    if not tol > 0:
        raise ValueError("tol must be positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    scaled, exps = _pow2_scale(a[None])
    lam, iters, resid, done = _power_stack(_hermitian_products(scaled), tol, max_iter)
    value = math.ldexp(math.sqrt(max(float(lam[0]), 0.0)), int(exps[0]))
    if not done[0]:
        raise NoConvergence(
            f"spectral norm residual {float(resid[0]):.3e} above tol {tol:.3e} "
            f"after {int(iters[0])} iterations",
            best=value,
        )
    return SpectralNormResult(value=value, iterations=int(iters[0]), residual=float(resid[0]))


def spectral_norms(ms, tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> np.ndarray:
    """Spectral norms of a stack of same-shape matrices.

    Power iteration first; a slice whose spectral gap is too small to
    converge in max_iter steps falls back to the Jacobi eigenvalue
    route, which is slower but gap-independent.
    """
    stack = np.asarray(ms, dtype=np.complex128)
    if stack.ndim != 3:
        raise DimensionMismatch(f"expected a stack of matrices, got shape {stack.shape}")
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite")
    scaled, exps = _pow2_scale(stack)
    bs = _hermitian_products(scaled)
    lam, _, _, done = _power_stack(bs, tol, max_iter)
    for i in np.flatnonzero(~done):
        lam[i] = _jacobi_eigenvalues(bs[i].copy(), DEFAULT_TOL)[-1]
    return np.ldexp(np.sqrt(np.maximum(lam, 0.0)), exps)


def _jacobi_core(w: np.ndarray, tol: float, max_sweeps: int, accumulate: bool):
    """Diagonalize a Hermitian matrix by cyclic Jacobi sweeps.

    Mutates w.  Each pivot (p, q) is reduced to a real 2x2 problem by
    factoring out the phase of w[p, q], then annihilated with the
    classical symmetric rotation.  Converged when the off-diagonal
    Frobenius mass drops below tol times the Frobenius norm.  When
    accumulate is set, the product of all rotations is collected so
    that w_original = Q diag Q^H.
    """
    d = w.shape[0]
    vecs = np.eye(d, dtype=np.complex128) if accumulate else None
    if d == 1:
        return np.array([w[0, 0].real]), vecs
    scale = math.sqrt(float((np.abs(w) ** 2).sum()))
    if scale == 0.0:
        return np.zeros(d), vecs
    target = tol * scale
    skip = target / (4.0 * d * d)

    for sweep in range(max_sweeps + 1):
        # summed directly off the off-diagonal entries: subtracting the
        # diagonal mass from the total would cancel catastrophically and
        # bottom out near eps * ||w||^2, far above target^2
        od = w.copy()
        np.fill_diagonal(od, 0.0)
        off_sq = float((np.abs(od) ** 2).sum())
        if off_sq <= target * target:
            break
        if sweep == max_sweeps:
            raise NoConvergence("jacobi sweep limit reached")
        for p in range(d - 1):
            for q in range(p + 1, d):
                h = w[p, q]
                ah = abs(h)
                if ah <= skip:
                    continue
                phase = h / ah
                tau = (w[q, q].real - w[p, p].real) / (2.0 * ah)
                if tau >= 0.0:
                    t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                else:
                    t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                pc = phase.conjugate()
                colp = w[:, p].copy()
                colq = w[:, q].copy()
                w[:, p] = c * colp - s * pc * colq
                w[:, q] = s * colp + c * pc * colq
                rowp = w[p, :].copy()
                rowq = w[q, :].copy()
                w[p, :] = c * rowp - s * phase * rowq
                w[q, :] = s * rowp + c * phase * rowq
                w[p, q] = 0.0
                w[q, p] = 0.0
                w[p, p] = w[p, p].real
                w[q, q] = w[q, q].real
                if accumulate:
                    vp = vecs[:, p].copy()
                    vq = vecs[:, q].copy()
                    vecs[:, p] = c * vp - s * pc * vq
                    vecs[:, q] = s * vp + c * pc * vq
    return w.diagonal().real.copy(), vecs


def _jacobi_eigenvalues(w: np.ndarray, tol: float, max_sweeps: int = 100) -> np.ndarray:
    values, _ = _jacobi_core(w, tol, max_sweeps, accumulate=False)
    return np.sort(values)


def _require_hermitian(a: np.ndarray, tol: float) -> None:
    asym = float(np.abs(a - a.conj().T).max())
    scale = float(np.abs(a).max())
    if asym > tol * scale:
        raise NotHermitian(
            f"matrix deviates from its adjoint by {asym:.3e} (largest entry {scale:.3e})"
        )


def hermitian_eigenvalues(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """All eigenvalues of (H + H^H)/2, ascending, by cyclic Jacobi.

    H is divided by a power of two near its largest entry first, so that
    entries of any representable size give eigenvalues to full relative
    accuracy.
    """
    scaled, exps = _pow2_scale(_square(h)[None])
    a = scaled[0]
    _require_hermitian(a, tol)
    w = 0.5 * (a + a.conj().T)
    return np.ldexp(_jacobi_eigenvalues(w, DEFAULT_TOL), exps[0])


def hermitian_eigh(h, tol: float = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and eigenvectors of the symmetrized matrix.

    Columns of the second result are the eigenvectors, in eigenvalue
    order, so that H = V diag(values) V^H.
    """
    a = _square(h)
    _require_hermitian(a, tol)
    w = 0.5 * (a + a.conj().T)
    values, vecs = _jacobi_core(w, DEFAULT_TOL, 100, accumulate=True)
    order = np.argsort(values, kind="stable")
    return values[order], vecs[:, order]


def psd_sqrt(h, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix, negative dust clamped to 0."""
    values, vecs = hermitian_eigh(h, tol)
    roots = np.sqrt(np.clip(values, 0.0, None))
    r = (vecs * roots) @ vecs.conj().T
    return 0.5 * (r + r.conj().T)


def hermitian_eigen_min(h, tol: float = DEFAULT_TOL) -> float:
    """Smallest eigenvalue of the symmetrized matrix.

    The symmetry pre-check allows entrywise deviation up to tol relative
    to the largest entry; the decomposition itself always runs at the
    tight default tolerance so the returned eigenvalue is not degraded
    by a loose pre-check.
    """
    a = _square(h)
    _require_hermitian(a, tol)
    w = 0.5 * (a + a.conj().T)
    return float(_jacobi_eigenvalues(w, DEFAULT_TOL)[0])


def is_psd(h, tol: float = PSD_TOL) -> bool:
    """Whether the symmetrized matrix is PSD up to a relative tolerance.

    True iff the smallest eigenvalue is at least -tol * max(1, ||H||),
    with ||H|| read off the same eigenvalue list.
    """
    a = _square(h)
    _require_hermitian(a, tol)
    w = 0.5 * (a + a.conj().T)
    eigs = _jacobi_eigenvalues(w, DEFAULT_TOL)
    norm = max(abs(float(eigs[0])), abs(float(eigs[-1])))
    return float(eigs[0]) >= -tol * max(1.0, norm)
