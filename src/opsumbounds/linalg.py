"""Dense complex linear algebra on stacks of matrices, by LAPACK.

Everything downstream consumes this module: spectral norms from
LAPACK's singular values (numpy.linalg.svd, zgesdd), and Hermitian
eigenvalues from LAPACK's Hermitian eigensolver (numpy.linalg.eigvalsh,
zheevd), on every slice of a stack at once.  The two routes use
different LAPACK routines, so each can serve as a check of the other;
the round-robin Jacobi in tests/jacobi.py is the independent oracle of
both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoConvergence, NotHermitian, finite_array

# the relative deviation from its adjoint that a Hermitian input may carry
DEFAULT_TOL = 1e-12
PSD_TOL = 1e-8


@dataclass(frozen=True)
class SpectralNormResult:
    value: float
    iterations: int


def pow2_scale(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each stack[i] divided by 2^e over all of its remaining axes, with
    e the binary exponent of its largest real or imaginary part, and the
    exponents e.

    Dividing by a power of two is exact, so a result computed on the
    scaled slices and multiplied back by np.ldexp is exactly homogeneous
    under scaling by 2^k, while the products formed from the scaled
    slices, and LAPACK, see every slice at unit scale, where nothing can
    overflow, nor underflow at the slice's own scale.
    """
    parts = np.asarray(stack, dtype=np.complex128, order="C").view(np.float64)
    exps = np.frexp(np.maximum.reduce(np.abs(parts), axis=tuple(range(1, parts.ndim))))[1]
    return np.ldexp(parts, -exps.reshape((-1,) + (1,) * (parts.ndim - 1))).view(np.complex128), exps


def spectral_norm(m) -> SpectralNormResult:
    """Largest singular value of one matrix, with iterations 0; kept for
    bench/ until ROADMAP item 18, as spectral_norms is the API."""
    value = float(spectral_norms(finite_array(m, 2, "matrix")[None])[0])
    return SpectralNormResult(value=value, iterations=0)


def spectral_norms(ms) -> np.ndarray:
    """Spectral norms of a stack of same-shape matrices: the largest
    singular value of each slice, by LAPACK, on the slice divided by a
    power of two and multiplied back exactly.  LAPACK's failure to
    converge is raised as NoConvergence."""
    scaled, exps = pow2_scale(finite_array(ms, 3, "matrices"))
    try:
        top = np.linalg.svd(scaled, compute_uv=False)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"singular value solver did not converge: {exc}") from exc
    return np.ldexp(top, exps)


def _require_hermitian(stack: np.ndarray) -> None:
    asym = np.maximum.reduce(np.abs(stack - stack.conj().transpose(0, 2, 1)), axis=(1, 2))
    scale = np.maximum.reduce(np.abs(stack), axis=(1, 2))
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
    try:
        eigs = np.linalg.eigvalsh(w)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigenvalue solver did not converge: {exc}") from exc
    return np.ldexp(eigs, exps[:, None])
