"""Spectral-norm and eigenvalue routines against independent oracles.

The frozen constants below were computed with numpy's LAPACK-backed
svd/eigvalsh on the same seeded inputs, so the power-iteration route is
checked against an implementation it shares no code with.  The
round-robin Jacobi oracle (tests/jacobi.py) shares no code with either
route, and checks both.
"""

import jacobi
import numpy as np
import pytest
import squaring

from opsumbounds import linalg
from opsumbounds.cbs import OperatorFamily
from opsumbounds.errors import DimensionMismatch, NoConvergence, NotHermitian
from opsumbounds.harness import KINDS, InstanceSpec, generate
from opsumbounds.rng import PortableRng

# np.linalg.svd largest singular value of PortableRng(2024).complex_normal((5, 3))
M53_NORM = 3.779957475508715
# np.linalg.svd largest singular value of PortableRng(99).complex_normal((4, 4))
M44_NORM = 3.2120293518195924
# np.linalg.eigvalsh of the Hermitian part of the same 4x4 draw
H44_EIGS = [-0.7261505080587598, 0.5077983477431939, 1.5458458584670252, 2.527156156562354]


def test_spectral_norm_frozen_rectangular():
    m = PortableRng(2024).complex_normal((5, 3))
    r = linalg.spectral_norm(m)
    assert abs(r.value - M53_NORM) <= 1e-10 * M53_NORM
    assert r.residual <= 1e-12
    assert r.iterations >= 1


def test_spectral_norm_frozen_square():
    m = PortableRng(99).complex_normal((4, 4))
    assert abs(linalg.spectral_norm(m).value - M44_NORM) <= 1e-10 * M44_NORM


def test_spectral_norm_diagonal_hand_values():
    assert linalg.spectral_norm(np.diag([3.0, 4.0])).value == pytest.approx(4.0, rel=1e-12)
    # nilpotent: norm is the singular value, not an eigenvalue
    assert linalg.spectral_norm(np.array([[0.0, 2.0], [0.0, 0.0]])).value == pytest.approx(2.0, rel=1e-12)
    assert linalg.spectral_norm(np.zeros((3, 3))).value == 0.0


def test_confirm_restart_escapes_orthogonal_start():
    # all-ones is an exact eigenvector of M^*M here, but for the SMALLER
    # eigenvalue; without the confirm restart the iteration would report
    # 1 instead of 2
    m = np.array([[1.5, -0.5], [-0.5, 1.5]])
    assert linalg.spectral_norm(m).value == pytest.approx(2.0, rel=1e-12)


def test_confirm_restart_escapes_kernel_start():
    # the all-ones start lies exactly in the kernel
    m = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert linalg.spectral_norm(m).value == pytest.approx(2.0, rel=1e-12)


def test_spectral_norm_matches_svd_on_ensemble():
    rng = PortableRng(5150)
    for trial in range(60):
        rows = 1 + trial % 6
        cols = 1 + (trial * 7) % 6
        m = rng.complex_normal((rows, cols))
        ref = float(np.linalg.svd(m, compute_uv=False)[0])
        got = linalg.spectral_norm(m).value
        assert abs(got - ref) <= 1e-10 * max(1.0, ref), (trial, got, ref)


def test_no_convergence_is_raised():
    # relative spectral gap of 2e-9 needs ~1e9 iterations; the default
    # budget cannot get there
    m = np.diag([1.0, 1.0 - 1e-9])
    with pytest.raises(NoConvergence):
        linalg.spectral_norm(m)


def test_spectral_norms_batch_matches_single_calls():
    rng = PortableRng(31337)
    stack = rng.complex_normal((7, 4, 4))
    # include a trap slice and a zero slice in the batch
    stack[3] = 0.0
    stack[3][:2, :2] = [[1.5, -0.5], [-0.5, 1.5]]
    stack[5] = 0.0
    values = linalg.spectral_norms(stack)
    for i in range(7):
        expected = float(np.linalg.svd(stack[i], compute_uv=False)[0])
        assert abs(values[i] - expected) <= 1e-10 * max(1.0, expected), i


def _rotated(diagonal, seed):
    q, _ = np.linalg.qr(PortableRng(seed).complex_normal((len(diagonal), len(diagonal))))
    return (q * np.asarray(diagonal)) @ q.conj().T


def test_spectral_norm_small_gap_converges_in_few_steps():
    # relative gap 2e-3 in M^* M: plain power iteration needs more than
    # 10^4 steps here, the squared matrix a few dozen
    m = _rotated([1.0, 1.0 - 1e-3, 0.5], 8080)
    r = linalg.spectral_norm(m)
    expected = float(np.linalg.svd(m, compute_uv=False)[0])
    assert abs(r.value - expected) <= 1e-10 * expected
    assert r.iterations <= 200


def test_spectral_norms_heavy_tail_batch_matches_svd():
    rng = PortableRng(4040)
    stack = rng.complex_normal((10, 3, 3))
    stack[1] = 0.0
    stack[1][:2, :2] = [[1.5, -0.5], [-0.5, 1.5]]                 # orthogonal start
    stack[3] = 0.0
    stack[3][:2, :2] = [[1.0, -1.0], [-1.0, 1.0]]                 # kernel start
    stack[4] = 0.0                                               # zero slice
    stack[6] = _rotated([1.0, 1.0 - 1e-3, 0.5], 11)
    stack[7] = _rotated([2.0, 2.0 - 1e-6, 1e-3], 12)
    stack[8] = np.diag([1.0, 1.0 - 1e-9, 0.25])                  # LAPACK fallback
    stack[9] = _rotated([3.0, 3.0, 1.0], 13)                     # exact tie
    values = linalg.spectral_norms(stack)
    for i in range(10):
        expected = float(np.linalg.svd(stack[i], compute_uv=False)[0])
        assert abs(values[i] - expected) <= 1e-10 * max(1.0, expected), i


@pytest.mark.parametrize("k", [-150, -80, -60, 0, 60, 80, 120, 150])
def test_norm_routes_are_scale_safe(k):
    rng = PortableRng(6060)
    stack = rng.complex_normal((4, 5, 3)) * 10.0**k
    got = linalg.spectral_norms(stack)
    for i in range(4):
        expected = np.linalg.norm(stack[i], 2)
        assert abs(got[i] - expected) <= 1e-10 * expected, i
    a = rng.complex_normal((5, 5))
    h = (a + a.conj().T) * 10.0**k
    ref = np.linalg.eigvalsh(h)
    eigs = linalg.hermitian_eigenvalues(h[None])[0]
    assert np.abs(eigs - ref).max() <= 1e-10 * np.abs(ref).max()


def test_spectral_norms_rejects_bad_shapes():
    with pytest.raises(DimensionMismatch):
        linalg.spectral_norms(np.zeros((3, 3)))
    # an empty stack used to run all DEFAULT_MAX_ITER power steps on no data
    for shape in [(0, 3, 3), (2, 0, 3), (2, 3, 0)]:
        with pytest.raises(DimensionMismatch):
            linalg.spectral_norms(np.zeros(shape))
    with pytest.raises(ValueError, match=r"^matrices\[1\]\[0\]\[1\] is not finite$"):
        linalg.spectral_norms(np.array([np.eye(2), [[0, np.inf], [np.nan, 0]]]))
    with pytest.raises(ValueError, match=r"^matrix\[2\]\[0\] is not finite$"):
        linalg.spectral_norm(np.array([[1.0], [2.0], [np.inf]]))


def test_strided_input_gives_the_bits_of_its_contiguous_copy():
    # the power-of-two scaling views complex entries as float pairs,
    # which needs a contiguous last axis
    rng = PortableRng(4040)
    m = rng.complex_normal((3, 5, 4))
    a = rng.complex_normal((3, 4, 4))
    h = a + a.conj().transpose(0, 2, 1)
    for strided in (m.transpose(0, 2, 1), m[:, ::2, :], m[::-1]):
        assert np.array_equal(linalg.spectral_norms(strided), linalg.spectral_norms(np.ascontiguousarray(strided)))
    for strided in (m[1].T, m[1][:, ::2]):
        assert linalg.spectral_norm(strided) == linalg.spectral_norm(np.ascontiguousarray(strided))
    for strided in (h.transpose(0, 2, 1), h[1].T[None]):
        assert np.array_equal(linalg.hermitian_eigenvalues(strided),
                              linalg.hermitian_eigenvalues(np.ascontiguousarray(strided)))


def test_pow2_scale_puts_each_slice_at_unit_scale_exactly():
    stack = PortableRng(4041).complex_normal((3, 2, 5)) * np.array([1e-200, 1.0, 1e200])[:, None, None]
    for x in (stack, stack[:, 0], stack.transpose(0, 2, 1)):
        scaled, exps = linalg.pow2_scale(x)
        parts = scaled.view(np.float64)
        top = np.abs(parts).reshape(len(x), -1).max(axis=1)
        assert ((0.5 <= top) & (top < 1.0)).all()
        exact = np.ldexp(parts, exps.reshape((-1,) + (1,) * (x.ndim - 1)))
        assert np.array_equal(exact, np.ascontiguousarray(x).view(np.float64))


def test_iteration_budget_is_the_module_constant(monkeypatch):
    # the power-iteration budget is DEFAULT_MAX_ITER, read at call time;
    # a slice must pass its residual test twice, so one step finishes none
    stack = PortableRng(17).complex_normal((2, 3, 3))
    full = linalg.spectral_norms(stack)
    monkeypatch.setattr(linalg, "DEFAULT_MAX_ITER", 1)
    with pytest.raises(NoConvergence):
        linalg.spectral_norm(stack[0])
    # the batch falls back to LAPACK and still finds the norms
    assert np.allclose(linalg.spectral_norms(stack), full, rtol=1e-12, atol=0.0)

def test_hermitian_eigenvalues_frozen():
    m = PortableRng(99).complex_normal((4, 4))
    h = (m + m.conj().T) / 2
    got = linalg.hermitian_eigenvalues(h[None])[0]
    assert np.allclose(got, H44_EIGS, rtol=0, atol=1e-10)


def test_hermitian_eigenvalues_matches_numpy_ensemble():
    rng = PortableRng(777)
    for trial in range(40):
        d = 1 + trial % 8
        a = rng.complex_normal((d, d))
        h = (a + a.conj().T) / 2
        ref = np.linalg.eigvalsh(h)
        got = linalg.hermitian_eigenvalues(h[None])[0]
        scale = max(1.0, float(np.abs(ref).max()))
        assert np.abs(got - ref).max() <= 1e-10 * scale, trial


def test_jacobi_route_agrees_with_power_route():
    rng = PortableRng(2718)
    for trial in range(25):
        d = 2 + trial % 15
        m = rng.complex_normal((d, d))
        b = m.conj().T @ m
        norm = linalg.spectral_norm(m).value
        for top in (linalg.hermitian_eigenvalues(b[None])[0, -1], jacobi._jacobi_stack(b[None])[0, -1]):
            assert norm == pytest.approx(np.sqrt(top), rel=1e-10)


def test_not_hermitian_rejected():
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigenvalues(np.array([[[0.0, 1.0], [0.0, 0.0]]]))


def _assert_slices_match_eigvalsh(stack, got):
    assert got.shape == stack.shape[:2]
    for i, h in enumerate(stack):
        ref = np.linalg.eigvalsh(h)
        scale = max(float(np.abs(h).max()), np.finfo(float).tiny)
        assert np.abs(got[i] - ref).max() <= 1e-10 * scale, i


def test_jacobi_stack_mixed_slices(monkeypatch):
    rng = PortableRng(9191)
    stack = np.zeros((5, 6, 6), dtype=complex)
    stack[1] = np.diag([3.0, -1.0, 0.5, 0.0, 2.0, -4.0])            # already diagonal
    stack[2] = np.diag([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    stack[2][1, 4] = 0.3 - 0.2j                                      # one pivot: one sweep
    stack[2][4, 1] = 0.3 + 0.2j
    stack[3] = _rotated([2.0, 2.0 - 1e-9, 1.0, 0.5, -0.5, -1.0], 21)  # near-degenerate pair
    a = rng.complex_normal((6, 6))
    stack[4] = a + a.conj().T                                        # dense: several sweeps
    got = jacobi._jacobi_stack(stack)
    _assert_slices_match_eigvalsh(stack, got)
    _assert_slices_match_eigvalsh(stack, linalg.hermitian_eigenvalues(stack))
    assert np.all(got[0] == 0.0)
    assert np.array_equal(got[1], np.sort(stack[1].diagonal().real))
    # the slices leave the active set after different sweep counts; the
    # sweep budget is _MAX_SWEEPS, read at call time
    monkeypatch.setattr(jacobi, "_MAX_SWEEPS", 1)
    jacobi._jacobi_stack(stack[:3])
    with pytest.raises(NoConvergence):
        jacobi._jacobi_stack(stack[4:])


@pytest.mark.parametrize("d", [1, 2, 3, 4, 7, 8, 15, 16])
def test_jacobi_stack_odd_and_even_sizes(d):
    a = PortableRng(3300 + d).complex_normal((4, d, d))
    stack = a + a.conj().transpose(0, 2, 1)
    _assert_slices_match_eigvalsh(stack, jacobi._jacobi_stack(stack))
    _assert_slices_match_eigvalsh(stack, linalg.hermitian_eigenvalues(stack))
    single = linalg.hermitian_eigenvalues(stack[2][None])[0]
    assert single.shape == (d,)
    assert np.abs(single - np.linalg.eigvalsh(stack[2])).max() <= 1e-10 * np.abs(stack[2]).max()


def test_hermitian_eigenvalues_rejects_bad_stacks():
    with pytest.raises(DimensionMismatch, match=r"^expected a stack of square matrices, got shape \(2, 3, 4\)$"):
        linalg.hermitian_eigenvalues(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionMismatch):
        linalg.hermitian_eigenvalues(np.zeros(3))
    # a single matrix is a one-slice stack, h[None]
    with pytest.raises(DimensionMismatch, match=r"^expected matrices as a nonempty 3-d array, got shape \(2, 2\)$"):
        linalg.hermitian_eigenvalues(np.eye(2))
    # ragged or non-numeric input is a shape defect, not a numpy error
    for bad in ([[1.0, 2.0], [3.0]], [np.eye(2), np.eye(3)], [["a"]]):
        with pytest.raises(DimensionMismatch):
            linalg.hermitian_eigenvalues(bad)
        with pytest.raises(DimensionMismatch):
            linalg.spectral_norms(bad)
    with pytest.raises(NotHermitian):
        linalg.hermitian_eigenvalues(np.stack([np.eye(2), [[0.0, 1.0], [0.0, 0.0]]]))


EPS = np.finfo(np.float64).eps


def _oracle_eigenvalues(h):
    # the Jacobi oracle on each slice divided by an exact power of two, so
    # that its squared entries neither overflow nor underflow
    scaled, exps = linalg.pow2_scale(h)
    return np.ldexp(jacobi._jacobi_stack(scaled), exps[:, None])


def _oracle_norms(ms):
    scaled, exps = linalg.pow2_scale(ms)
    b = scaled.conj().transpose(0, 2, 1) @ scaled
    return np.ldexp(np.sqrt(np.maximum(jacobi._jacobi_stack(b)[:, -1], 0.0)), exps)


def _assert_near_oracle(got, ref, d):
    # two backward-stable solvers of a d x d matrix agree to a few d eps
    # of its largest eigenvalue (measured here: at most 2.4 d eps);
    # ref holds one norm, or one row of eigenvalues, per slice
    top = np.abs(ref) if ref.ndim == 1 else np.abs(ref).max(axis=1, keepdims=True)
    dev = np.abs(got - ref) / top
    assert (dev <= 8 * d * EPS).all(), dev / EPS


def _norm_fallback_stacks():
    # a square stack with two slices, and a wide stack with one, that no
    # power budget finishes
    near = [1.0, 1.0 - 1e-9, 0.25]
    stack = PortableRng(5252).complex_normal((4, 3, 3))
    stack[1] = np.diag(near)
    stack[3] = _rotated(near, 53)
    wide = PortableRng(5353).complex_normal((2, 4, 6))
    wide[0] = 0.0
    wide[0][:3, :3] = _rotated(near, 54)
    return stack, wide


def _spectral_norms_and_fallbacks(monkeypatch, stacks):
    # spectral_norms of each stack, and every stack its fallback sent to LAPACK
    seen = []
    solve = linalg._eigvalsh

    def spy(ws):
        seen.append(ws.copy())
        return solve(ws)

    monkeypatch.setattr(linalg, "_eigvalsh", spy)
    values = [linalg.spectral_norms(ms) for ms in stacks]
    monkeypatch.undo()
    return values, seen


def test_spectral_norms_batches_two_jacobi_fallbacks(monkeypatch):
    # the slices that no power budget finishes go to LAPACK together, as
    # one stack of their B = M^H M, or M M^H for a wide M, and match the
    # Jacobi oracle there
    stacks = _norm_fallback_stacks()
    for i in (1, 3):
        with pytest.raises(NoConvergence):
            linalg.spectral_norm(stacks[0][i])
    values, seen = _spectral_norms_and_fallbacks(monkeypatch, stacks)
    for ms, got in zip(stacks, values):
        for i, m in enumerate(ms):
            expected = float(np.linalg.svd(m, compute_uv=False)[0])
            assert abs(got[i] - expected) <= 1e-10 * expected, i
        _assert_near_oracle(got, _oracle_norms(ms), min(ms.shape[1:]))
    assert [s.shape for s in seen] == [(2, 3, 3), (1, 4, 4)]
    for ws in seen:
        _assert_near_oracle(linalg._eigvalsh(ws), jacobi._jacobi_stack(ws), ws.shape[1])


def _near_degenerate(d, deltas, seed):
    # one matrix per delta, whose top two singular values differ by delta
    tail = np.linspace(0.5, 0.1, d - 2)
    return np.stack([_rotated(np.r_[1.0, 1.0 - delta, tail], seed + k) for k, delta in enumerate(deltas)])


def _oracle_stack(kind, d):
    rng = PortableRng(7100 + d)
    if kind == "random":
        return rng.complex_normal((4, d, d))
    if kind == "near_degenerate":
        # 1e-3 and the exact tie finish within the power budget, 1e-6 and
        # 1e-9 fall back
        return _near_degenerate(d, (1e-3, 1e-6, 1e-9, 0.0), 7200 + d)
    return rng.complex_normal((4, d, d)) * np.array([1e-150, 1e150, 1e-150, 1e150])[:, None, None]


@pytest.mark.parametrize("kind", ["random", "near_degenerate", "scaled"])
@pytest.mark.parametrize("d", [3, 4, 7, 8, 16])
def test_both_routes_match_the_jacobi_oracle(kind, d):
    ms = _oracle_stack(kind, d)
    h = ms + ms.conj().transpose(0, 2, 1)
    _assert_near_oracle(linalg.hermitian_eigenvalues(h), _oracle_eigenvalues(h), d)
    _assert_near_oracle(linalg.spectral_norms(ms), _oracle_norms(ms), d)


@pytest.mark.parametrize("delta", [1e-5, 1e-9])
def test_near_degenerate_d64_family_matches_the_jacobi_oracle(delta):
    # A_2 = 0.5i A_1, so every slice of the family's norm pass shares the
    # top pair of A_1, which no power budget separates at these gaps
    m = _near_degenerate(64, (delta,), 64)[0]
    fam = OperatorFamily(np.stack([m, 0.5j * m]))
    z = np.array([1.0, 1.0])
    s = fam.weighted_sum(z)
    lhs = fam.weighted_sum_norm(z)
    got = np.r_[fam.norms, fam.cross[0, 0], fam.cross[0, 1], fam.cross[1, 1], fam.sum_products_norm, lhs]
    mm = m @ m.conj().T
    ref = _oracle_norms(np.stack([m, 0.5j * m, mm, 0.5 * mm, 0.25 * mm, 1.25 * mm, s]))
    _assert_near_oracle(got, ref, 64)


def test_lapack_failure_is_no_convergence(monkeypatch):
    def fail(ws):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    with pytest.raises(NoConvergence, match="did not converge"):
        linalg.hermitian_eigenvalues(np.eye(3)[None])
    # only a slice that falls back reaches LAPACK
    near = _near_degenerate(4, (1e-9,), 1)
    assert linalg.spectral_norms(np.eye(3)[None])[0] == 1.0
    with pytest.raises(NoConvergence, match="did not converge"):
        linalg.spectral_norms(near)


def test_spectral_norms_concatenated_stack_is_bitwise_per_part():
    # the family's norm pass appends the catalog's left side to its own
    # stack, which is only sound if no slice depends on its companions:
    # the LAPACK fallback, a zero slice, scales 1e-150..1e150, and slices
    # that finish at different iteration counts all share one stack here
    rng = PortableRng(4242)
    spread = rng.complex_normal((6, 3, 3)) * (10.0 ** np.linspace(-150, 150, 6))[:, None, None]
    parts = [
        spread,
        np.diag([1.0, 1.0 - 1e-9, 0.25]).astype(np.complex128)[None],
        np.zeros((1, 3, 3), dtype=np.complex128),
        rng.complex_normal((3, 3, 3)),
        rng.complex_normal((1, 3, 3)),
    ]
    merged = linalg.spectral_norms(np.concatenate(parts))
    separate = np.concatenate([linalg.spectral_norms(part) for part in parts])
    assert merged.tobytes() == separate.tobytes()
    singles = np.concatenate([linalg.spectral_norms(m[None]) for m in np.concatenate(parts)])
    assert merged.tobytes() == singles.tobytes()


def test_perturbation_is_cached_and_read_only():
    p = linalg._perturbation(5)
    assert linalg._perturbation(5) is p
    assert not p.flags.writeable
    assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-15)


def _slot_moving_jacobi(ws):
    # The round-robin Jacobi as first written: the matrix is physically
    # moved between slots after every round, the pivots are read through
    # reversed views and the coefficients concatenated from reversed
    # copies.  The oracle's _jacobi_stack must match it bit for bit.
    m, d, _ = ws.shape
    pad = d % 2
    n = d + pad
    k = n // 2
    w = np.zeros((m, n, n), dtype=np.complex128)
    w[:, pad:, pad:] = ws
    target = linalg.DEFAULT_TOL * np.sqrt((w.real**2 + w.imag**2).sum(axis=(1, 2)))
    skip = target[:, None] / (4.0 * d * d)
    off = ~np.eye(n, dtype=bool)
    out = np.zeros((m, n))
    idx = np.arange(m)
    for sweep in range(jacobi._MAX_SWEEPS + 1):
        off_sq = ((w.real**2 + w.imag**2) * off).sum(axis=(1, 2))
        finished = off_sq <= target * target
        if finished.any():
            out[idx[finished]] = w[finished].diagonal(axis1=1, axis2=2).real
            keep = ~finished
            if not keep.any():
                break
            idx, w, target, skip = idx[keep], w[keep], target[keep], skip[keep]
        if sweep == jacobi._MAX_SWEEPS:
            raise NoConvergence("jacobi sweep limit reached")
        for _ in range(n - 1):
            dg = w.diagonal(axis1=1, axis2=2).real
            h = w[:, :, ::-1].diagonal(axis1=1, axis2=2)[:, :k]
            ah = np.abs(h)
            live = ah > skip
            h = h * live
            ah = ah * live
            diff = dg[:, : k - 1 : -1] - dg[:, :k]
            g = np.copysign(2.0, diff) / np.maximum(np.abs(diff) + np.hypot(diff, 2.0 * ah), jacobi._TINY)
            c = 1.0 / np.sqrt(1.0 + (g * ah) ** 2)
            sp = c * g * h
            cs = np.concatenate([c, c[:, ::-1]], axis=1)
            ss = np.concatenate([-sp.conj(), sp[:, ::-1]], axis=1)
            x = w * cs[:, None, :] + w[:, :, ::-1] * ss[:, None, :]
            x = np.concatenate([x[:, :, :1], x[:, :, -1:], x[:, :, 1:-1]], axis=2)
            y = x * cs[:, :, None] + x[:, ::-1, :] * ss.conj()[:, :, None]
            w = np.concatenate([y[:, :1], y[:, -1:], y[:, 1:-1]], axis=1)
    return np.sort(out[:, pad:], axis=1)


def _assert_bitwise_as_slot_moving(stack):
    got = jacobi._jacobi_stack(stack)
    assert got.tobytes() == _slot_moving_jacobi(stack).tobytes(), stack.shape


def _hermitian_stack(seed, m, d):
    a = PortableRng(seed).complex_normal((m, d, d))
    return a + a.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("d", range(1, 21))
def test_jacobi_stack_is_bitwise_the_slot_moving_kernel(d):
    stack = _hermitian_stack(8800 + d, 3, d)
    for scale in (1e-150, 1.0, 1e150):
        _assert_bitwise_as_slot_moving(stack * scale)
    _assert_bitwise_as_slot_moving(stack[1:2])
    # rank-deficient: exact zero rows and columns, and a low-rank product
    holed = stack.copy()
    holed[:, d // 2, :] = 0.0
    holed[:, :, d // 2] = 0.0
    holed[0, -1, :] = holed[0, :, -1] = 0.0
    _assert_bitwise_as_slot_moving(holed)
    r = PortableRng(9900 + d).complex_normal((2, d, max(1, d // 3)))
    _assert_bitwise_as_slot_moving(r @ r.conj().transpose(0, 2, 1))
    # negative zeros, on and off the diagonal
    signed = stack.copy()
    signed[:, 0, :] = signed[:, :, 0] = -0.0
    signed.real[:, d // 2, d // 2] = -0.0
    assert np.signbit(signed.real).any()
    _assert_bitwise_as_slot_moving(signed)


def test_jacobi_stack_is_bitwise_the_slot_moving_kernel_across_sweep_counts():
    # an already diagonal slice leaves before the first sweep, a slice
    # with one pivot after one, the dense slices after several
    stack = np.zeros((4, 9, 9), dtype=np.complex128)
    stack[0] = np.diag(np.arange(9.0))
    stack[1] = np.diag(np.arange(9.0) - 4.0)
    stack[1][2, 6] = 0.5 - 0.25j
    stack[1][6, 2] = 0.5 + 0.25j
    stack[2:] = _hermitian_stack(8711, 2, 9)
    _assert_bitwise_as_slot_moving(stack)


def test_jacobi_stack_is_bitwise_the_slot_moving_kernel_on_norm_fallbacks(monkeypatch):
    _, seen = _spectral_norms_and_fallbacks(monkeypatch, _norm_fallback_stacks())
    assert [s.shape for s in seen] == [(2, 3, 3), (1, 4, 4)]
    for ws in seen:
        _assert_bitwise_as_slot_moving(ws)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 16, 20])
def test_round_robin_schedule(n):
    schedule = jacobi._round_robin(n)
    assert jacobi._round_robin(n) is schedule
    for a in schedule:
        assert not a.flags.writeable and len(a) == n - 1
    k = n // 2
    slots = np.arange(n)
    met = set()
    for gather, partner, pair, side in zip(*schedule):
        p, q = np.divmod(gather[0], n)
        # the pairs are those of the slots, which round 0 finds in order
        assert np.array_equal(p, slots[:k]) and np.array_equal(q, slots[: k - 1 : -1])
        assert np.array_equal(gather[1], p * (n + 1)) and np.array_equal(gather[2], q * (n + 1))
        # a perfect matching of 0..n-1
        assert np.array_equal(np.sort(np.concatenate([p, q])), np.arange(n))
        assert np.array_equal(partner[partner], np.arange(n)) and not (partner == np.arange(n)).any()
        assert np.array_equal(partner[p], q)
        assert np.array_equal(side[p], np.arange(k)) and np.array_equal(side[q], np.arange(k, n))
        assert np.array_equal(pair, side % k)
        met.update(zip(np.minimum(p, q).tolist(), np.maximum(p, q).tolist()))
        slots = np.concatenate([slots[:1], slots[-1:], slots[1:-1]])
    assert len(met) == n * (n - 1) // 2
    assert np.array_equal(slots, np.arange(n))


def _assert_squaring_is_the_division(monkeypatch, ms) -> None:
    """spectral_norms(ms) carries the same bits, sign bits included, with
    the division-based squaring patched in, and the two squarings are
    equal as values (a zero's sign may differ)."""
    got = linalg.spectral_norms(ms)
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_squared_power", squaring.divided_squared_power)
        ref = linalg.spectral_norms(ms)
    assert got.tobytes() == ref.tobytes(), (got, ref)
    scaled, _ = linalg.pow2_scale(ms)
    bs = linalg._hermitian_products(scaled)
    mine, theirs = linalg._squared_power(bs), squaring.divided_squared_power(bs)
    assert np.array_equal(mine, theirs)


def test_squaring_matches_the_division_on_every_kind_of_norm_pass(monkeypatch):
    # the stack each generated family's norm pass solves, left side
    # included; BlockOrthogonal's off-diagonal products are exactly zero
    # slices, and zero entries are where the two squarings' zero signs
    # can differ
    stacks = []
    solve = linalg.spectral_norms

    def recorded(ms):
        stacks.append(ms.copy())
        return solve(ms)

    with monkeypatch.context() as patched:
        patched.setattr(linalg, "spectral_norms", recorded)
        for kind in KINDS:
            for d, n, seed in ((1, 1, 0), (5, 1, 1), (6, 3, 2), (13, 4, 3), (16, 6, 4)):
                w, fam, _ = generate(InstanceSpec(kind, d, n, seed))
                OperatorFamily(fam.ops).weighted_sum_norm(w)
    assert len(stacks) == 5 * len(KINDS)
    for ms in stacks:
        _assert_squaring_is_the_division(monkeypatch, ms)


def _signed_zero_stack():
    # -0.0 entries in an ordinary slice, a slice of -0.0 only, and a row
    # of -0.0 real parts beside +0.0 imaginary ones
    ms = PortableRng(6100).complex_normal((3, 4, 4))
    ms[0, ::2] = complex(-0.0, -0.0)
    ms[1] = complex(-0.0, -0.0)
    ms[2, 1] = complex(-0.0, 0.0)
    return ms


def _binary_scaled_stack():
    m = PortableRng(6200).complex_normal((5, 5))
    return np.stack([m * 2.0**600, m * 2.0**-600, m])


def _subnormal_stack():
    # subnormal entries beside unit ones, and a slice of subnormals only
    ms = PortableRng(6300).complex_normal((2, 4, 4))
    ms[0, 0, :2] = [5e-324, complex(1e-310, -2e-320)]
    ms[1] *= 1e-310
    return ms


EDGE_STACKS = {
    "signed_zeros": _signed_zero_stack,
    "two_to_600": _binary_scaled_stack,
    "subnormal": _subnormal_stack,
    # the 1e-9 slice falls back to LAPACK, which reads B itself
    "near_degenerate": lambda: _near_degenerate(8, (1e-9, 1e-3), 6400),
    "fallback_square": lambda: _norm_fallback_stacks()[0],
    "fallback_wide": lambda: _norm_fallback_stacks()[1],
}


@pytest.mark.parametrize("name", EDGE_STACKS)
def test_squaring_matches_the_division_on_edge_stacks(monkeypatch, name):
    ms = EDGE_STACKS[name]()
    _assert_squaring_is_the_division(monkeypatch, ms)
    _, fallbacks = _spectral_norms_and_fallbacks(monkeypatch, [ms])
    assert bool(fallbacks) == (name in ("near_degenerate", "fallback_square", "fallback_wide"))
