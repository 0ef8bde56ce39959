import tracemalloc

import numpy as np
import pytest

from opsumbounds import bounds, linalg
from opsumbounds.cbs import OperatorFamily, _upper_pairs, as_weights, cbs_operator_gap
from opsumbounds.errors import DimensionMismatch
from opsumbounds.harness import KINDS, InstanceSpec, generate, verify_instance
from opsumbounds.rng import PortableRng


def _random_instance(seed, d, n):
    rng = PortableRng(seed)
    return rng.complex_normal(n), OperatorFamily(rng.complex_normal((n, d, d)))


def test_family_validation():
    with pytest.raises(DimensionMismatch):
        OperatorFamily(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionMismatch):
        OperatorFamily([np.eye(2), np.eye(3)])
    with pytest.raises(ValueError, match=r"^operators\[0\]\[0\]\[0\] is not finite$"):
        OperatorFamily(np.full((1, 2, 2), np.nan))
    with pytest.raises(ValueError, match=r"^operators\[1\]\[1\]\[0\] is not finite$"):
        OperatorFamily([np.eye(2), [[0.0, 0.0], [np.inf, 1.0]]])
    # one conversion path: ragged, non-numeric, empty and wrong-rank
    # input all raise DimensionMismatch
    for bad in ([[[1.0, 2.0], [3.0]]], [[["a"]]], [[[object()]]], [], np.zeros((2, 0, 0)), np.eye(2)):
        with pytest.raises(DimensionMismatch):
            OperatorFamily(bad)
    fam = OperatorFamily([np.eye(2), 2 * np.eye(2)])
    assert fam.count == 2 and fam.dim == 2


def test_as_weights_shapes():
    w = as_weights([1.0, 1j], 2)
    assert w.dtype == np.complex128
    with pytest.raises(DimensionMismatch):
        as_weights([1.0], 2)
    with pytest.raises(ValueError, match=r"^weights\[1\] is not finite$"):
        as_weights([1.0, np.inf, np.nan], 3)
    # a scalar is no weight list, and neither is a stack of them
    for bad in (3.0, [[1.0, 2.0]], [], [1.0, "a"]):
        with pytest.raises(DimensionMismatch):
            as_weights(bad, 1)


def test_strided_operators_and_weights_give_the_bits_of_contiguous_copies():
    rng = PortableRng(4042)
    t = rng.complex_normal((4, 4, 3)).transpose(2, 0, 1)
    w = rng.complex_normal(6)[::2]
    strided = cbs_operator_gap(w, OperatorFamily(t))
    contiguous = cbs_operator_gap(np.ascontiguousarray(w), OperatorFamily(np.ascontiguousarray(t)))
    assert np.array_equal(strided.gap, contiguous.gap)
    assert strided.min_eigenvalue == contiguous.min_eigenvalue
    assert strided.inner_min_eigenvalue == contiguous.inner_min_eigenvalue


def test_family_cached_norms_hand_values():
    fam = OperatorFamily([np.diag([3.0, 0.0]), np.diag([0.0, 4.0])])
    assert fam.norms == pytest.approx([3.0, 4.0], rel=1e-10)
    # disjoint diagonal supports: cross products vanish exactly
    assert fam.cross[0, 1] == 0.0
    assert fam.cross[1, 0] == 0.0
    assert fam.cross[0, 0] == pytest.approx(9.0, rel=1e-10)
    assert fam.cross[1, 1] == pytest.approx(16.0, rel=1e-10)
    assert fam.sum_products_norm == pytest.approx(16.0, rel=1e-10)


def test_cross_table_is_symmetric_and_matches_direct():
    w, fam = _random_instance(31, d=5, n=4)
    for i in range(4):
        for j in range(4):
            direct = float(np.linalg.svd(fam.ops[i] @ fam.ops[j].conj().T, compute_uv=False)[0])
            assert fam.cross[i, j] == pytest.approx(direct, rel=1e-9, abs=1e-12)
    assert np.array_equal(fam.cross, fam.cross.T)


def test_gap_single_operator_is_exactly_degenerate():
    # n = 1: the gap is |z|^2 A A^* - (zA)(zA)^* = 0
    rng = PortableRng(8)
    fam = OperatorFamily(rng.complex_normal((1, 4, 4)))
    res = cbs_operator_gap([1.7 - 0.3j], fam)
    assert res.holds
    # limit is PSD_TOL * max(1, ||gap||)
    assert abs(res.min_eigenvalue) <= 1e-10 * res.limit / linalg.PSD_TOL
    assert res.inner_holds


def test_gap_holds_on_random_ensemble():
    for seed in range(25):
        w, fam = _random_instance(seed, d=2 + seed % 6, n=1 + seed % 5)
        res = cbs_operator_gap(w, fam)
        assert res.holds, (seed, res.min_eigenvalue)
        assert res.inner_holds
        # the gap matrix itself is Hermitian by construction
        assert np.abs(res.gap - res.gap.conj().T).max() == 0.0


def test_gap_global_phase_invariance():
    # S picks up the phase, S S^* and sum |z|^2 do not: the gap matrix
    # is unchanged up to roundoff
    w, fam = _random_instance(404, d=4, n=3)
    base = cbs_operator_gap(w, fam)
    spun = cbs_operator_gap(w * np.exp(0.7j), fam)
    scale = base.limit / linalg.PSD_TOL  # max(1, ||gap||)
    assert np.abs(base.gap - spun.gap).max() <= 1e-12 * scale
    assert abs(base.min_eigenvalue - spun.min_eigenvalue) <= 1e-10 * scale


def _norm_check(w, fam):
    """Both sides of ||sum z_i A_i||^2 <= (sum |z_i|^2) ||sum A_i A_i^*||."""
    return fam.weighted_sum_norm(w) ** 2, float((np.abs(w) ** 2).sum()) * fam.sum_products_norm


def _cbs_norm_record(w, fam):
    return next(c for c in verify_instance(w, fam).checks if c.name == "cbs_norm")


def test_norm_check_holds_and_scales():
    w, fam = _random_instance(99, d=5, n=4)
    lhs, rhs = _norm_check(w, fam)
    assert lhs <= rhs * (1 + 1e-9)
    c = 2.5 - 1.5j
    lhs2, rhs2 = _norm_check(np.asarray(w) * c, fam)
    assert lhs2 <= rhs2 * (1 + 1e-9)
    assert lhs2 == pytest.approx(abs(c) ** 2 * lhs, rel=1e-10)
    assert rhs2 == pytest.approx(abs(c) ** 2 * rhs, rel=1e-10)


def test_norm_check_equality_for_identical_phases():
    # A_i = c_i U with |c_i| arranged so S S^* is a multiple of the
    # identity: then lhs equals (sum |z_i c_i|)^2 <= rhs with equality
    # when the products z_i c_i share one phase
    fam = OperatorFamily([np.eye(3), 2.0 * np.eye(3)])
    lhs, rhs = _norm_check(np.array([2.0, 1.0]), fam)
    assert lhs <= rhs * (1 + 1e-9)
    assert lhs == pytest.approx(16.0, rel=1e-10)          # ||2I + 2I||^2
    assert rhs == pytest.approx(5.0 * 5.0, rel=1e-10)     # (4+1) * ||I+4I||


def test_norm_check_survives_near_degenerate_top_pair():
    # S = diag(1, 1 - 1e-9) has a relative gap of 2e-9 in S^* S, which
    # the norm route must resolve for the check to hold
    fam = OperatorFamily([np.diag([1.0, 0.0]), np.diag([0.0, 1.0 - 1e-9])])
    rec = _cbs_norm_record([1.0, 1.0], fam)
    assert rec.holds
    assert rec.lhs == pytest.approx(1.0, rel=1e-12)
    assert rec.bound == pytest.approx(2.0, rel=1e-12)


def test_upper_pairs_are_cached_and_read_only():
    iu, ju = _upper_pairs(4)
    assert _upper_pairs(4)[0] is iu and _upper_pairs(4)[1] is ju
    # the diagonal pairs are left out: ||A_i A_i^*|| is ||A_i||^2
    ref_i, ref_j = np.triu_indices(4, 1)
    assert np.array_equal(iu, ref_i) and np.array_equal(ju, ref_j)
    # a shared cached array must not be written through
    with pytest.raises(ValueError):
        iu[0] = 1
    with pytest.raises(ValueError):
        ju[0] = 1

def test_weighted_sum_matches_manual():
    w, fam = _random_instance(1234, d=3, n=2)
    manual = w[0] * fam.ops[0] + w[1] * fam.ops[1]
    assert np.allclose(fam.weighted_sum(w), manual, rtol=0, atol=1e-14)


def test_weighted_sum_is_kept_read_only_and_never_stale():
    w, fam = _random_instance(1235, d=4, n=3)
    s = fam.weighted_sum(w)
    kept = s.tobytes()
    assert kept == np.einsum("i,iab->ab", w, fam.ops).tobytes()
    with pytest.raises(ValueError):
        s[0, 0] = 1.0
    # weights with the same bytes get the kept S back, without a new einsum
    assert fam.weighted_sum(w.copy()) is s and fam.weighted_sum(list(w)) is s
    # weights changed in place between calls get a fresh S, and the old one is untouched
    norm = fam.weighted_sum_norm(w)
    w[1] *= -3.0
    fresh = fam.weighted_sum(w)
    assert fresh is not s and not fresh.flags.writeable
    assert fresh.tobytes() == np.einsum("i,iab->ab", w, fam.ops).tobytes()
    assert s.tobytes() == kept
    assert fam.weighted_sum_norm(w) == OperatorFamily(fam.ops).weighted_sum_norm(w) != norm


def test_gap_psd_verdict_uses_relative_scale():
    # scaling the instance must not flip the verdict
    w, fam = _random_instance(17, d=4, n=3)
    big = OperatorFamily(fam.ops * 1e6)
    assert cbs_operator_gap(np.asarray(w) * 1e3, big).holds


def _count_norm_calls(monkeypatch):
    calls = []
    solve = linalg.spectral_norms

    def counted(ms, *args, **kwargs):
        calls.append(len(ms))
        return solve(ms, *args, **kwargs)

    monkeypatch.setattr(linalg, "spectral_norms", counted)
    return calls


def test_catalog_left_side_shares_the_norm_pass(monkeypatch):
    n = 4
    w, fam = _random_instance(77, d=5, n=n)
    fresh = OperatorFamily(fam.ops)
    expected = fresh.norms, fresh.cross
    calls = _count_norm_calls(monkeypatch)
    first = bounds.catalog_reports(w, fam)
    # the pairs i < j, the members and the left side
    assert calls == [n * (n - 1) // 2 + n + 1]
    # cached norm data: only the assembled sum is solved
    again = bounds.catalog_reports(2.0 * w, fam)
    assert calls[1:] == [1]
    # the cached norm data is read without a further solve, and carries
    # the bits of a pass without the left side
    assert fam.norms.tobytes() == expected[0].tobytes()
    assert fam.cross.tobytes() == expected[1].tobytes()
    assert len(calls) == 2
    alone = float(np.linalg.norm(fam.weighted_sum(w), 2)) ** 2
    assert first[0].lhs_sq == pytest.approx(alone, rel=1e-10)
    assert again[0].lhs_sq == pytest.approx(4.0 * first[0].lhs_sq, rel=1e-12)


def test_weighted_sum_norm_is_bitwise_route_independent():
    w, fam = _random_instance(78, d=4, n=3)
    merged = OperatorFamily(fam.ops).weighted_sum_norm(w)
    fam.norms  # cache the norm data first: the sum is then solved alone
    assert fam.weighted_sum_norm(w) == merged
    assert merged == float(linalg.spectral_norms(fam.weighted_sum(w)[None])[0])


def test_norm_check_takes_its_left_side_from_the_norm_pass(monkeypatch):
    w, fam = _random_instance(79, d=3, n=3)
    reports = bounds.catalog_reports(w, OperatorFamily(fam.ops))
    calls = _count_norm_calls(monkeypatch)
    rec = _cbs_norm_record(w, fam)
    # one norm pass: the pairs i < j, the members, the left side and sum A_i A_i^*
    assert calls == [3 * 2 // 2 + 3 + 2]
    assert rec.holds and rec.lhs == reports[0].lhs_sq
    assert rec.bound == _norm_check(w, fam)[1]
    # the sum's slice carries the bits of a solve of its own
    alone = OperatorFamily(fam.ops)
    assert fam.sum_products_norm == alone.sum_products_norm
    assert calls[1:] == [1, 1]


def _concatenated_stack(fam, extra):
    # the norm-pass stack as it was built before it was filled in place
    iu, ju = _upper_pairs(fam.count)
    pairs = np.einsum("kab,kcb->kac", fam.ops[iu], fam.ops.conj()[ju])
    return np.concatenate([pairs, fam.ops, extra])


@pytest.mark.parametrize("kind, d, n", [
    ("GaussianDense", 5, 1),
    ("GaussianDense", 1, 4),
    ("GaussianDense", 6, 4),
    ("UnitaryScaled", 4, 3),
    ("RankOneFromVectors", 5, 3),
    ("BlockOrthogonal", 6, 3),
    ("OrthonormalRankOne", 5, 4),
])
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("with_sum", [False, True, "products"], ids=["norm_data", "with_sum", "with_products"])
def test_norm_pass_stack_is_bytewise_the_concatenation(monkeypatch, kind, d, n, scale, with_sum):
    w, gen, _ = generate(InstanceSpec(kind, d, n, 3))
    fam = OperatorFamily(gen.ops * scale)
    seen = []
    solve = linalg.spectral_norms

    def recorded(ms):
        seen.append(ms.copy())
        return solve(ms)

    monkeypatch.setattr(linalg, "spectral_norms", recorded)
    if with_sum == "products":
        # a sum A_i A_i^* formed before the pass is its last slice
        fam.sum_products
        fam.weighted_sum_norm(w)
        extra = np.concatenate([fam.weighted_sum(w)[None], fam.sum_products[None]])
    elif with_sum:
        fam.weighted_sum_norm(w)
        extra = fam.weighted_sum(w)[None]
    else:
        fam.norms
        extra = fam.ops[:0]
    expected = _concatenated_stack(fam, extra)
    assert len(seen) == 1
    assert seen[0].shape == expected.shape and seen[0].tobytes() == expected.tobytes()
    if kind == "BlockOrthogonal":
        # the pair products of orthogonal blocks are exactly zero
        assert not seen[0][: n * (n - 1) // 2].any()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150])
def test_cross_diagonal_is_the_squared_norms(kind, scale):
    # ||A_i A_i^*|| = ||A_i||^2 exactly, so the table's diagonal carries
    # the bits of the squared norms, not of a second solve
    for d, n, seed in ((5, 1, 0), (4, 3, 1), (6, 4, 2), (9, 6, 3)):
        _, gen, _ = generate(InstanceSpec(kind, d, n, seed))
        fam = OperatorFamily(gen.ops * scale)
        assert np.diag(fam.cross).tobytes() == (fam.norms**2).tobytes()


@pytest.mark.parametrize("kind", KINDS)
def test_catalog_forms_no_sum_of_products(kind, monkeypatch):
    # no bound reads sum A_i A_i^*: the catalog neither forms nor solves it
    w, gen, _ = generate(InstanceSpec(kind, 5, 3, 4))
    fam = OperatorFamily(gen.ops)
    calls = _count_norm_calls(monkeypatch)
    bounds.catalog_reports(w, fam)
    assert "sum_products" not in fam.__dict__
    assert calls == [3 * 2 // 2 + 3 + 1]
    fresh = OperatorFamily(gen.ops)
    fresh.norms
    assert calls[1:] == [3 * 2 // 2 + 3]


def test_norm_pass_holds_at_most_three_stacks():
    # numpy reports its buffers to tracemalloc, so the traced peak counts
    # every array the pass holds at once
    n, d = 8, 64
    w, gen, _ = generate(InstanceSpec("GaussianDense", d, n, 1))
    fam = OperatorFamily(gen.ops)
    stack_bytes = (n * (n - 1) // 2 + n + 1) * d * d * 16
    tracemalloc.start()
    try:
        fam.weighted_sum_norm(w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * stack_bytes


def _lagrange_gap(z, ops):
    """sum_{i<j} C_ij C_ij^* with C_ij = conj(z_j) A_i - conj(z_i) A_j:
    Lagrange's identity for the gap, built pair by pair in O(n^2 d^3)
    with no subtraction of the two large sides."""
    i, j = np.triu_indices(len(z), 1)
    c = z[j].conj()[:, None, None] * ops[i] - z[i].conj()[:, None, None] * ops[j]
    return (c @ c.conj().transpose(0, 2, 1)).sum(axis=0)


@pytest.mark.parametrize("kind", KINDS)
def test_gap_matches_the_lagrange_identity(kind):
    # one side scaled at a time: weights by 10^+-150 and 10^4, operators
    # by 10^+-75, every entry of the gap and its least eigenvalue within
    # 64 n eps of D = (sum |z_i|^2) ||sum A_i A_i^*||
    eps = np.finfo(float).eps
    for n in range(1, 7):
        for seed in range(8):
            w, fam, _ = generate(InstanceSpec(kind, n + seed % 4, n, seed))
            for w_scale, op_scale in ((1.0, 1.0), (1e150, 1.0), (1e-150, 1.0), (1e4, 1.0), (1.0, 1e75), (1.0, 1e-75)):
                z, scaled = w * w_scale, OperatorFamily(fam.ops * op_scale)
                gap = cbs_operator_gap(z, scaled)
                d_scale = float((np.abs(z) ** 2).sum()) * np.linalg.norm(scaled.sum_products, 2)
                err = max(float(np.abs(gap.gap - _lagrange_gap(z, scaled.ops)).max()), -gap.min_eigenvalue)
                assert err <= 64 * n * eps * d_scale, (n, seed, w_scale, op_scale, err / (n * eps * d_scale))
