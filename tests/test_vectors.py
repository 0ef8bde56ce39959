import numpy as np
import pytest

from opsumbounds.bounds import catalog_reports
from opsumbounds.errors import DimensionMismatch, ZeroVector
from opsumbounds.problemio import loads_problem
from opsumbounds.rng import PortableRng
from opsumbounds.vectors import VectorFamily, bessel_weighting, rank_one_family

from identities import verify_identities

_MASTER_ENTRIES = [
    ("master:max_weight+max_pair", ""),
    ("master:holder+holder", "p=2,q=2;r=1.5,s=3"),
    ("master:max_norm+max_cross", ""),
]


def _entry(reps, name, exponents=""):
    return next(r for r in reps if r.name == name and r.exponents == exponents)


def _random_vectors(seed, d, n):
    rng = PortableRng(seed)
    return rng.complex_normal(n), VectorFamily(rng.complex_normal((n, d)))


def test_rank_one_hand_cases():
    fam = rank_one_family(VectorFamily([[1.0, 0.0]]))
    assert np.allclose(fam.ops[0], np.diag([1.0, 0.0]))
    # scaling the vector by 2 scales the operator by 2, not 4
    fam2 = rank_one_family(VectorFamily([[2.0, 0.0]]))
    assert np.allclose(fam2.ops[0], np.diag([2.0, 0.0]))


def test_norm_and_cross_identities():
    for seed in range(12):
        _, vf = _random_vectors(500 + seed, d=2 + seed % 7, n=1 + seed % 8)
        assert verify_identities(vf)
    assert verify_identities(VectorFamily(np.eye(5)))


def test_family_validation():
    with pytest.raises(ZeroVector, match=r"^vectors\[0\] is the zero vector$"):
        VectorFamily([np.array([0.0, 0.0]), np.array([1.0, 0.0])])
    with pytest.raises(ZeroVector, match=r"^vectors\[1\] is the zero vector$"):
        VectorFamily([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        VectorFamily([])
    with pytest.raises(DimensionMismatch):
        VectorFamily([np.zeros(2) + 1, np.zeros(3) + 1])
    with pytest.raises(ValueError, match=r"^vectors\[0\]\[0\] is not finite$"):
        VectorFamily([np.array([np.inf, 1.0])])
    with pytest.raises(ValueError, match=r"^vectors\[1\]\[1\] is not finite$"):
        VectorFamily([[1.0, 2.0], [3.0, np.nan]])
    for bad in ([[1.0, 2.0], [3.0]], [["a"]], [[object()]], np.ones(3), np.ones((2, 2, 2)), np.ones((2, 0))):
        with pytest.raises(DimensionMismatch):
            VectorFamily(bad)


def test_gram_lhs_matches_materialized_operators():
    for seed in (1, 2, 3, 4):
        w, vf = _random_vectors(seed, d=5, n=4)
        direct = catalog_reports(w, rank_one_family(vf))[0].lhs_sq
        assert vf.weighted_sum_norm(w) ** 2 == pytest.approx(direct, rel=1e-9)


def test_gram_master_agrees_with_matrix_route():
    w, vf = _random_vectors(42, d=6, n=4)
    gram_reps = catalog_reports(w, vf)
    mat_reps = catalog_reports(w, rank_one_family(vf))
    for entry in _MASTER_ENTRIES:
        gram_rep = _entry(gram_reps, *entry)
        mat_rep = _entry(mat_reps, *entry)
        assert gram_rep.bound == pytest.approx(mat_rep.bound, rel=1e-9)
        assert gram_rep.lhs_sq == pytest.approx(mat_rep.lhs_sq, rel=1e-9)


def test_gram_catalog_agrees_with_matrix_catalog():
    w, vf = _random_vectors(43, d=4, n=5)
    gram_reps = catalog_reports(w, vf)
    mat_reps = catalog_reports(w, rank_one_family(vf))
    assert [r.name for r in gram_reps] == [r.name for r in mat_reps]
    for g, m in zip(gram_reps, mat_reps):
        assert g.bound == pytest.approx(m.bound, rel=1e-9), g.name


def _relative_gap(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


@pytest.mark.parametrize("vectors", [
    PortableRng(45).complex_normal((1, 3)),                      # n = 1
    PortableRng(46).complex_normal((6, 2)),                      # n > d
    PortableRng(47).complex_normal((3, 7)),
    np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.5j], [0.0, 3.0, 0.0]]),  # orthogonal
])
def test_catalog_reports_takes_a_vector_family(vectors):
    # the Gram route and the materialized operators give the same
    # catalog, to criterion 6's relative tolerance
    vf = VectorFamily(vectors)
    w = PortableRng(48).complex_normal(vf.count)
    gram_reps = catalog_reports(w, vf, exponent_grid=(1.5, 2.0, 7.0))
    mat_reps = catalog_reports(w, rank_one_family(vf), exponent_grid=(1.5, 2.0, 7.0))
    assert [(g.name, g.exponents) for g in gram_reps] == [(m.name, m.exponents) for m in mat_reps]
    assert _relative_gap(gram_reps[0].lhs_sq, mat_reps[0].lhs_sq) <= 1e-9
    for g, m in zip(gram_reps, mat_reps):
        assert _relative_gap(g.bound, m.bound) <= 1e-9, g.name


def test_particular_bounds_orthonormal_basis():
    n = 4
    a = np.ones(n)
    catalog = catalog_reports(a, VectorFamily(np.eye(n)), exponent_grid=(1.5, 2.0))
    reps = [
        _entry(catalog, "cross_total"),
        _entry(catalog, "holder_count", "p=2,q=2"),
        _entry(catalog, "max_terms"),
        _entry(catalog, "l2_cross", "r=2,s=2"),
        _entry(catalog, "l1_cross"),
        _entry(catalog, "power_mean_cross", "r=1.5,s=3"),
    ]
    # unit gram: every bracket collapses to 1 and each bound is n ||x||^2
    for rep in reps:
        assert rep.bound == pytest.approx(n, rel=1e-12), rep.name


def test_particular_bounds_single_vector():
    y = np.array([1.0 + 2.0j, 0.5])
    xns = 1.75
    expected = xns * abs(3.0 - 1.0j) ** 2 * float((np.abs(y) ** 2).sum())
    catalog = catalog_reports([3.0 - 1.0j], VectorFamily([y]), exponent_grid=(2.0, 3.0))
    for rep in [
        _entry(catalog, "cross_total"),
        _entry(catalog, "holder_count", "p=3,q=1.5"),
        _entry(catalog, "max_terms"),
        _entry(catalog, "l2_cross", "r=2,s=2"),
        _entry(catalog, "l1_cross"),
        _entry(catalog, "power_mean_cross", "r=2,s=2"),
    ]:
        assert xns * rep.bound == pytest.approx(expected, rel=1e-9), rep.name


def test_bounds_dominate_direct_image_sums():
    rng = PortableRng(2024)
    for seed in range(10):
        w, vf = _random_vectors(700 + seed, d=5, n=4)
        x = rng.complex_normal(5)
        xns = float((np.abs(x) ** 2).sum())
        coeff = np.asarray(w) * (vf.vectors.conj() @ x) / vf.norms
        img = coeff @ vf.vectors
        lhs = float((np.abs(img) ** 2).sum())
        for rep in catalog_reports(w, vf):
            assert lhs <= xns * rep.bound * (1.0 + 1e-9), rep.name


def test_bessel_weighting():
    assert np.allclose(bessel_weighting(VectorFamily(np.eye(3))), np.ones(3))
    y = VectorFamily([[2.0, 0.0], [0.0, 3.0]])
    got = bessel_weighting(y)
    assert got == pytest.approx([2.0, 3.0])
    got[0] = -99.0
    assert bessel_weighting(y)[0] == pytest.approx(2.0)


def test_unitary_rotation_invariance():
    w, vf = _random_vectors(55, d=4, n=3)
    q, _ = np.linalg.qr(PortableRng(56).complex_normal((4, 4)))
    spun = VectorFamily(vf.vectors @ q.T)
    base = catalog_reports(w, vf)
    rotated = catalog_reports(w, spun)
    for b, r in zip(base, rotated):
        assert r.bound == pytest.approx(b.bound, rel=1e-9), b.name
        assert r.lhs_sq == pytest.approx(b.lhs_sq, rel=1e-9)


def test_orthogonal_entries_for_orthogonal_vectors():
    # disjoint supports give an exactly diagonal gram matrix
    vf = VectorFamily([np.array([2.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.5])])
    reps = catalog_reports([1.0, 1.0], vf)
    assert sum(r.name.startswith("orthogonal:") for r in reps) == 7


def _materialized_norm_sq(w, y):
    # S = sum alpha_i ||y_i|| u_i u_i^H with unit u_i, so no entry leaves
    # the scale of the vectors on the way to numpy's norm
    norms = np.linalg.norm(y, axis=1)
    u = y / norms[:, None]
    s = np.einsum("i,ia,ib->ab", np.asarray(w) * norms, u, u.conj())
    return float(np.linalg.norm(s, 2)) ** 2


@pytest.mark.parametrize("k", [-300, -200, -170, -150, -120, -80, 0, 80, 150, 170, 200, 300])
def test_gram_lhs_is_scale_safe(k):
    # past 10^+-154 the squared norms overflow or underflow; there the
    # weights are scaled by 10^-k, which keeps S itself representable
    wk = -k if abs(k) > 154 else 0
    base = PortableRng(3).complex_normal((4, 6))
    wide = PortableRng(5).complex_normal((7, 3))                      # n > d
    dependent = np.concatenate([base[:2], base[:2].sum(axis=0, keepdims=True) * (0.5 - 2j),
                                3.0 * base[:1]])                       # rank 2
    families = [(PortableRng(4).complex_normal(4), base),
                (PortableRng(6).complex_normal(7), wide),
                (PortableRng(7).complex_normal(4), dependent)]
    for w, y in families:
        vf = VectorFamily(y * 10.0**k)
        norms = np.linalg.norm(y, axis=1) * 10.0**k
        assert np.abs(vf.norms - norms).max() <= 1e-12 * norms.min()
        expected = _materialized_norm_sq(w, y) * 10.0 ** (2 * (k + wk))
        got = vf.weighted_sum_norm(np.asarray(w) * 10.0**wk) ** 2
        assert abs(got - expected) <= 1e-10 * expected, y.shape


@pytest.mark.parametrize("tiny", ["1e-310", "5e-324"])
def test_gram_route_takes_subnormal_entries(tiny):
    # a vector whose norm is subnormal: 1 / ||y|| overflows, so the R
    # factor must come from the power-of-two-scaled vectors
    def load(rows):
        text = '{"schema_version": "1", "dim": 2, "vectors": [%s]}' % rows
        return VectorFamily(loads_problem(text).vectors)

    alone = load(f"[[{tiny}, 0], [0, 0]]")
    assert alone.weighted_sum_norm([1.0]) == float(tiny)
    for vf, lhs in ((alone, 0.0), (load(f"[[{tiny}, 0], [0, 0]], [[0.6, 0.1], [0.3, -0.2]]"), 0.25)):
        reps = catalog_reports(bessel_weighting(vf), vf)
        assert reps[0].lhs_sq == pytest.approx(lhs, rel=1e-12, abs=0.0)
        for rep in reps:
            assert np.isfinite(rep.bound) and rep.bound >= rep.lhs_sq * (1.0 - 1e-12), rep
