import csv
import hashlib
import math

import catalog_reference
import numpy as np
import pytest

from opsumbounds import bounds, harness, linalg
from opsumbounds.bounds import catalog_reports, tightest_report
from opsumbounds.cbs import OperatorFamily
from opsumbounds.errors import InvalidSpec
from opsumbounds.harness import (
    CSV_HEADER,
    KINDS,
    _PROBE_COUNT,
    _PROBE_SALT,
    InstanceSpec,
    _gram_schmidt_stack,
    _probes,
    generate,
    slack_sweep,
    verify_instance,
    write_slack_csv,
)
from opsumbounds.rng import PortableRng, derive_seed
from opsumbounds.vectors import VectorFamily, bessel_weighting, rank_one_family


def _reference_gram_schmidt(m):
    """One matrix at a time: the loop the stacked pass must reproduce bit
    for bit."""
    d = m.shape[0]
    q = np.zeros_like(m)
    for j in range(d):
        v = m[:, j].copy()
        for i in range(j):
            v -= (q[:, i].conj() @ v) * q[:, i]
        q[:, j] = v / float(np.linalg.norm(v))
    return q


def _reference_stack(m):
    return np.stack([_reference_gram_schmidt(m[i]) for i in range(m.shape[0])])


def test_generate_is_deterministic():
    spec = InstanceSpec("GaussianDense", 5, 3, 17)
    w1, fam1, _ = generate(spec)
    w2, fam2, _ = generate(spec)
    assert w1.tobytes() == w2.tobytes()
    assert fam1.ops.tobytes() == fam2.ops.tobytes()


def test_generate_separates_seeds_and_kinds():
    w1, fam1, _ = generate(InstanceSpec("GaussianDense", 4, 2, 0))
    w2, fam2, _ = generate(InstanceSpec("GaussianDense", 4, 2, 1))
    assert fam1.ops.tobytes() != fam2.ops.tobytes()
    _, fam3, _ = generate(InstanceSpec("UnitaryScaled", 4, 2, 0))
    assert fam1.ops.tobytes() != fam3.ops.tobytes()


def test_block_orthogonal_cross_vanishes_exactly():
    _, fam, _ = generate(InstanceSpec("BlockOrthogonal", 7, 3, 5))
    off = fam.cross.copy()
    np.fill_diagonal(off, 0.0)
    # disjoint blocks: the products are the zero matrix, not merely small
    assert off.max() == 0.0


def test_orthonormal_rank_one_structure():
    w, fam, vf = generate(InstanceSpec("OrthonormalRankOne", 5, 4, 9))
    assert np.all(w == 1.0)
    assert vf is not None and vf.count == 4
    for op in fam.ops:
        assert np.allclose(op @ op, op, atol=1e-12)
        assert np.allclose(op.conj().T, op, atol=1e-12)
    off = fam.cross.copy()
    np.fill_diagonal(off, 0.0)
    assert off.max() == 0.0


def test_unitary_scaled_columns_are_orthogonal():
    _, fam, _ = generate(InstanceSpec("UnitaryScaled", 4, 3, 21))
    for i, op in enumerate(fam.ops):
        scale_sq = fam.norms[i] ** 2
        assert np.allclose(op.conj().T @ op, scale_sq * np.eye(4), atol=1e-9 * scale_sq)


@pytest.mark.parametrize("power", [-150, -13, 0, 13, 150])
@pytest.mark.parametrize("d", [1, 2, 3, 7, 12, 16, 64])
def test_stacked_gram_schmidt_equals_the_per_matrix_loop(d, power):
    for n in range(1, 7):
        m = PortableRng(100 * d + n).complex_normal((n, d, d)) * 10.0**power
        got = _gram_schmidt_stack(m)
        assert got.flags.c_contiguous
        assert got.tobytes() == _reference_stack(m).tobytes(), n


def test_stacked_gram_schmidt_raises_on_a_dependent_column():
    m = PortableRng(5).complex_normal((4, 7, 7))
    zero, repeated = m.copy(), m.copy()
    zero[1, :, 3] = 0.0
    repeated[2, :, 5] = repeated[2, :, 2]
    for bad in (zero, repeated):
        with pytest.raises(ValueError, match="numerically dependent"):
            _gram_schmidt_stack(bad)
    # the collapse test is relative: scaling by 2^-500 (exact) changes no
    # bit, where an absolute 1e-12 threshold would call every column collapsed
    got = _gram_schmidt_stack(m)
    assert _gram_schmidt_stack(m * 2.0**-500).tobytes() == got.tobytes()
    for q in got:
        assert np.allclose(q.conj().T @ q, np.eye(7), atol=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_unitary_scaled_equals_the_per_matrix_reference(seed):
    rng = PortableRng(derive_seed(seed, KINDS.index("UnitaryScaled"), 16, 6))
    base = rng.complex_normal((6, 16, 16))
    scalars = rng.complex_normal(6)
    weights = rng.complex_normal(6)
    expected = np.stack([scalars[i] * _reference_gram_schmidt(base[i]) for i in range(6)])
    w, fam, _ = generate(InstanceSpec("UnitaryScaled", 16, 6, seed))
    assert w.tobytes() == weights.tobytes()
    assert fam.ops.tobytes() == expected.tobytes()


def test_rank_one_kind_matches_vector_family():
    _, fam, vf = generate(InstanceSpec("RankOneFromVectors", 6, 4, 2))
    assert vf is not None
    assert np.allclose(fam.ops, rank_one_family(vf).ops)


def test_spec_validation():
    with pytest.raises(InvalidSpec):
        InstanceSpec("NoSuchKind", 3, 2, 0)
    with pytest.raises(InvalidSpec):
        InstanceSpec("GaussianDense", 0, 2, 0)
    with pytest.raises(InvalidSpec):
        InstanceSpec("GaussianDense", 3, 0, 0)
    with pytest.raises(InvalidSpec):
        InstanceSpec("GaussianDense", 3, 2, "0")
    # bool is an int subclass; generate would fail inside the rng
    for fields in ((True, 2, 0), (3, True, 0), (3, 2, False), (True, 2, False)):
        with pytest.raises(InvalidSpec):
            InstanceSpec("GaussianDense", *fields)
    with pytest.raises(InvalidSpec):
        InstanceSpec("BlockOrthogonal", 2, 3, 0)
    with pytest.raises(InvalidSpec):
        InstanceSpec("OrthonormalRankOne", 2, 3, 0)


def test_verify_instance_holds_and_names():
    res = verify_instance(*generate(InstanceSpec("GaussianDense", 4, 3, 11))[:2])
    assert res.all_hold
    assert res.worst_violation == 0.0
    names = [c.name for c in res.checks]
    assert names[:3] == ["psd_gap", "psd_gap_inner", "cbs_norm"]
    assert "cross_total" in names and "max_terms" in names
    assert "l2_cross(r=2,s=2)" in names and "l1_cross" in names
    assert sum(n.startswith("image_probe_") for n in names) == 9
    assert sum(n.startswith("bilinear_probe_") for n in names) == 9
    # 3 leading checks, 61 catalog entries, 18 probe checks
    assert len(res.checks) == 82


def test_verify_orthonormal_has_extra_checks():
    res = verify_instance(*generate(InstanceSpec("OrthonormalRankOne", 4, 4, 3))[:2])
    assert res.all_hold
    names = [c.name for c in res.checks]
    assert sum(n.startswith("orthogonal:") for n in names) == 7
    assert len(res.checks) == 89


def test_verify_single_operator_slack_is_unit():
    res = verify_instance(*generate(InstanceSpec("GaussianDense", 4, 1, 23))[:2])
    assert res.all_hold
    skip = ("psd_gap", "psd_gap_inner", "image_probe", "bilinear_probe")
    for c in res.checks:
        if c.name.startswith(skip):
            continue
        assert c.slack_ratio == pytest.approx(1.0, rel=1e-9), c.name


class _LowSumProducts(OperatorFamily):
    """A family whose ||sum A_i A_i^*|| reads 1e-6 low: only the cbs_norm
    check reads it."""

    @property
    def sum_products_norm(self) -> float:
        return super().sum_products_norm * (1.0 - 1e-6)


@pytest.mark.parametrize("tol", [None, 1e-3])
def test_tol_reaches_only_the_catalog_checks(tol):
    # a single operator is a CBS equality case, so the low reading fails
    # cbs_norm; a looser tol must not rescue it
    w, fam, _ = generate(InstanceSpec("GaussianDense", 4, 1, 23))
    low = _LowSumProducts(fam.ops)
    res = verify_instance(w, low) if tol is None else verify_instance(w, low, tol)
    assert [c.name for c in res.checks if not c.holds] == ["cbs_norm"]


@pytest.mark.parametrize("scale", [1.0, 1e-60, 1e60, 1e150, 0.0, 1e-150])
def test_verify_records_share_one_slack_rule_and_one_worst_max(scale):
    # at 1e60 and 1e150 the catalog's unscaled powers overflow, which puts
    # inf and nan entries into it; zero weights give zero left sides and
    # bounds; n = 1 and BlockOrthogonal add the orthogonal entries: the
    # array rules must give the scalar rules' bits on all of those
    for spec, size in ((InstanceSpec("GaussianDense", 12, 4, 3), 82), (InstanceSpec("GaussianDense", 12, 1, 3), 89),
                       (InstanceSpec("BlockOrthogonal", 12, 4, 3), 89)):
        w, fam, _ = generate(spec)
        with np.errstate(over="ignore", invalid="ignore"):
            res = verify_instance(w * scale, fam)
        assert len(res.checks) == size
        worst = 0.0
        for c in res.checks:
            want = catalog_reference.slack_ratio(max(c.lhs, 0.0), c.bound)
            assert float(c.slack_ratio).hex() == float(want).hex(), c
            assert type(c.slack_ratio) is float and type(c.holds) is bool, c
            # a PSD verdict is lo >= -limit, which is lhs <= bound exactly
            tol = 0.0 if c.name.startswith("psd_gap") else bounds.CHECK_TOL
            assert c.holds == (c.lhs <= c.bound * (1.0 + tol)), c
            worst = max(worst, catalog_reference.violation(c.lhs, c.bound))
        assert float(res.worst_violation).hex() == float(worst).hex()
        assert res.all_hold == all(c.holds for c in res.checks)


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("inf"), float("nan"), True, np.True_])
def test_verify_rejects_a_tol_that_is_not_finite_and_positive(tol):
    # with zero weights an infinite tol made every catalog check
    # 0 <= 0 * inf = nan, a failure; True passes > 0 but is no tolerance
    _, fam, _ = generate(InstanceSpec("GaussianDense", 4, 2, 1))
    with pytest.raises(ValueError, match="tol"):
        verify_instance(np.zeros(2), fam, tol=tol)


def _bits(rows):
    return [(float(lhs).hex(), float(bound).hex(), holds) for lhs, bound, holds in rows]


def _pair_rows(w, fam, probes, m):
    k = len(probes)
    return ([bounds.vector_image_bound(w, fam, x, m) for x in probes]
            + [bounds.bilinear_bound(w, fam, x, probes[(j + 1) % k], m) for j, x in enumerate(probes)])


# every kind, with n = 1 and d = 1 among the shapes
PROBE_SPECS = [InstanceSpec(kind, d, n, seed) for kind in KINDS
               for d, n in ((1, 1), (3, 1), (5, 2), (13, 4)) for seed in (0, 7)]


@pytest.mark.parametrize("scale", [1.0, 0.0, 1e-60, 1e60])
def test_probe_rows_are_the_pair_bit_for_bit(scale):
    # verify_instance's probe rows, then probe_checks at verify's tightest
    # bound M and at 0, inf and nan, against the calls of
    # vector_image_bound and bilinear_bound; a zero probe makes inf times
    # its ||x||^2 nan
    names = [f"image_probe_{k}" for k in range(9)] + [f"bilinear_probe_{k}" for k in range(9)]
    for spec in PROBE_SPECS:
        w, fam, _ = generate(spec)
        w = w * scale
        with np.errstate(over="ignore", invalid="ignore"):
            res = verify_instance(w, fam)
            m = tightest_report(catalog_reports(w, fam)).bound
        probes = _probes(fam.dim, fam.count)
        rows = [c for c in res.checks if "_probe_" in c.name]
        assert [c.name for c in rows] == names
        assert _bits((c.lhs, c.bound, c.holds) for c in rows) == _bits(_pair_rows(w, fam, probes, m)), spec
        probes += (np.zeros(fam.dim),)
        for bound in (m, 0.0, math.inf, math.nan):
            want = _bits(_pair_rows(w, fam, probes, bound))
            assert _bits(bounds.probe_checks(w, fam, probes, bound)) == want, (spec, bound)


def test_verify_forms_each_probe_image_once(monkeypatch):
    images, weight_checks, sums = [], [], []
    einsum, as_weights = np.einsum, bounds.as_weights

    def counting_einsum(subscripts, *ops, **kw):
        if subscripts == "i,iab,b->a":
            images.append(ops[2])
        if subscripts == "i,iab->ab":
            sums.append(ops[0])
        return einsum(subscripts, *ops, **kw)

    def counting_as_weights(z, n):
        weight_checks.append(n)
        return as_weights(z, n)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    monkeypatch.setattr(bounds, "as_weights", counting_as_weights)
    w, fam, _ = generate(InstanceSpec("GaussianDense", 5, 3, 4))
    verify_instance(w, fam)
    # the catalog checks the weights once, and probe_checks once; the norm
    # pass and the PSD gap share one S
    assert (len(images), len(weight_checks), len(sums)) == (9, 2, 1)
    # the pair keeps its work: one check of the weights a call, and one
    # image for the pair on the same weights and probe
    del images[:], weight_checks[:]
    bounds.vector_image_bound(w, fam, np.ones(5), 1.0)
    bounds.bilinear_bound(w, fam, np.ones(5), np.ones(5), 1.0)
    assert (len(images), len(weight_checks)) == (1, 2)


def test_probe_checks_of_no_probes_are_empty():
    w, fam, _ = generate(InstanceSpec("GaussianDense", 3, 2, 0))
    assert bounds.probe_checks(w, fam, [], 1.0) == []
    assert bounds.probe_checks(w, fam, (), 1.0) == []
    assert bounds.probe_checks(w, fam, np.zeros((0, 3)), 1.0) == []


def _rows(res):
    return [(c.name, float(c.lhs).hex(), float(c.bound).hex(), c.holds, float(c.slack_ratio).hex())
            for c in res.checks] + [res.all_hold, float(res.worst_violation).hex()]


@pytest.mark.parametrize("kind", KINDS)
def test_verify_rows_do_not_depend_on_what_the_family_cached(kind):
    # a fresh family solves the sum of products in its one norm pass; a
    # family with cached norm data solves it alone; the bytes are the same
    w, gen, _ = generate(InstanceSpec(kind, 7, 3, 5))
    for scale in (1.0, 1e-60):
        want = _rows(verify_instance(w * scale, OperatorFamily(gen.ops)))
        for warm in (lambda f: f.norms, lambda f: f.weighted_sum_norm(w), lambda f: f.sum_products_norm,
                     lambda f: catalog_reports(w * scale, f), lambda f: verify_instance(w * scale, f)):
            fam = OperatorFamily(gen.ops)
            warm(fam)
            assert _rows(verify_instance(w * scale, fam)) == want, (kind, scale)


def test_fresh_family_verify_makes_one_norm_call(monkeypatch):
    calls = []
    solve = linalg.spectral_norms

    def counted(ms):
        calls.append(len(ms))
        return solve(ms)

    monkeypatch.setattr(linalg, "spectral_norms", counted)
    for kind in KINDS:
        w, fam, _ = generate(InstanceSpec(kind, 6, 4, 2))
        del calls[:]
        verify_instance(w, fam)
        # the pairs i < j, the members, S and sum A_i A_i^*
        assert calls == [4 * 3 // 2 + 4 + 2], kind


def test_check_names_are_built_once_per_grid():
    first = verify_instance(*generate(InstanceSpec("GaussianDense", 4, 3, 0))[:2])
    second = verify_instance(*generate(InstanceSpec("UnitaryScaled", 5, 2, 1))[:2])
    assert all(a.name is b.name for a, b in zip(first.checks, second.checks))
    # one grid spelled two ways shares its names; another grid has its own
    w, fam, _ = generate(InstanceSpec("GaussianDense", 4, 3, 0))
    spelled = [verify_instance(w, fam, exponent_grid=grid) for grid in ((1.5, 3), [1.5, 3.0], np.array([1.5, 3.0]))]
    assert all(a.name is b.name for res in spelled[1:] for a, b in zip(spelled[0].checks, res.checks))
    # 3 leading checks, 4 x 4 master entries and 7 named variants, 18 probe checks
    assert len(spelled[0].checks) == 3 + 16 + 7 + 18
    assert "holder_count(p=2,q=2)" in [c.name for c in first.checks]
    assert "holder_count(p=2,q=2)" not in [c.name for c in spelled[0].checks]
    # the orthogonal entries come with their own names, on the same grid
    ortho = verify_instance(*generate(InstanceSpec("OrthonormalRankOne", 4, 4, 3))[:2])
    assert [c.name for c in ortho.checks][:64] == [c.name for c in first.checks][:64]
    assert sum(c.name.startswith("orthogonal:") for c in ortho.checks) == 7


def test_check_names_stay_right_once_their_cache_is_cleared(monkeypatch):
    # 16 grids fill the cache of check names; the 17th clears it, so the
    # first grid's names are built again, and must come out the same
    monkeypatch.setattr(harness, "_CHECK_NAMES", {})
    w, fam, _ = generate(InstanceSpec("GaussianDense", 4, 3, 0))
    grids = [(1.5 + k / 8,) for k in range(17)]
    first = [c.name for c in verify_instance(w, fam, exponent_grid=grids[0]).checks]
    for grid in grids[1:]:
        verify_instance(w, fam, exponent_grid=grid)
    assert [grid for grid, _ in harness._CHECK_NAMES] == [grids[-1]]
    again = [c.name for c in verify_instance(w, fam, exponent_grid=grids[0]).checks]
    assert again == first
    labels = [f"{r.name}({r.exponents})" if r.exponents else r.name for r in catalog_reports(w, fam, grids[0])]
    assert again[3:-18] == labels and "holder_count(p=1.5,q=3)" in again


# the vectors and weights of a Gram-route case, with Bessel weights, and
# the two subnormal vector files of the CLI tests
VECTOR_CASES = [
    (PortableRng(3).complex_normal((4, 6)), PortableRng(4).complex_normal(4)),
    (PortableRng(3).complex_normal((4, 6)), None),
    ([[1e-310, 0.0]], None),
    ([[1e-310, 0.0], [0.6 + 0.1j, 0.3 - 0.2j]], None),
]


@pytest.mark.parametrize("vectors, weights", VECTOR_CASES, ids=["explicit", "bessel", "subnormal", "subnormal_pair"])
def test_verify_takes_a_vector_family_as_its_materialized_operators(vectors, weights):
    vf = VectorFamily(np.array(vectors, dtype=np.complex128))
    w = bessel_weighting(vf) if weights is None else weights
    got, want = verify_instance(w, vf), verify_instance(w, rank_one_family(vf))
    assert repr(got.checks) == repr(want.checks)
    assert (got.all_hold, got.worst_violation) == (want.all_hold, want.worst_violation)
    assert got.all_hold


def test_probes_are_cached_read_only_and_equal_a_fresh_draw():
    probes = _probes(5, 3)
    assert _probes(5, 3) is probes
    assert len(probes) == 1 + _PROBE_COUNT
    rng = PortableRng(derive_seed(_PROBE_SALT, 5, 3))
    fresh = [np.ones(5, dtype=np.complex128)] + [rng.complex_normal(5) for _ in range(_PROBE_COUNT)]
    for cached, drawn in zip(probes, fresh):
        assert not cached.flags.writeable
        assert cached.tobytes() == drawn.tobytes()


# sha256 of generate()'s weights and operators over every kind on a small
# (dim, count, seed) grid, then of criterion 2's eight probe draws per
# spec.  It pins this platform's np.log1p/np.cos/np.sin bits (x86-64
# with AVX-512, numpy 2.4.6) as well as the stream itself; ROADMAP item
# 5 re-pins it when the normals stop depending on the CPU.
FROZEN_GENERATION_DIGEST = "aef203a82396a8b3c77d66c87505735c726ef5b50b832dd1bdc0ddcc8a79a503"


def _generation_digest():
    h = hashlib.sha256()
    for kind in KINDS:
        for d in (1, 2, 3, 5, 8, 13):
            for n in (1, 2, 4):
                if kind in ("BlockOrthogonal", "OrthonormalRankOne") and d < n:
                    continue
                for seed in range(4):
                    w, fam, _ = generate(InstanceSpec(kind, d, n, seed))
                    h.update(w.tobytes())
                    h.update(fam.ops.tobytes())
                    prng = PortableRng(derive_seed(0xACC, seed, d, n))
                    for _ in range(8):
                        h.update(prng.complex_normal(d).tobytes())
    return h.hexdigest()


def test_frozen_generation_digest():
    """Generated inputs are pinned bit for bit: a change to how the
    stream is drawn must not move a single generated value."""
    assert _generation_digest() == FROZEN_GENERATION_DIGEST


def test_sweep_shape_and_order():
    specs = [
        InstanceSpec("GaussianDense", 3, 2, 0),
        InstanceSpec("GaussianDense", 4, 3, 1),
        InstanceSpec("OrthonormalRankOne", 4, 4, 2),
    ]
    rows = slack_sweep(specs)
    assert len(rows) == 61 + 61 + 68
    assert rows[0][:6] == (0, "GaussianDense", 3, 2, "master:max_weight+max_pair", "")
    assert rows[61][:4] == (1, "GaussianDense", 4, 3)
    # per-instance minimum of the sweep equals the tightest report
    for spec, start, size in [(specs[0], 0, 61), (specs[1], 61, 61)]:
        w, fam, _ = generate(spec)
        tight = tightest_report(catalog_reports(w, fam)).bound
        assert min(r[7] for r in rows[start : start + size]) == tight


def test_sweep_orthonormal_cross_total_row():
    rows = slack_sweep([InstanceSpec("OrthonormalRankOne", 4, 4, 8)])
    row = next(r for r in rows if r[4] == "cross_total")
    # the assembled sum is the identity, the cross table is the identity
    assert row[6] == pytest.approx(1.0, rel=1e-9)
    assert row[7] == pytest.approx(4.0, rel=1e-9)
    assert row[8] == pytest.approx(4.0, rel=1e-9)


def test_csv_round_trip(tmp_path):
    rows = slack_sweep([InstanceSpec("GaussianDense", 3, 2, 4)])
    path = tmp_path / "sweep.csv"
    write_slack_csv(rows, path)
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    with open(path, newline="", encoding="utf-8") as fh:
        parsed = list(csv.reader(fh))
    assert tuple(parsed[0]) == CSV_HEADER
    assert len(parsed) == 1 + len(rows)
    for row, rec in zip(rows, parsed[1:]):
        # 17 significant digits survive the text round trip exactly
        assert float(rec[6]) == row[6]
        assert float(rec[7]) == row[7]
        assert float(rec[8]) == row[8]
