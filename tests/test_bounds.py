import math
import re

import catalog_reference
import numpy as np
import pytest

from opsumbounds import bounds, harness
from opsumbounds.bounds import (
    bilinear_bound,
    catalog_reports,
    probe_checks,
    tightest_report,
    vector_image_bound,
)
from opsumbounds.cbs import OperatorFamily
from opsumbounds.errors import DimensionMismatch, InvalidExponent
from opsumbounds.rng import PortableRng
from opsumbounds.vectors import VectorFamily


def _random_instance(seed, d, n):
    rng = PortableRng(seed)
    return rng.complex_normal(n), OperatorFamily(rng.complex_normal((n, d, d)))


def _entry(reps, name, exponents=""):
    return next(r for r in reps if r.name == name and r.exponents == exponents)


def _projections(d):
    eye = np.eye(d)
    return OperatorFamily([np.outer(eye[i], eye[i]) for i in range(d)])


# -- hand-checkable instances ------------------------------------------------


def test_orthonormal_projections_hand_case():
    # two rank-one projections onto orthogonal axes, unit weights: the
    # assembled sum is the identity, so the left side is exactly 1
    fam = _projections(2)
    reps = catalog_reports([1.0, 1.0], fam)
    assert reps[0].name == "master:max_weight+max_pair"
    assert reps[0].lhs_sq == pytest.approx(1.0, abs=1e-12)
    # diag term 1 * (1 + 1) = 2, vanishing cross products kill the rest
    assert reps[0].bound == pytest.approx(2.0, abs=1e-12)
    tight = tightest_report(reps)
    assert tight.bound == pytest.approx(2.0, rel=1e-12)
    assert tight.slack_ratio == pytest.approx(2.0, rel=1e-10)


def test_single_point_grid_tightest():
    fam = _projections(2)
    reps = catalog_reports([1.0, 1.0], fam, exponent_grid=(2.0,))
    assert len(reps) == 18
    tight = tightest_report(reps)
    # several cells tie at 2 up to roundoff; ties go to the earliest
    assert tight.name == "master:max_weight+max_pair"
    assert tight.bound == 2.0


def test_scaled_identity_hand_values():
    fam = OperatorFamily([np.eye(2), 2.0 * np.eye(2)])
    w = [2.0, 1.0]
    reps = catalog_reports(w, fam)
    assert reps[0].lhs_sq == pytest.approx(16.0, rel=1e-10)
    # diag 4 * 5, off 2 * 4
    assert _entry(reps, "master:max_weight+max_pair").bound == pytest.approx(28.0, rel=1e-10)
    assert _entry(reps, "max_terms").bound == pytest.approx(30.0, rel=1e-10)
    assert _entry(reps, "l1_cross").bound == pytest.approx(40.0, rel=1e-10)
    assert _entry(reps, "cross_total").bound == pytest.approx(36.0, rel=1e-10)


def test_master_is_diag_plus_offdiag():
    w, fam = _random_instance(52, d=5, n=4)
    wa, na = np.abs(w), fam.norms
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    pw = np.array([wa[i] * wa[j] for i, j in pairs])
    cross = np.array([fam.cross[i, j] for i, j in pairs])
    reps = catalog_reports(w, fam)
    for name, exponents, diag, offdiag in [
        ("master:max_weight+max_cross", "",
         wa.max() ** 2 * (na**2).sum(), pw.sum() * cross.max()),
        ("master:holder+holder", "p=1.5,q=3;r=3,s=1.5",
         (wa**3).sum() ** (2 / 3) * (na**6).sum() ** (1 / 3),
         (pw**3).sum() ** (1 / 3) * (cross**1.5).sum() ** (1 / 1.5)),
        ("master:max_norm+max_pair", "",
         (wa**2).sum() * na.max() ** 2, pw.max() * cross.sum()),
    ]:
        assert _entry(reps, name, exponents).bound == pytest.approx(diag + offdiag, rel=1e-12)


# -- structural identities ---------------------------------------------------


def test_single_operator_every_bound_is_tight():
    rng = PortableRng(61)
    for _ in range(20):
        a = rng.complex_normal(1)
        fam = OperatorFamily(rng.complex_normal((1, 4, 4)))
        reps = catalog_reports(a, fam)
        lhs = reps[0].lhs_sq
        for rep in reps:
            assert rep.bound == pytest.approx(lhs, rel=1e-9), rep.name


def test_l2_cross_recaptures_power_mean_at_two():
    w, fam = _random_instance(83, d=4, n=5)
    reps = catalog_reports(w, fam)
    l2 = next(r for r in reps if r.name == "l2_cross")
    pm = next(r for r in reps if r.name == "power_mean_cross" and r.exponents == "r=2,s=2")
    assert l2.bound == pm.bound


def test_every_catalog_entry_dominates_lhs():
    for seed in range(40):
        w, fam = _random_instance(900 + seed, d=2 + seed % 5, n=1 + seed % 6)
        reps = catalog_reports(w, fam)
        lhs = reps[0].lhs_sq
        for rep in reps:
            assert lhs <= rep.bound * (1.0 + 1e-9), (seed, rep.name)
            assert rep.lhs_sq == lhs


def test_catalog_order_and_size():
    w, fam = _random_instance(7, d=4, n=3)
    reps = catalog_reports(w, fam)
    assert len(reps) == 61
    names = [r.name for r in reps]
    assert names[0] == "master:max_weight+max_pair"
    assert names[48] == "master:max_norm+max_cross"
    assert names[49] == "cross_total"
    assert names[50:55] == ["holder_count"] * 5
    assert names[55] == "max_terms"
    assert names[56] == "l2_cross"
    assert names[57] == "l1_cross"
    # only the grid points at or below 2 admit a power-mean form
    assert names[58:] == ["power_mean_cross"] * 3
    pm_exps = [r.exponents for r in reps[58:]]
    assert pm_exps == ["r=1.25,s=5", "r=1.5,s=3", "r=2,s=2"]


def test_orthogonal_entries_appear_only_for_orthogonal_families():
    fam = _projections(3)
    reps = catalog_reports([1.0, 0.5, 0.25], fam)
    assert len(reps) == 68
    assert [r.name for r in reps[61:]] == (
        ["orthogonal:max_weight"] + ["orthogonal:holder"] * 5 + ["orthogonal:max_norm"]
    )
    w, dense = _random_instance(31, d=3, n=3)
    dense_reps = catalog_reports(w, dense)
    assert len(dense_reps) == 61
    assert not any(r.name.startswith("orthogonal:") for r in dense_reps)


EPS = np.finfo(np.float64).eps


@pytest.mark.parametrize("delta", [5e-11, 1e-13, *np.logspace(-14, -2, 400).tolist()])
def test_nearly_orthogonal_family_has_no_orthogonal_entries(delta):
    # A_1 = e1 e1^*, A_2 = e1 v^* with v = delta e1 + sqrt(1 - delta^2) e2:
    # A_1 A_2^* = delta e1 e1^* is small but not 0, and ||S||^2 = 2 + 2 delta
    # for unit weights lies above the orthogonal bound 2
    e1 = np.array([1.0, 0.0])
    v = np.array([delta, math.sqrt(1.0 - delta**2)])
    fam = OperatorFamily([np.outer(e1, e1), np.outer(e1, v)])
    reps = catalog_reports([1.0, 1.0], fam)
    assert not any(r.name.startswith("orthogonal:") for r in reps)
    # every entry left is a bound to within a few roundings: several
    # equal 2 + 2 delta exactly and may round one ulp below the left
    # side, while the orthogonal rows lay 451 eps below it at 1e-13
    assert all(r.lhs_sq <= r.bound * (1 + 4 * EPS) for r in reps)
    assert harness.verify_instance([1.0, 1.0], fam).all_hold


def test_tightest_is_first_strict_minimum():
    for seed in (3, 19, 77):
        w, fam = _random_instance(seed, d=3, n=4)
        reps = catalog_reports(w, fam)
        best = reps[0]
        for rep in reps[1:]:
            if rep.bound < best.bound:
                best = rep
        assert tightest_report(reps) is best


def test_tightest_report_tie_breaking():
    def reps(*values):
        return [bounds.BoundReport(f"b{i}", "", 1.0, v, v) for i, v in enumerate(values)]

    assert tightest_report(reps(3.0, 2.0, 2.0, 5.0)).name == "b1"
    assert tightest_report(reps(1.0, 1.0)).name == "b0"
    # a nan never compares smaller, and a nan best is never replaced
    assert tightest_report(reps(2.0, float("nan"), 1.0)).name == "b2"
    assert tightest_report(reps(float("nan"), 1.0)).name == "b0"


# -- invariances -------------------------------------------------------------


def test_weight_scaling_homogeneity():
    w, fam = _random_instance(140, d=4, n=4)
    c = 1.5 - 0.5j
    base = catalog_reports(w, fam)
    scaled = catalog_reports(c * w, fam)
    for rb, rs in zip(base, scaled):
        assert rs.bound == pytest.approx(abs(c) ** 2 * rb.bound, rel=1e-10)
        assert rs.lhs_sq == pytest.approx(abs(c) ** 2 * rb.lhs_sq, rel=1e-10)
        assert rs.slack_ratio == pytest.approx(rb.slack_ratio, rel=1e-9)


def test_operator_scaling_homogeneity():
    w, fam = _random_instance(141, d=3, n=3)
    c = 0.3 + 1.1j
    scaled_fam = OperatorFamily(c * fam.ops)
    base = catalog_reports(w, fam)
    scaled = catalog_reports(w, scaled_fam)
    for rb, rs in zip(base, scaled):
        assert rs.bound == pytest.approx(abs(c) ** 2 * rb.bound, rel=1e-10)


def test_joint_permutation_invariance():
    w, fam = _random_instance(142, d=4, n=5)
    perm = np.array([3, 0, 4, 1, 2])
    pfam = OperatorFamily(fam.ops[perm])
    base = catalog_reports(w, fam)
    permuted = catalog_reports(np.asarray(w)[perm], pfam)
    for rb, rp in zip(base, permuted):
        assert rp.name == rb.name
        assert rp.bound == pytest.approx(rb.bound, rel=1e-12)


def test_zero_weights_give_unit_slack():
    _, fam = _random_instance(9, d=3, n=2)
    for rep in catalog_reports([0.0, 0.0], fam):
        assert rep.lhs_sq == 0.0
        assert rep.bound == 0.0
        assert rep.slack_ratio == 1.0


def _bits(values) -> bytes:
    return np.array(values, dtype=np.float64).tobytes()


def _reference_catalog(monkeypatch, w, fam, grid):
    # every aggregate forms its own power sums, as catalog_reference does
    with monkeypatch.context() as patched:
        patched.setattr(bounds, "_power_sums", lambda values, exps: {})
        patched.setattr(bounds, "_lp_aggregate", catalog_reference.lp_aggregate)
        patched.setattr(bounds, "_pair_weight", catalog_reference.pair_weight)
        return catalog_reports(w, fam, grid)


@pytest.mark.parametrize("grid", [None, (1.5, 3.0), (2.0, 4.0), (1.25, 2.5)])
def test_shared_power_sums_match_the_per_aggregate_catalog(monkeypatch, grid):
    # grids whose exponents coincide (2p of one entry is another), n = 1..8,
    # weights whose powers overflow to inf and nan entries (1e60 at the
    # default grid, 1e150 at every grid), zero weights, and a family whose
    # sum cancels: the last two give a zero left side, so ratios of 1 and
    # of inf; three orthogonal projections add the orthogonal entries
    rng = PortableRng(8100)
    cases = []
    for n in range(1, 9):
        w, fam = rng.complex_normal(n), OperatorFamily(rng.complex_normal((n, 4, 4)))
        cases += [(w * scale, fam) for scale in (1e-60, 1.0, 1e60, 1e150, 0.0)]
    a = rng.complex_normal((4, 4))
    cases += [(np.ones(2), OperatorFamily(np.stack([a, -a]))), (np.ones(3), _projections(3))]
    seen = set()
    for w, fam in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            got = catalog_reports(w, fam, grid)
            want = _reference_catalog(monkeypatch, w, fam, grid)
        assert [(r.name, r.exponents) for r in got] == [(r.name, r.exponents) for r in want]
        assert _bits([r.lhs_sq for r in got]) == _bits([r.lhs_sq for r in want])
        assert _bits([r.bound for r in got]) == _bits([r.bound for r in want]), (w, grid)
        ratios = [catalog_reference.slack_ratio(r.lhs_sq, r.bound) for r in want]
        assert _bits([r.slack_ratio for r in got]) == _bits(ratios), (w, grid)
        assert {type(x) for r in got for x in (r.bound, r.slack_ratio)} == {float}
        seen |= {"nan" for r in got if math.isnan(r.bound)} | {"inf" for r in got if r.bound == math.inf}
        seen |= {f"ratio {x}" for x in ratios if got[0].lhs_sq == 0.0}
        seen |= {"orthogonal" for r in got if r.name.startswith("orthogonal:")}
    assert seen == {"nan", "inf", "ratio 1.0", "ratio inf", "orthogonal"}


# -- exponent validation -----------------------------------------------------


def test_invalid_exponents_raise():
    w, fam = _random_instance(5, d=2, n=2)
    with pytest.raises(InvalidExponent):
        catalog_reports(w, fam, exponent_grid=(1.0,))
    with pytest.raises(InvalidExponent):
        catalog_reports(w, fam, exponent_grid=(2.0, np.inf))
    with pytest.raises(InvalidExponent):
        catalog_reports(w, fam, exponent_grid=(1.0, 2.0))
    with pytest.raises(InvalidExponent):
        catalog_reports(w, fam, exponent_grid=(np.inf,))


def test_bad_grid_is_rejected_before_the_left_side(monkeypatch):
    def never(self, alpha):
        raise AssertionError("left side solved for a bad grid")

    monkeypatch.setattr(VectorFamily, "weighted_sum_norm", never)
    with pytest.raises(InvalidExponent):
        catalog_reports([1.0], VectorFamily([[1.0, 0.0]]), exponent_grid=(0.5,))


def test_bad_grid_is_rejected_before_any_norm_is_solved(monkeypatch):
    from opsumbounds import linalg

    def never(*args, **kwargs):
        raise AssertionError("norms solved for a bad grid")

    w, fam = _random_instance(6, d=3, n=3)
    monkeypatch.setattr(linalg, "spectral_norms", never)
    with pytest.raises(InvalidExponent):
        catalog_reports(w, fam, exponent_grid=(0.5,))


def test_empty_grid_is_rejected_before_any_solve(monkeypatch):
    from opsumbounds import linalg

    def never(*args, **kwargs):
        raise AssertionError("solved for an empty grid")

    w, fam = _random_instance(6, d=3, n=3)
    monkeypatch.setattr(linalg, "spectral_norms", never)
    monkeypatch.setattr(linalg, "hermitian_eigenvalues", never)
    spec = harness.InstanceSpec("GaussianDense", 3, 3, 0)
    for call in (lambda: catalog_reports(w, fam, []), lambda: catalog_reports(w, VectorFamily(np.eye(3)[:3]), ()),
                 lambda: harness.verify_instance(w, fam, exponent_grid=[]),
                 lambda: harness.slack_sweep([spec], np.array([]))):
        with pytest.raises(InvalidExponent, match="^empty exponent grid$"):
            call()


@pytest.mark.parametrize("p", [2.0**60, 1e300])
def test_grid_rejects_an_exponent_whose_conjugate_rounds_to_one(p):
    w, fam = _random_instance(5, d=2, n=2)
    with pytest.raises(InvalidExponent):
        catalog_reports(w, fam, exponent_grid=(p,))


@pytest.mark.parametrize("p", [2.0**53, 1 + 2**-52])
def test_grid_accepts_an_exponent_with_a_conjugate_above_one(p):
    w, fam = _random_instance(5, d=2, n=2)
    reports = catalog_reports(w, fam, exponent_grid=(p,))
    assert [rep.exponents for rep in reports if rep.name == "master:holder+holder"] == [
        f"p={p:g},q={p / (p - 1):g};r={p:g},s={p / (p - 1):g}"]


def test_conjugate_exponents_and_sentinels_in_catalog_labels():
    w, fam = _random_instance(5, d=2, n=2)
    labels = {(rep.name, rep.exponents) for rep in catalog_reports(w, fam, exponent_grid=(1.25,))}
    # q = p / (p - 1) = 5 for p = 1.25
    assert ("master:holder+holder", "p=1.25,q=5;r=1.25,s=5") in labels
    # the sentinel pairs (inf, 1) and (1, inf) are the max-based lines
    assert ("master:max_weight+max_pair", "") in labels
    assert ("master:max_norm+max_cross", "") in labels


# each grid's message names the two entries and the label they both print
SHARED_LABELS = {
    (1.5, 1.5000001): "got 1.5 and 1.5000001, both labelled p=1.5,q=3",
    (2.0, 2.0): "got 2.0 and 2.0, both labelled p=2,q=2",
    (3.0, 1.25, 3.0000000001): "got 3.0 and 3.0000000001, both labelled p=3,q=1.5",
}


@pytest.mark.parametrize("grid", list(SHARED_LABELS))
def test_grid_rejects_entries_that_share_a_label(grid, monkeypatch):
    # labels print p and q at %g, so these entries would give catalog rows
    # that share a (name, exponents) label and differ in value
    from opsumbounds import linalg

    def never(*args, **kwargs):
        raise AssertionError("norms solved for a bad grid")

    w, fam = _random_instance(6, d=3, n=3)
    monkeypatch.setattr(linalg, "spectral_norms", never)
    whole = f"grid entries must have distinct labels, {SHARED_LABELS[grid]}"
    with pytest.raises(InvalidExponent, match=f"^{re.escape(whole)}$"):
        catalog_reports(w, fam, exponent_grid=grid)


@pytest.mark.parametrize("grid", [None, (1.0000001, 1.0000002), (1.5, 1.50001), (2.0, 2.0**53)])
def test_catalog_labels_are_unique(grid):
    # entries of one %g p label can still differ in their q label;
    # the norm data sit below 1 so the large exponents underflow quietly
    w, dense = _random_instance(7, d=3, n=3)
    for weights, fam in [(0.1 * w, OperatorFamily(0.01 * dense.ops)), (np.ones(3), _projections(3))]:
        labels = [(rep.name, rep.exponents) for rep in catalog_reports(weights, fam, exponent_grid=grid)]
        assert len(set(labels)) == len(labels)
    # the projections are orthogonal, so their catalog has the orthogonal rows too
    assert any(name.startswith("orthogonal:") for name, _ in labels)


# -- probe-level consequences ------------------------------------------------


def test_vector_image_bound_basic():
    fam = OperatorFamily([np.eye(3)])
    lhs, rhs, ok = vector_image_bound([1.0], fam, [1.0, 2.0, 2.0], 1.0)
    assert ok and lhs == pytest.approx(9.0) and rhs == pytest.approx(9.0)
    lhs, rhs, ok = vector_image_bound([1.0], fam, np.zeros(3), 1.0)
    assert ok and lhs == 0.0 and rhs == 0.0


def test_probe_bounds_hold_under_tightest():
    rng = PortableRng(77)
    for seed in range(15):
        w, fam = _random_instance(300 + seed, d=4, n=3)
        m = tightest_report(catalog_reports(w, fam)).bound
        x = rng.complex_normal(4)
        y = rng.complex_normal(4)
        lhs, rhs, ok = vector_image_bound(w, fam, x, m)
        assert ok and lhs <= rhs * (1.0 + 1e-9)
        blhs, brhs, bok = bilinear_bound(w, fam, x, y, m)
        assert bok and blhs <= brhs * (1.0 + 1e-9)


def test_bilinear_cauchy_schwarz_link():
    # the bilinear form at y = image reproduces the image bound squared
    w, fam = _random_instance(12, d=3, n=2)
    x = PortableRng(13).complex_normal(3)
    img = np.einsum("i,iab,b->a", np.asarray(w), fam.ops, x)
    m = tightest_report(catalog_reports(w, fam)).bound
    lhs, _, _ = bilinear_bound(w, fam, x, img, m)
    image_lhs, _, _ = vector_image_bound(w, fam, x, m)
    assert lhs == pytest.approx(image_lhs**2, rel=1e-9)


def test_probe_shape_rejection():
    w, fam = _random_instance(2, d=3, n=2)
    with pytest.raises(DimensionMismatch):
        vector_image_bound(w, fam, [1.0, 2.0], 1.0)
    with pytest.raises(DimensionMismatch):
        bilinear_bound(w, fam, np.zeros(3), np.zeros(4), 1.0)
    with pytest.raises(ValueError, match=r"^x\[0\] is not finite$"):
        vector_image_bound(w, fam, [np.nan, 0.0, 0.0], 1.0)
    with pytest.raises(ValueError, match=r"^y\[2\] is not finite$"):
        bilinear_bound(w, fam, np.ones(3), [0.0, 1.0, np.inf], 1.0)
    with pytest.raises(ValueError, match=r"^weights\[1\] is not finite$"):
        bilinear_bound([1.0, np.nan], fam, np.ones(3), np.ones(3), 1.0)
    with pytest.raises(DimensionMismatch):
        vector_image_bound(w, fam, np.ones((1, 3)), 1.0)
    # probe_checks raises the pair's class on each bad input, a bad
    # probe being named by its place in the list
    cases = [([1.0, np.nan], np.ones(3), ValueError, r"^weights\[1\] is not finite$"),
             (w, [1.0, 2.0], DimensionMismatch, "does not match dimension 3"),
             (w, np.ones((1, 3)), DimensionMismatch, r"^expected probes\[1\] as a nonempty 1-d array"),
             (w, [0.0, np.inf, 0.0], ValueError, r"^probes\[1\]\[1\] is not finite$")]
    for alpha, bad, cls, message in cases:
        raised = []
        for call in (lambda: vector_image_bound(alpha, fam, bad, 1.0),
                     lambda: bilinear_bound(alpha, fam, bad, np.ones(3), 1.0),
                     lambda: bilinear_bound(alpha, fam, np.ones(3), bad, 1.0),
                     lambda: probe_checks(alpha, fam, [np.ones(3), bad], 1.0)):
            with pytest.raises(cls) as exc:
                call()
            raised.append(type(exc.value))
        assert raised == [cls] * 4
        with pytest.raises(cls, match=message):
            probe_checks(alpha, fam, [np.ones(3), bad], 1.0)


# probe lists that are not one finite (K, 3) stack, the place of the
# first bad probe and what the pair raises for it
BAD_PROBE_LISTS = {
    "ragged": ([np.ones(3), np.ones(4), np.ones(3)], 1, DimensionMismatch,
               r"^probe vector shape \(4,\) does not match dimension 3$"),
    "every probe short": ([np.ones(2), np.ones(2)], 0, DimensionMismatch,
                          r"^probe vector shape \(2,\) does not match dimension 3$"),
    "short before non-finite": ([np.ones(3), [1.0, 2.0], [0.0, np.nan, 0.0]], 1, DimensionMismatch,
                                r"^probe vector shape \(2,\) does not match dimension 3$"),
    "non-finite before short": ([np.ones(3), [0.0, 0.0, np.inf], [1.0, 2.0]], 1, ValueError,
                                r"^probes\[1\]\[2\] is not finite$"),
    "non-finite in a stack": (np.array([np.ones(3), [0.0, np.nan, 1.0]]), 1, ValueError,
                              r"^probes\[1\]\[1\] is not finite$"),
    "matrices": (np.ones((2, 1, 3)), 0, DimensionMismatch, r"^expected probes\[0\] as a nonempty 1-d array"),
    "scalars": ([1.0, 2.0, 3.0], 0, DimensionMismatch, r"^expected probes\[0\] as a nonempty 1-d array"),
    "not numbers": ([np.ones(3), ["a", "b", "c"]], 1, DimensionMismatch, r"^cannot read probes\[1\] as one array"),
}


@pytest.mark.parametrize("case", list(BAD_PROBE_LISTS))
def test_probe_checks_name_the_first_bad_probe_as_the_pair_does(case):
    w, fam = _random_instance(2, d=3, n=2)
    probes, first, cls, message = BAD_PROBE_LISTS[case]
    with pytest.raises(cls, match=message) as exc:
        probe_checks(w, fam, probes, 1.0)
    assert type(exc.value) is cls
    # the probes before the first bad one pass the pair, which raises the
    # same class for that one
    for x in probes[:first]:
        vector_image_bound(w, fam, x, 1.0)
    with pytest.raises(cls) as exc:
        vector_image_bound(w, fam, probes[first], 1.0)
    assert type(exc.value) is cls
