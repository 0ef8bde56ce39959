"""Acceptance checklist.

Each test prints exactly one line, "criterion N: PASS (...)" or
"criterion N: FAIL (...)", then asserts.  The large ensemble is built
once and shared by the dominance and probe criteria.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from opsumbounds import bounds, linalg
from opsumbounds.bounds import catalog_reports
from opsumbounds.cbs import cbs_operator_gap
from opsumbounds.cli import main
from opsumbounds.harness import InstanceSpec, generate
from opsumbounds.problemio import ProblemFile, emit_problem, loads_problem, write_problem
from opsumbounds.rng import PortableRng, derive_seed
from opsumbounds.vectors import VectorFamily, rank_one_family

from identities import verify_identities

_DIMS = (2, 3, 4, 5, 6, 7, 8)
_COUNTS = (1, 2, 3, 4, 5, 6)


def _mixed_spec(kind: str, k: int, salt: int) -> InstanceSpec:
    d = _DIMS[k % len(_DIMS)]
    n = _COUNTS[(k // len(_DIMS)) % len(_COUNTS)]
    if kind in ("BlockOrthogonal", "OrthonormalRankOne") and d < n:
        d = n
    return InstanceSpec(kind, d, n, salt + k)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def big_ensemble():
    """10^4 instances: dominance violations, probe failures, wall time."""
    plan = [
        ("GaussianDense", 3334, 100_000),
        ("BlockOrthogonal", 3333, 200_000),
        ("RankOneFromVectors", 3333, 300_000),
    ]
    stats = {
        "instances": 0,
        "bounds_checked": 0,
        "violations": 0,
        "probes_checked": 0,
        "probe_failures": 0,
    }
    start = time.perf_counter()
    for kind, how_many, salt in plan:
        for k in range(how_many):
            spec = _mixed_spec(kind, k, salt)
            w, fam, _ = generate(spec)
            reports = catalog_reports(w, fam)
            best = reports[0]
            for rep in reports:
                stats["bounds_checked"] += 1
                if rep.lhs_sq > rep.bound * (1.0 + 1e-9):
                    stats["violations"] += 1
                if rep.bound < best.bound:
                    best = rep
            m = best.bound
            prng = PortableRng(derive_seed(0xACC, spec.seed, fam.dim, fam.count))
            probes = [prng.complex_normal(fam.dim) for _ in range(8)]
            for j, x in enumerate(probes):
                _, _, iok = bounds.vector_image_bound(w, fam, x, m)
                _, _, bok = bounds.bilinear_bound(w, fam, x, probes[(j + 1) % 8], m)
                stats["probes_checked"] += 2
                stats["probe_failures"] += (not iok) + (not bok)
            stats["instances"] += 1
    stats["elapsed"] = time.perf_counter() - start
    return stats


def test_criterion_1_psd_gap():
    start = time.perf_counter()
    worst = np.inf
    failures = 0
    for k in range(1000):
        spec = _mixed_spec("GaussianDense", k, 0)
        w, fam, _ = generate(spec)
        gap = cbs_operator_gap(w, fam)
        margin = gap.min_eigenvalue + gap.limit
        worst = min(worst, margin)
        failures += margin < 0.0
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed <= 30.0
    _report(1, ok, f"1000 instances, worst margin {worst:.3e}, {elapsed:.1f}s of 30s")
    assert failures == 0
    assert elapsed <= 30.0


def test_criterion_2_dominance(big_ensemble):
    s = big_ensemble
    ok = s["violations"] == 0 and s["instances"] == 10_000 and s["elapsed"] <= 120.0
    _report(
        2,
        ok,
        f"{s['instances']} instances, {s['bounds_checked']} bounds, "
        f"{s['violations']} violations, {s['elapsed']:.1f}s of 120s",
    )
    assert s["instances"] == 10_000
    assert s["violations"] == 0
    assert s["elapsed"] <= 120.0


def test_criterion_3_equality_at_single_operator():
    worst = 0.0
    for k in range(100):
        d = _DIMS[k % len(_DIMS)]
        w, fam, _ = generate(InstanceSpec("GaussianDense", d, 1, 400_000 + k))
        for rep in catalog_reports(w, fam):
            worst = max(worst, abs(rep.bound - rep.lhs_sq) / rep.lhs_sq)
    ok = worst <= 1e-9
    _report(3, ok, f"100 instances, worst relative deviation {worst:.3e}")
    assert ok


def test_criterion_4_recapture_identity():
    worst = 0.0
    for k in range(1000):
        spec = _mixed_spec("GaussianDense", k, 500_000)
        w, fam, _ = generate(spec)
        reps = catalog_reports(w, fam)
        a = next(r.bound for r in reps if r.name == "power_mean_cross" and r.exponents == "r=2,s=2")
        b = next(r.bound for r in reps if r.name == "l2_cross")
        worst = max(worst, abs(a - b) / max(a, b))
    ok = worst <= 1e-12
    _report(4, ok, f"1000 instances, worst relative gap {worst:.3e}")
    assert ok


def test_criterion_5_rank_one_norm_identities():
    bad = 0
    for k in range(500):
        d = _DIMS[k % len(_DIMS)]
        n = 1 + k % 8
        vf = VectorFamily(PortableRng(600_000 + k).complex_normal((n, d)))
        bad += not verify_identities(vf)
    ok = bad == 0
    _report(5, ok, f"500 vector families, {bad} identity failures")
    assert ok


def test_criterion_6_gram_path_consistency():
    worst = 0.0
    for k in range(500):
        d = 2 + k % 5
        n = 1 + k % 5
        rng = PortableRng(700_000 + k)
        vf = VectorFamily(rng.complex_normal((n, d)))
        w = rng.complex_normal(n)
        xns = 0.5 + 1.5 * rng.uniform(1)[0]
        gram_reps = catalog_reports(w, vf)
        mat_reps = catalog_reports(w, rank_one_family(vf))
        assert [g.name for g in gram_reps] == [m.name for m in mat_reps]
        for g, m in zip(gram_reps, mat_reps):
            gram_scaled = g.bound * xns
            scaled = xns * m.bound
            denom = max(abs(gram_scaled), abs(scaled), 1e-300)
            worst = max(worst, abs(gram_scaled - scaled) / denom)
    ok = worst <= 1e-9
    _report(6, ok, f"500 instances, every config, worst relative gap {worst:.3e}")
    assert ok


def test_criterion_7_norm_oracle_agreement():
    worst_pair = 0.0
    worst_sq = 0.0
    for k in range(1000):
        d = 1 + k % 16
        a = PortableRng(800_000 + k).complex_normal((d, d))
        p = linalg.spectral_norm(a).value
        eigs = linalg.hermitian_eigenvalues((a.conj().T @ a)[None])[0]
        j = float(np.sqrt(max(eigs.max(), 0.0)))
        worst_pair = max(worst_pair, abs(p - j) / max(p, j))
        prod = linalg.spectral_norm(a @ a.conj().T).value
        worst_sq = max(worst_sq, abs(prod - p * p) / (p * p))
    ok = worst_pair <= 1e-10 and worst_sq <= 1e-9
    _report(
        7,
        ok,
        f"1000 matrices to d=16, route gap {worst_pair:.3e}, square identity {worst_sq:.3e}",
    )
    assert worst_pair <= 1e-10
    assert worst_sq <= 1e-9


def test_criterion_8_homogeneity_and_permutation():
    worst = 0.0
    for k in range(200):
        spec = _mixed_spec("GaussianDense", 7 * k, 900_000)
        w, fam, _ = generate(spec)
        rng = PortableRng(derive_seed(901_000, k))
        c = complex(rng.complex_normal(1)[0])
        perm = rng.permutation(fam.count)
        base = catalog_reports(w, fam)
        scaled = catalog_reports(c * w, fam)
        from opsumbounds.cbs import OperatorFamily

        shuffled = catalog_reports(np.asarray(w)[perm], OperatorFamily(fam.ops[perm]))
        for rb, rc, rp in zip(base, scaled, shuffled):
            target = abs(c) ** 2 * rb.bound
            denom = max(rb.bound, 1e-300)
            worst = max(worst, abs(rc.bound - target) / max(target, 1e-300))
            worst = max(worst, abs(rp.bound - rb.bound) / denom)
    ok = worst <= 1e-10
    _report(8, ok, f"200 instances, worst relative deviation {worst:.3e}")
    assert ok


def test_criterion_9_probe_inequalities(big_ensemble):
    s = big_ensemble
    ok = s["probe_failures"] == 0 and s["probes_checked"] == 16 * s["instances"]
    _report(
        9,
        ok,
        f"{s['probes_checked']} probe checks over {s['instances']} instances, "
        f"{s['probe_failures']} failures",
    )
    assert s["probe_failures"] == 0


def test_criterion_10_cli_determinism_and_round_trip(tmp_path):
    w, fam, _ = generate(InstanceSpec("GaussianDense", 3, 2, 1))
    problem = tmp_path / "problem.json"
    write_problem(ProblemFile("1", 3, w, fam.ops, None), problem)

    b1, b2 = tmp_path / "b1.json", tmp_path / "b2.json"
    assert main(["bound", "--input", str(problem), "--out", str(b1)]) == 0
    assert main(["bound", "--input", str(problem), "--out", str(b2)]) == 0
    bound_stable = b1.read_bytes() == b2.read_bytes()
    json.loads(b1.read_text(encoding="utf-8"))

    s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    sweep_args = ["sweep", "--kind", "GaussianDense", "--dim", "4", "--count", "3",
                  "--seed", "0:5", "--out"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(sweep_args + [str(s1)]) == 0
        assert main(sweep_args + [str(s2)]) == 0
    sweep_stable = s1.read_bytes() == s2.read_bytes()

    rng = PortableRng(1_000_000)
    pf = ProblemFile("1", 4, rng.complex_normal(3), rng.complex_normal((3, 4, 4)), None)
    back = loads_problem(emit_problem(pf))
    round_trip = (
        back.weights.tobytes() == pf.weights.tobytes()
        and back.operators.tobytes() == pf.operators.tobytes()
    )

    ok = bound_stable and sweep_stable and round_trip
    _report(
        10,
        ok,
        f"bound stable {bound_stable}, sweep stable {sweep_stable}, "
        f"round trip exact {round_trip}",
    )
    assert bound_stable and sweep_stable and round_trip
