"""Tests of the benchmark itself, at tiny sizes.

Run from the root of the repository:

    python3 -m pytest -q bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracle  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from opsumbounds import linalg  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny(name, seed=0):
    if name == "ensemble":
        return workloads.Ensemble(seed, per_kind=2)
    if name == "verify":
        return workloads.Verify(seed, count=6)
    return workloads.Files(seed, operator_shape=(6, 3), vector_shape=(12, 5))


@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_declared_metric(name, trace):
    doc, _ = runner.measure(tiny(name), 0.0, bool(trace))
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    line = run.result_line(doc, run.declared_units())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        entry = line["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], (int, float))
    assert line["attempted"] >= 1
    json.dumps(line)


def test_end_to_end_metrics_are_never_zero():
    for name in ("ensemble", "verify", "files"):
        doc, _ = runner.measure(tiny(name), 0.0, False)
        assert all(v > 0 for v in doc["metrics"].values()), (name, doc["metrics"])


def test_ensemble_passes_and_repeats_exactly():
    a, _ = runner.measure(tiny("ensemble", seed=3), 0.0, True)
    b, _ = runner.measure(tiny("ensemble", seed=3), 0.0, True)
    assert a["correct"] and a["failed"] == 0
    assert a["digests"] == b["digests"]
    assert a["counts"] == b["counts"]
    assert a["counts"]["bounds.catalog_entries"] > 0


def test_verify_failures_are_exactly_the_scaled_slice():
    doc, _ = runner.measure(tiny("verify"), 0.0, False)
    assert doc["correct"]
    assert doc["failed"] == doc["attempted"] // 3
    assert all(f["known_defect"] for f in doc["failures"])
    assert all("weights*1e" in f["instance"] for f in doc["failures"])


def test_files_reports_pass_the_oracle_and_repeat():
    a, _ = runner.measure(tiny("files"), 0.0, False)
    b, _ = runner.measure(tiny("files"), 0.0, False)
    assert a["failed"] == 0 and a["correct"]
    assert a["digests"] == b["digests"]
    assert {"report:pair-0:operators", "report:pair-0:vectors"} <= set(a["digests"])


def _one_ensemble_output():
    wl = tiny("ensemble")
    item = wl.generate()[4]
    return wl, item, wl.compact(item, wl.run(item, None))


def test_oracle_flags_a_bound_below_the_left_side():
    wl, item, out = _one_ensemble_output()
    assert wl.check(item, out) == []
    name, _ = out["bounds"][3]
    out["bounds"][3] = (name, 0.99 * out["lhs"])
    assert any(name in reason for reason in wl.check(item, out))


def test_oracle_flags_a_perturbed_left_side():
    wl, item, out = _one_ensemble_output()
    out["lhs"] *= 1.0 + 1e-8
    assert any("left side" in reason for reason in wl.check(item, out))


def test_oracle_flags_a_wrong_tightest_entry():
    named = [("a", 3.0), ("b", 1.0), ("c", 1.0)]
    assert oracle.check_tightest(named, ("b", 1.0)) == []
    assert oracle.check_tightest(named, ("c", 1.0))


def test_oracle_flags_a_doctored_cli_report(tmp_path):
    wl = tiny("files")
    item = wl.generate()[0]
    out = wl.compact(item, wl.run(item, tmp_path))
    assert wl.check(item, out) == []
    doc = json.loads(out.reports["operators"])
    doc["lhs_sq"] *= 1.0 + 1e-8
    out.reports["operators"] = json.dumps(doc)
    assert wl.check(item, out)


def test_gram_oracle_matches_the_materialized_sum():
    wl = tiny("files")
    item = wl.generate()[1]
    vf = workloads.VectorFamily(item.vectors)
    ops = workloads.vectors.rank_one_family(vf).ops
    assert oracle.check_lhs(oracle.gram_route_lhs(item.vector_weights, item.vectors),
                            oracle.operator_sum_lhs(item.vector_weights, ops)) == []


def test_failure_outside_the_known_slice_makes_the_run_incorrect(monkeypatch):
    wl = tiny("ensemble")
    monkeypatch.setattr(wl, "check", lambda item, out: ["forced"])
    doc, _ = runner.measure(wl, 0.0, False)
    assert not doc["correct"]
    assert doc["failed"] == doc["attempted"]


def test_tracer_restores_patched_boundaries():
    before = linalg.spectral_norms
    tracer = Tracer()
    with tracer.patched([(linalg, "spectral_norms", "linalg.spectral_norms"),
                         (linalg, "no_such_function", "x")]):
        assert linalg.spectral_norms is not before
        with tracer.span("op", instance="i"):
            linalg.spectral_norms([[[2.0]]])
    assert linalg.spectral_norms is before
    assert tracer.missing == ["opsumbounds.linalg.no_such_function"]
    root, child = tracer.spans
    assert child.parent_id == root.span_id and child.instance == "i"


def test_import_is_timed_in_fresh_interpreters():
    from speed import SpeedProbe

    times = run.import_seconds(2, SpeedProbe())
    assert len(times) == 2 and all(t > 0 for t in times)


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        shutil.copy(path, tmp_path / "bench")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ensemble",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_speed_factor_takes_the_median_of_samples_around_an_operation():
    from speed import REFERENCE_S, SpeedProbe

    probe = SpeedProbe()
    probe.times = [0.0, 1.0, 2.0, 3.0]
    probe.values = [1e-3, 2e-3, 4e-3, 8e-3]
    # The window holds the sample inside it plus the last one before the
    # operation and the first one after it.
    assert probe.factor(1.9, 2.1) == REFERENCE_S / 4e-3
    assert probe.factor(0.0, 3.0) == REFERENCE_S / 3e-3
    out, measured, scaled = probe.timed(lambda: 7)
    assert out == 7 and measured > 0 and scaled > 0
