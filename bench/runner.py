"""Timing loop, traced run, oracle bookkeeping and metrics.

An untraced run sets up several times (reporting the median), then runs
operations in a closed loop with one caller until the requested number
of seconds has been measured: at least one full round, and always whole
cycles.  Its timings are scaled to a reference machine speed measured
alongside them (see speed.py).  A traced run sets up once, warms up on a
tenth of the items, runs one round untraced and one round with every
layer boundary traced, then counts power iterations in a separate,
untimed pass.  Outputs are checked against the oracle only after timing,
and every round after the first must reproduce the first round's output
digests.
"""

from __future__ import annotations

import contextlib
import hashlib
import resource
import shutil
import statistics
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import workloads
from opsumbounds import linalg
from opsumbounds.cbs import OperatorFamily
from opsumbounds.errors import NoConvergence
from spans import Tracer
from speed import SpeedProbe

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3


@dataclass
class Record:
    """One operation.  Only first-round records keep the compact output;
    later rounds keep its digest, which must match the first round's."""

    round: int
    index: int
    start: float
    seconds: float
    stages: dict
    out: object
    digest: str | None
    error: str | None


def setup(workload, repeats: int, probe: SpeedProbe):
    """(median scaled set-up seconds, median measured set-up seconds,
    items, input digest); inputs must repeat."""
    measured, scaled, digests = [], [], set()
    for _ in range(repeats):
        items, raw, s = probe.timed(workload.generate)
        measured.append(raw)
        scaled.append(s)
        digests.add(input_digest(items))
    if len(digests) != 1:
        raise RuntimeError("set-up produced different inputs from the same seed")
    return statistics.median(scaled), statistics.median(measured), items, digests.pop()


def input_digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.label.encode())
        for arr in (item.weights, item.ops, item.vectors, item.vector_weights,
                    *(item.probes or ())):
            if arr is not None:
                h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def run_loop(workload, items, ctx, budget: float, tracer: Tracer | None = None,
             first_round: int = 0, probe: SpeedProbe | None = None) -> list[Record]:
    """Closed loop over items until budget seconds of operations are measured.

    With a tracer, each operation runs inside a root span.  With a speed
    probe, the probe samples between operations (outside their timing)
    and once more after the last one.
    """
    records = []
    measured = 0.0
    n = len(items)
    i = 0
    while True:
        item = items[i % n]
        root = tracer.span("op", instance=item.label) if tracer else contextlib.nullcontext()
        if probe is not None:
            probe.maybe_sample()
        t0 = time.perf_counter()
        try:
            with root:
                raw = workload.run(item, ctx)
        except Exception as exc:  # a raising operation counts as failed
            raw, error = None, f"raised {type(exc).__name__}: {exc}"
        else:
            error = None
        dt = time.perf_counter() - t0
        measured += dt
        rnd = first_round + i // n
        out = digest = None
        stages = {}
        if error is None:
            try:
                stages = workload.stages(raw)
                out = workload.compact(item, raw)
                digest = hashlib.sha256(workload.digest(out).encode()).hexdigest()
            except Exception as exc:
                error = f"unreadable output: {type(exc).__name__}: {exc}"
        records.append(Record(rnd, i % n, t0, dt, stages, out if rnd == 0 else None, digest, error))
        i += 1
        if i >= n and i % workload.cycle == 0 and measured >= budget:
            if probe is not None:
                probe.sample()
            return records


def check(workload, items, records):
    """Oracle failures, one entry per failed operation, and round-0 digests.

    A later round's output that matches the first round's byte for byte
    inherits its verdict; one that differs is a failure by itself.
    """
    failures = []
    first, verdict = {}, {}
    for rec in records:
        item = items[rec.index]
        if rec.error is not None:
            reasons = [rec.error]
        elif rec.round == 0:
            reasons = workload.check(item, rec.out)
            first[rec.index], verdict[rec.index] = rec.digest, reasons
        elif rec.index not in first:
            reasons = ["no first-round output to compare with"]
        elif first[rec.index] != rec.digest:
            reasons = ["output differs from the first round's"]
        else:
            reasons = verdict[rec.index]
        if reasons:
            failures.append({"workload": workload.name, "instance": item.label,
                             "round": rec.round, "known_defect": item.known_defect,
                             "reasons": reasons})
    return failures, first


def per_operation(records, seconds, reduce) -> np.ndarray:
    """reduce() over each operation's repetitions, in first-round order."""
    reps = {}
    for r, s in zip(records, seconds):
        reps.setdefault(r.index, []).append(s)
    return np.array([reduce(reps[i]) for i in sorted(reps)])


def best_seconds(records) -> np.ndarray:
    """Each operation's fastest measured repetition, in first-round order."""
    return per_operation(records, [r.seconds for r in records], min)


def scaled_seconds(records, probe: SpeedProbe) -> list[float]:
    """Each record's time at the probe's reference speed."""
    return [r.seconds * probe.factor(r.start, r.start + r.seconds) for r in records]


STAGES = ("bound_operators_s", "bound_vectors_s", "write_s")


def stage_metrics(records, failed: int) -> dict:
    """The files workload's stage times (0 elsewhere) and the failed share.

    Each operation's stage time is its fastest repetition; a metric is
    the mean of those over the operations.
    """
    best = {}
    for r in records:
        for stage in STAGES:
            if stage in r.stages:
                key = (stage, r.index)
                best[key] = min(best.get(key, np.inf), r.stages[stage])
    metrics = {}
    for stage in STAGES:
        vals = [v for (name, _), v in best.items() if name == stage]
        metrics[stage] = float(np.mean(vals)) if vals else 0.0
    metrics["failed_frac"] = failed / len(records)
    return metrics


def power_iterations(items):
    """Iteration counts of linalg.spectral_norm on each S = sum z_i A_i.

    A NoConvergence result counts as a fallback at the iteration limit.
    """
    counts, fallbacks = [], 0
    for item in items:
        if item.ops is None:
            continue
        s = OperatorFamily(item.ops).weighted_sum(item.weights)
        try:
            counts.append(linalg.spectral_norm(s).iterations)
        except NoConvergence:
            counts.append(linalg.DEFAULT_MAX_ITER)
            fallbacks += 1
    return counts, fallbacks


def layer_metrics(tracer: Tracer, roots: int) -> dict:
    """Per-layer figures from the traced spans, times in ms per operation.

    linalg.lhs_ms counts the spectral norms of assembled sums, i.e. those
    not called for norm data or inside the Gram route.  The catalog, CLI
    and verify figures are self times: their span minus its children.
    """
    by_id = {sp.span_id: sp for sp in tracer.spans}
    kids = tracer.children()
    total, own = {}, {}
    lhs = generate = 0.0
    generated = matrices = entries = load_bytes = 0
    for sp in tracer.spans:
        if sp.name == "harness.generate":
            generate += sp.seconds
            generated += 1
        if sp.parent_id is None:
            continue
        total[sp.name] = total.get(sp.name, 0.0) + sp.seconds
        own[sp.name] = own.get(sp.name, 0.0) + tracer.self_seconds(sp, kids)
        if sp.name == "linalg.spectral_norms":
            matrices += sp.attrs["matrices"]
            if by_id[sp.parent_id].name not in ("cbs.norm_data", "vectors.gram_lhs"):
                lhs += sp.seconds
        entries += sp.attrs.get("entries", 0)
        load_bytes += sp.attrs.get("bytes", 0)

    def ms(name, table=total):
        return 1e3 * table.get(name, 0.0) / roots

    load_s = total.get("problemio.load", 0.0)
    return {
        "harness.generate_ms": 1e3 * generate / generated if generated else 0.0,
        "harness.verify_self_ms": ms("harness.verify_instance", own),
        "cbs.norm_data_ms": ms("cbs.norm_data"),
        "cbs.gap_ms": ms("cbs.gap"),
        "linalg.lhs_ms": 1e3 * lhs / roots,
        "linalg.matrices_normed": matrices,
        "linalg.jacobi_ms": ms("linalg.jacobi"),
        "linalg.psd_sqrt_ms": ms("linalg.psd_sqrt"),
        "bounds.catalog_ms": ms("bounds.catalog", own),
        "bounds.catalog_entries": entries,
        "bounds.probe_ms": ms("bounds.probe"),
        "vectors.gram_lhs_ms": ms("vectors.gram_lhs"),
        "vectors.gram_catalog_ms": ms("vectors.gram_catalog", own),
        "problemio.load_ms": ms("problemio.load"),
        "problemio.load_mb_per_s": load_bytes / 1e6 / load_s if load_s else 0.0,
        "problemio.emit_ms": ms("problemio.emit"),
        "cli.self_ms": ms("cli.main", own),
    }


def measure(workload, seconds: float, trace: bool, import_s: float = 0.0,
            probe: SpeedProbe | None = None):
    """One benchmark run: (result document, tracer or None).

    import_s is the median scaled import time, measured by the caller
    with probe (a fresh one when None); setup_s adds it to the median
    scaled generation time.
    """
    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=OUT_DIR)
    try:
        if trace:
            return _traced(workload, workdir)
        return _untraced(workload, workdir, seconds, import_s, probe or SpeedProbe()), None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _untraced(workload, workdir, seconds, import_s, probe) -> dict:
    """End-to-end metrics from scaled times (see speed.py): an operation's
    latency is the median of its scaled repetitions."""
    setup_s, generate_s, items, inputs = setup(workload, SETUP_REPEATS, probe)
    records = run_loop(workload, items, workdir, seconds, probe=probe)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures, first = check(workload, items, records)
    scaled = scaled_seconds(records, probe)
    lat = per_operation(records, scaled, statistics.median)
    best = best_seconds(records)
    metrics = {
        "setup_s": import_s + setup_s,
        "instances_per_s": len(lat) / float(lat.sum()),
        "instance_p50_ms": 1e3 * float(np.percentile(lat, 50)),
        "instance_p90_ms": 1e3 * float(np.percentile(lat, 90)),
        "pass_frac": 1.0 - len(failures) / len(records),
        "peak_rss_mb": rss_mb,
    }
    doc = _document(workload, items, records, failures, first, inputs, metrics)
    doc["details"] = stage_metrics(records, len(failures))
    doc["details"].update({
        "instance_p99_ms": 1e3 * float(np.percentile(lat, 99)),
        "import_s": import_s, "generate_s": setup_s, "measured_generate_s": generate_s,
        "probe_median_s": statistics.median(probe.values),
        "probe_samples": len(probe.values),
        "measured_best_instances_per_s": len(best) / float(best.sum()),
        "measured_best_instance_p50_ms": 1e3 * float(np.percentile(best, 50)),
    })
    return doc


def _traced(workload, workdir):
    tracer = Tracer()
    with tracer.patched(workloads.boundaries()):
        items = workload.generate()
    inputs = input_digest(items)
    # Warm-up on the first tenth of the items, so both timed rounds run warm.
    warm = -(-len(items) // (10 * workload.cycle)) * workload.cycle
    run_loop(workload, items[:warm], workdir, 0.0)
    plain = run_loop(workload, items, workdir, 0.0)
    with tracer.patched(workloads.boundaries()):
        traced = run_loop(workload, items, workdir, 0.0, tracer, first_round=1)
    counts, fallbacks = power_iterations(items)
    records = plain + traced
    failures, first = check(workload, items, records)

    layers = layer_metrics(tracer, len(items))
    layers.update({
        "linalg.power_iters_p50": float(np.percentile(counts, 50)) if counts else 0.0,
        "linalg.power_iters_p99": float(np.percentile(counts, 99)) if counts else 0.0,
        "linalg.power_iters_max": max(counts, default=0),
        "linalg.fallbacks": fallbacks,
        "trace.overhead_frac": sum(r.seconds for r in traced) / sum(r.seconds for r in plain) - 1.0,
    })
    layers.update(stage_metrics(plain, sum(f["round"] == 0 for f in failures)))
    layers["instance_p99_ms"] = 1e3 * float(np.percentile(best_seconds(plain), 99))
    doc = _document(workload, items, records, failures, first, inputs, layers)
    doc["counts"].update({
        "power_iteration_histogram": {str(k): v for k, v in sorted(Counter(counts).items())},
        "linalg.fallbacks": fallbacks,
        "linalg.matrices_normed": layers["linalg.matrices_normed"],
        "bounds.catalog_entries": layers["bounds.catalog_entries"],
    })
    doc["unpatched_boundaries"] = tracer.missing
    return doc, tracer


def _document(workload, items, records, failures, first, inputs, metrics) -> dict:
    """The result: the JSON line's four keys plus what makes it checkable.

    correct is false when any operation outside the known-defect slice
    fails; failures inside it still count in failed.
    """
    digests = {"inputs": inputs, "outputs": hashlib.sha256(
        "".join(first[i] for i in sorted(first)).encode()).hexdigest()}
    for r in records:
        if isinstance(r.out, workloads.FileOutput):
            label = items[r.index].label
            for mode, report in r.out.reports.items():
                digests[f"report:{label}:{mode}"] = hashlib.sha256(report.encode()).hexdigest()
                digests[f"problem:{label}:{mode}"] = r.out.problem_sha256[mode]
    return {
        "correct": all(f["known_defect"] for f in failures),
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
        "counts": {
            "round_operations": sum(r.round == 0 for r in records),
            "round_failed": sum(f["round"] == 0 for f in failures),
        },
        "digests": digests,
        "failures": failures,
    }
