"""Benchmark for opsumbounds: ensemble, verify and files workloads.

Run from the root of a checkout:

    python3 bench/run.py --workload ensemble --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all          # every workload, one table

The program is imported from the checkout's src/ directory, never from
an installed copy.  The last line on standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1 (see
BENCHMARK.json).  A full result, with the environment, exact counts,
output digests and every failure, is written to bench/out/, and a
traced run also writes its spans there.  A metric table goes to
standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BLAS_THREADS = 1
WORKLOAD_NAMES = ("ensemble", "verify", "files")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root: Path):
    """HEAD's commit read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    """sha256 over the program's sources, which names the code outside git too."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(args) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def import_seconds(repeats: int, probe) -> list[float]:
    """Import time of the program and the benchmark, in fresh interpreters,
    scaled to the speed probe's reference speed."""
    code = "import time; t = time.perf_counter(); import runner; print(time.perf_counter() - t)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))

    def once():
        return float(subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                    text=True, timeout=120, check=True).stdout)

    return [s * scaled / raw for s, raw, scaled in (probe.timed(once) for _ in range(repeats))]


def print_table(title: str, metrics: dict, units: dict) -> None:
    print(title, file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<28} {value:>16.6g} {units.get(name, '')}", file=sys.stderr)


def declared_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def result_line(doc: dict, units: dict) -> dict:
    """The last line of standard output."""
    return {
        "correct": doc["correct"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in doc["metrics"].items()},
    }


def run_one(args) -> int:
    if not (SRC / "opsumbounds" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    import opsumbounds
    import runner
    import workloads
    from speed import SpeedProbe

    if Path(opsumbounds.__file__).resolve().parent != SRC / "opsumbounds":
        print(f"error: imported {opsumbounds.__file__}, not the checkout's copy", file=sys.stderr)
        return 2

    probe = SpeedProbe()
    import_s = statistics.median(import_seconds(runner.SETUP_REPEATS, probe)) if not args.trace else 0.0
    workload = workloads.WORKLOADS[args.workload](args.seed)
    doc, tracer = runner.measure(workload, args.seconds, bool(args.trace), import_s, probe)
    doc["environment"] = environment(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(runner.OUT_DIR / f"{stem}-spans.jsonl")
    (runner.OUT_DIR / f"{stem}.json").write_text(json.dumps(doc, indent=1) + "\n")

    units = declared_units()
    print_table(f"{args.workload} (seed {args.seed}, trace {args.trace}): "
                f"{doc['attempted']} operations, {doc['failed']} failed", doc["metrics"], units)
    for f in doc["failures"][:5]:
        print(f"  failed: {f['instance']} (round {f['round']}): {f['reasons'][0][:160]}", file=sys.stderr)
    print(json.dumps(result_line(doc, units)))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so set-up and peak memory stay separate."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        results[name] = json.loads(lines[-1])
    for name, res in results.items():
        print(f"{name}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<28} {m['value']:>16.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    os.environ.update({v: str(BLAS_THREADS) for v in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
