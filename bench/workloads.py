"""The three benchmark workloads.

Each workload generates its inputs from a seed (set-up), then hands only
raw arrays to the package: every timed operation builds a fresh
OperatorFamily, so cached norm data never carries over between
repetitions.  A workload knows how to run one operation, how to reduce
its output to a compact, comparable form, and how to check that form
against the numpy.linalg oracle.

Operations are grouped into cycles (one of each kind in the mix); the
runner stops only at a cycle boundary, so every run sees the same mix.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracle
from opsumbounds import bounds, cli, harness, linalg, problemio, vectors
from opsumbounds.cbs import OperatorFamily
from opsumbounds.harness import InstanceSpec
from opsumbounds.problemio import ProblemFile
from opsumbounds.rng import PortableRng, derive_seed
from opsumbounds.vectors import VectorFamily

# A workload seed s shifts every instance seed by s * SEED_STRIDE, so seed
# 0 reproduces the acceptance tests' instances and other seeds never
# overlap them.
SEED_STRIDE = 1_000_000


@dataclass
class Item:
    """One operation's inputs; known_defect marks the 10^+-60 slice.

    A files operation holds an operators family (weights, ops) and a
    vectors family (vector_weights, vectors).
    """

    label: str
    weights: np.ndarray
    ops: np.ndarray | None = None
    vectors: np.ndarray | None = None
    probes: list | None = None
    known_defect: bool = False
    vector_weights: np.ndarray | None = None


def _f(x: float) -> str:
    return "%.17g" % x


def _first_strict_min(reports):
    best = reports[0]
    for rep in reports[1:]:
        if rep.bound < best.bound:
            best = rep
    return best


def _entry(rep) -> str:
    return f"{rep.name}({rep.exponents})"


class Ensemble:
    """Acceptance criterion 2's instance mix: catalog, tightest bound, 16 probes.

    Many tiny instances, so per-call overhead and the power-iteration
    tail dominate; Jacobi, problemio and vectors stay idle.
    """

    name = "ensemble"
    cycle = 3
    KINDS = (("GaussianDense", 100_000), ("BlockOrthogonal", 200_000),
             ("RankOneFromVectors", 300_000))
    DIMS = (2, 3, 4, 5, 6, 7, 8)
    COUNTS = (1, 2, 3, 4, 5, 6)
    PROBES = 8

    def __init__(self, seed: int, per_kind: int = 1008):
        self.seed = seed
        self.per_kind = per_kind

    def generate(self) -> list[Item]:
        items = []
        base = self.seed * SEED_STRIDE
        for k in range(self.per_kind):
            d = self.DIMS[k % len(self.DIMS)]
            n = self.COUNTS[(k // len(self.DIMS)) % len(self.COUNTS)]
            for kind, salt in self.KINDS:
                spec = InstanceSpec(kind, max(d, n) if kind == "BlockOrthogonal" else d,
                                    n, base + salt + k)
                w, fam, _ = harness.generate(spec)
                prng = PortableRng(derive_seed(0xACC, spec.seed, fam.dim, fam.count))
                probes = [prng.complex_normal(fam.dim) for _ in range(self.PROBES)]
                items.append(Item(f"{kind} d={spec.dim} n={n} seed={spec.seed}",
                                  w, ops=fam.ops, probes=probes))
        return items

    def run(self, item: Item, ctx):
        fam = OperatorFamily(item.ops)
        reports = bounds.catalog_reports(item.weights, fam)
        m = _first_strict_min(reports).bound
        flags = []
        for j, x in enumerate(item.probes):
            y = item.probes[(j + 1) % len(item.probes)]
            flags.append((f"image_probe_{j}", bounds.vector_image_bound(item.weights, fam, x, m)[2]))
            flags.append((f"bilinear_probe_{j}", bounds.bilinear_bound(item.weights, fam, x, y, m)[2]))
        return reports, flags

    def stages(self, raw) -> dict:
        return {}

    def compact(self, item: Item, raw):
        reports, flags = raw
        named = [(_entry(r), r.bound) for r in reports]
        best = _first_strict_min(reports)
        return {"lhs": reports[0].lhs_sq, "bounds": named,
                "tightest": (_entry(best), best.bound), "flags": flags}

    def digest(self, out) -> str:
        """The (name, bound) stream, with the left side and probe verdicts."""
        lines = [f"lhs|{_f(out['lhs'])}"]
        lines += [f"{name}|{_f(value)}" for name, value in out["bounds"]]
        lines += [f"{name}|{ok}" for name, ok in out["flags"]]
        return "\n".join(lines) + "\n"

    def check(self, item: Item, out) -> list[str]:
        lhs = oracle.operator_sum_lhs(item.weights, item.ops)
        return (oracle.check_lhs(out["lhs"], lhs) + oracle.check_bounds(out["bounds"], lhs)
                + oracle.check_tightest(out["bounds"], out["tightest"])
                + oracle.check_flags(out["flags"]))


class Verify:
    """harness.verify_instance on mid-size instances, a third of them scaled.

    Each instance runs two Hermitian Jacobi solves inside the PSD-gap
    check.  Every third instance has its weights scaled by 10^-60 or
    10^+60; the catalog's scale defect makes those fail today, and the
    slice stays so that the defect remains visible.
    """

    name = "verify"
    cycle = 6
    KINDS = ("GaussianDense", "UnitaryScaled")
    SALT = 500_000

    def __init__(self, seed: int, count: int = 360):
        self.seed = seed
        self.count = count

    def generate(self) -> list[Item]:
        items = []
        base = self.seed * SEED_STRIDE + self.SALT
        for j in range(self.count):
            spec = InstanceSpec(self.KINDS[j % 2], 12 + (j // 2) % 5, 3 + (j // 10) % 4, base + j)
            w, fam, _ = harness.generate(spec)
            label = f"{spec.kind} d={spec.dim} n={spec.count} seed={spec.seed}"
            scaled = j % 3 == 2
            if scaled:
                power = -60 if (j // 3) % 2 == 0 else 60
                w = w * 10.0 ** power
                label += f" weights*1e{power:+d}"
            items.append(Item(label, w, ops=fam.ops, known_defect=scaled))
        return items

    def run(self, item: Item, ctx):
        return harness.verify_instance(item.weights, OperatorFamily(item.ops))

    def stages(self, raw) -> dict:
        return {}

    def compact(self, item: Item, raw):
        return {"all_hold": raw.all_hold,
                "checks": [(c.name, c.lhs, c.bound, c.holds) for c in raw.checks]}

    def digest(self, out) -> str:
        return "".join(f"{name}|{_f(lhs)}|{_f(bound)}|{holds}\n"
                       for name, lhs, bound, holds in out["checks"])

    def check(self, item: Item, out) -> list[str]:
        problems = [] if out["all_hold"] else [
            "all_hold is false: " + ", ".join(c[0] for c in out["checks"] if not c[3])]
        norm = [c for c in out["checks"] if c[0] == "cbs_norm"]
        lhs = oracle.operator_sum_lhs(item.weights, item.ops)
        if not norm:
            return problems + ["no cbs_norm check reported"]
        return problems + oracle.check_lhs(norm[0][1], lhs)


@dataclass
class FileOutput:
    """Each mode's CLI report text and problem-file digest."""

    reports: dict
    problem_sha256: dict


MODES = ("operators", "vectors")


class Files:
    """Write problem files, then run `bound` on each through the CLI.

    One operation handles a pair of large inputs: an operators-mode file
    and a vectors-mode file that the CLI evaluates by the Gram route.
    The only workload that reaches problemio and vectors.
    """

    name = "files"
    cycle = 1

    def __init__(self, seed: int, operator_shape=(64, 8), vector_shape=(1024, 60), pairs: int = 5):
        self.seed = seed
        self.op_shape = operator_shape
        self.vec_shape = vector_shape
        self.pairs = pairs
        self._oracle = {}

    def generate(self) -> list[Item]:
        items = []
        for k in range(self.pairs):
            d, n = self.op_shape
            w, fam, _ = harness.generate(
                InstanceSpec("GaussianDense", d, n, self.seed * SEED_STRIDE + k))
            d, n = self.vec_shape
            rng = PortableRng(derive_seed(self.seed, d, n, 0xF11E + k))
            ys = rng.complex_normal((n, d))
            items.append(Item(f"pair-{k}", w, ops=fam.ops, vectors=ys,
                              vector_weights=rng.complex_normal(n)))
        return items

    def _problem(self, item: Item, mode: str) -> ProblemFile:
        if mode == "operators":
            return ProblemFile("1", item.ops.shape[-1], item.weights, item.ops, None)
        return ProblemFile("1", item.vectors.shape[-1], item.vector_weights, None, item.vectors)

    def run(self, item: Item, ctx):
        raw = {}
        for mode in MODES:
            path = Path(ctx) / f"{item.label}-{mode}.json"
            out = Path(ctx) / f"{item.label}-{mode}.report.json"
            t0 = time.perf_counter()
            problemio.write_problem(self._problem(item, mode), path)
            t1 = time.perf_counter()
            code = cli.main(["bound", "--input", str(path), "--out", str(out)])
            t2 = time.perf_counter()
            if code != 0:
                raise RuntimeError(f"bound on the {mode} file exited with code {code}")
            raw[mode] = (t1 - t0, t2 - t1, path, out)
        return raw

    def stages(self, raw) -> dict:
        return {"write_s": sum(r[0] for r in raw.values()),
                "bound_operators_s": raw["operators"][1], "bound_vectors_s": raw["vectors"][1]}

    def compact(self, item: Item, raw):
        return FileOutput({m: raw[m][3].read_text(encoding="utf-8") for m in MODES},
                          {m: hashlib.sha256(raw[m][2].read_bytes()).hexdigest() for m in MODES})

    def digest(self, out: FileOutput) -> str:
        return "".join(out.reports[m] + out.problem_sha256[m] for m in MODES)

    def check(self, item: Item, out: FileOutput) -> list[str]:
        if item.label not in self._oracle:
            self._oracle[item.label] = {
                "operators": oracle.operator_sum_lhs(item.weights, item.ops),
                "vectors": oracle.gram_route_lhs(item.vector_weights, item.vectors)}
        return [f"{m} file: {problem}" for m in MODES
                for problem in oracle.check_report(out.reports[m], self._oracle[item.label][m])]


WORKLOADS = {w.name: w for w in (Ensemble, Verify, Files)}


def boundaries():
    """Public entry points of each layer, traced in a traced run.

    Spans are named after the layer they enter.  Properties that expose
    OperatorFamily's cached norm data count as the norm-data computation
    (only the first access on a family does work).
    """
    return [
        (harness, "generate", "harness.generate"),
        (harness, "verify_instance", "harness.verify_instance"),
        (harness, "cbs_operator_gap", "cbs.gap"),
        (OperatorFamily, "norms", "cbs.norm_data"),
        (OperatorFamily, "cross", "cbs.norm_data"),
        (OperatorFamily, "sum_products_norm", "cbs.norm_data"),
        (linalg, "spectral_norms", "linalg.spectral_norms", lambda a, r: {"matrices": len(a[0])}),
        (linalg, "hermitian_eigenvalues", "linalg.jacobi"),
        (linalg, "psd_sqrt", "linalg.psd_sqrt"),
        (bounds, "catalog_reports", "bounds.catalog", lambda a, r: {"entries": len(r)}),
        (bounds, "vector_image_bound", "bounds.probe"),
        (bounds, "bilinear_bound", "bounds.probe"),
        (vectors, "gram_catalog_reports", "vectors.gram_catalog"),
        (VectorFamily, "weighted_sum_norm_sq", "vectors.gram_lhs"),
        (problemio, "load_problem", "problemio.load", lambda a, r: {"bytes": os.path.getsize(a[0])}),
        (problemio, "write_problem", "problemio.emit"),
        (cli, "main", "cli.main"),
    ]
