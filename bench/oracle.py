"""Independent checks of the program's outputs against numpy.linalg.

Every function returns a list of failure reasons; an empty list means
the output passed.  The checks use numpy's LAPACK-backed routines only,
never the package's own solvers, so a faster but wrong program shows up
as failures.
"""

from __future__ import annotations

import json

import numpy as np

LHS_RTOL = 1e-10
BOUND_RTOL = 1e-9


def operator_sum_lhs(weights, ops) -> float:
    """||sum z_i A_i||^2 by SVD."""
    s = np.tensordot(weights, ops, axes=1)
    return float(np.linalg.norm(s, 2)) ** 2


def gram_route_lhs(weights, vectors) -> float:
    """||Z D Z^H||^2 with Z the columns y_i and D = diag(z_i / ||y_i||).

    One d x d matrix; the n rank-one operators are never formed.
    """
    z = np.asarray(vectors).T
    d = np.asarray(weights) / np.linalg.norm(z, axis=0)
    return float(np.linalg.norm((z * d) @ z.conj().T, 2)) ** 2


def check_lhs(got: float, want: float) -> list[str]:
    if abs(got - want) <= LHS_RTOL * abs(want):
        return []
    return [f"left side {got!r} differs from oracle {want!r}"]


def check_bounds(named_bounds, lhs: float) -> list[str]:
    """Each (name, value) must dominate the oracle left side."""
    floor = lhs * (1.0 - BOUND_RTOL)
    return [f"bound {name} = {value!r} below oracle left side {lhs!r}"
            for name, value in named_bounds if not value >= floor]


def check_tightest(named_bounds, tightest) -> list[str]:
    """tightest must be the first strict minimum of the bound list."""
    best = None
    for name, value in named_bounds:
        if best is None or value < best[1]:
            best = (name, value)
    if best is None or tuple(tightest) != best:
        return [f"tightest {tuple(tightest)!r} is not the first strict minimum {best!r}"]
    return []


def check_flags(named_flags) -> list[str]:
    return [f"{name} does not hold" for name, ok in named_flags if not ok]


def check_report(text: str, lhs: float) -> list[str]:
    """A `bound` CLI report parsed back: left side, bounds, tightest."""
    doc = json.loads(text)
    key = "lhs_sq" if doc["mode"] == "operators" else "lhs_sq_per_unit_probe"
    named = [(f"{b['name']}({b['exponents']})", b["value"]) for b in doc["bounds"]]
    t = doc["tightest"]
    problems = check_lhs(doc[key], lhs) + check_bounds(named, lhs)
    return problems + check_tightest(named, (f"{t['name']}({t['exponents']})", t["value"]))

