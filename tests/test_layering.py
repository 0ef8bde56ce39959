"""Modules of the package use only each other's public names, the
engine's tolerances are module constants rather than parameters, and
the public functions take family objects rather than coercing arrays."""

import ast
import dataclasses
import inspect
from pathlib import Path

import jacobi
import opsumbounds
from opsumbounds import bounds, cbs, cli, errors, harness, linalg, problemio, vectors

PACKAGE = Path(opsumbounds.__file__).resolve().parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _sibling(module, level: int):
    """The sibling module an import refers to, or None."""
    if level == 1 and module in MODULES:
        return module
    if level == 0 and module and module.startswith("opsumbounds."):
        rest = module[len("opsumbounds."):]
        return rest if rest in MODULES else None
    return None


def _violations(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    aliases = set()  # local names bound to sibling modules
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node.module, node.level)
            package = (node.level == 1 and node.module is None) or (node.level == 0 and node.module == "opsumbounds")
            for alias in node.names:
                if package and alias.name in MODULES:
                    aliases.add(alias.asname or alias.name)
                elif (sibling or package) and _private(alias.name):
                    found.append(f"{path.name}:{node.lineno} imports {alias.name} from {sibling or 'the package'}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname and _sibling(alias.name, 0):
                    aliases.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)):
            found.append(f"{path.name}:{node.lineno} reads {node.value.id}.{node.attr}")
    return found


def test_no_module_uses_a_sibling_private_name():
    found = [v for path in sorted(PACKAGE.glob("*.py")) for v in _violations(path)]
    assert MODULES >= {"bounds", "harness", "vectors"}
    assert found == []


# each function and the parameters it does not take: the values are
# LAPACK's own, DEFAULT_TOL, PSD_TOL, the catalog's exact test that
# every cross product is 0 (which needs no tolerance), the harness's
# fixed probe salt, and the spec that generate's caller holds
FIXED_KNOBS = [
    (linalg.spectral_norm, {"tol", "max_iter"}),
    (linalg.spectral_norms, {"tol", "max_iter"}),
    (linalg.hermitian_eigenvalues, {"tol"}),
    (cbs.cbs_operator_gap, {"tol"}),
    (bounds.catalog_reports, {"orthogonal_tol", "scale", "x_norm_sq"}),
    (vectors.VectorFamily.weighted_sum_norm, {"scale", "x_norm_sq"}),
    (harness.verify_instance, {"probe_seed", "spec"}),
]


def test_engine_tolerances_are_not_parameters():
    taken = {f.__qualname__: sorted(knobs & set(inspect.signature(f).parameters))
             for f, knobs in FIXED_KNOBS}
    assert taken == {f.__qualname__: [] for f, _ in FIXED_KNOBS}
    # the CLI's --tol still reaches the harness
    assert "tol" in inspect.signature(harness.verify_instance).parameters
    assert not hasattr(cbs, "cbs_norm_check") and not hasattr(bounds, "HolderPair")
    assert "spec" not in {f.name for f in dataclasses.fields(harness.VerificationResult)}


def test_the_check_tolerance_is_spelled_once():
    # the orthogonal entries need cross products of exactly 0, and every
    # fixed check tolerance is bounds.CHECK_TOL
    assert not hasattr(bounds, "ORTHOGONAL_TOL")
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        named = {id(node.value): node.targets[0].id for node in ast.walk(tree)
                 if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
        found += [(path.stem, named.get(id(node))) for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-9]
    assert found == [("bounds", "CHECK_TOL")]
    assert inspect.signature(harness.verify_instance).parameters["tol"].default is bounds.CHECK_TOL
    assert cli.build_parser().parse_args(["verify"]).tol is bounds.CHECK_TOL


def test_jacobi_lives_only_in_the_tests():
    # LAPACK solves the eigenvalues; the round-robin Jacobi is the tests' oracle
    assert not {"_jacobi_stack", "_round_robin", "_MAX_SWEEPS"} & set(vars(linalg))
    assert list(inspect.signature(jacobi._jacobi_stack).parameters) == ["ws"]


def test_power_iteration_is_gone():
    # LAPACK's SVD solves the norms: no power steps, squarings, budget or
    # fallback remain, and a single norm reports no iterations
    gone = {"_perturbation", "_hermitian_products", "_SQUARINGS", "_squared_power", "_unit_rows",
            "_power_stack", "DEFAULT_MAX_ITER", "_TINY"}
    assert not gone & set(vars(linalg))
    assert [f.name for f in dataclasses.fields(linalg.SpectralNormResult)] == ["value", "iterations"]
    assert linalg.spectral_norm([[3.0, 0.0], [0.0, 4.0]]) == linalg.SpectralNormResult(4.0, 0)


def test_families_are_taken_as_given():
    # every caller builds the family once; no public function coerces arrays
    assert not hasattr(cbs, "as_family") and not hasattr(vectors, "as_vector_family")
    assert not {"as_family", "as_vector_family"} & set(opsumbounds.__all__)
    # as_weights stays: weights do arrive raw
    assert "as_weights" in opsumbounds.__all__


def test_rank_one_families_are_materialized_only_by_the_harness():
    # verify_instance takes a VectorFamily as catalog_reports does: the
    # CLI passes the loaded family on, and the package does not export
    # the matrix route
    text = (PACKAGE / "cli.py").read_text(encoding="utf-8")
    assert "rank_one_family" not in text
    checks = [ast.unparse(node) for node in ast.walk(ast.parse(text))
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "isinstance"]
    assert not [check for check in checks if "VectorFamily" in check]
    assert "rank_one_family" not in opsumbounds.__all__ and not hasattr(opsumbounds, "rank_one_family")
    assert callable(vectors.rank_one_family)


def _imported_siblings(path: Path) -> set:
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            sibling = _sibling(node.module, node.level)
            if sibling:
                found.add(sibling)
            elif (node.level == 1 and node.module is None) or (node.level == 0 and node.module == "opsumbounds"):
                found |= {alias.name for alias in node.names} & MODULES
        elif isinstance(node, ast.Import):
            found |= {s for s in (_sibling(alias.name, 0) for alias in node.names) if s}
    return found


def test_one_catalog_entry_point():
    # operator and vector families both go to bounds.catalog_reports
    gone = {"catalog_from_norm_data", "gram_catalog_reports", "verify_identities"}
    assert not gone & set(opsumbounds.__all__)
    assert not any(hasattr(module, name) for module in (opsumbounds, bounds, vectors) for name in gone)
    # and one verifier: a spec goes through generate, then verify_instance
    assert not hasattr(harness, "verify_spec") and "verify_spec" not in opsumbounds.__all__
    assert not hasattr(vectors.VectorFamily, "gram")
    assert not hasattr(vectors.VectorFamily, "weighted_sum_norm_sq")
    assert list(inspect.signature(bounds.catalog_reports).parameters) == ["alpha", "fam", "exponent_grid"]
    assert "bounds" not in _imported_siblings(PACKAGE / "vectors.py")
    assert {"linalg", "cbs"} <= _imported_siblings(PACKAGE / "vectors.py")


def _functions_calling(attr: str) -> set:
    """(module, function) for every top-level function or method whose
    body reads np.<attr>, and (module, None) for a read outside any."""
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        owners = {}
        for top in tree.body:
            defs = [top] if isinstance(top, ast.FunctionDef) else []
            if isinstance(top, ast.ClassDef):
                defs = [d for d in top.body if isinstance(d, ast.FunctionDef)]
            for d in defs:
                owners.update((id(node), d.name) for node in ast.walk(d))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == attr
                    and isinstance(node.value, ast.Name) and node.value.id == "np"):
                found.add((path.stem, owners.get(id(node))))
    return found


def test_one_intake_check_for_outside_arrays():
    # errors.finite_array is the one finiteness check of caller arrays;
    # problemio's walk of the JSON pairs names a bad pair before any array
    # exists, and linalg.pow2_scale is the one power-of-two scaler
    assert _functions_calling("isfinite") == {("errors", "finite_array"), ("problemio", "_raise_first_defect")}
    assert _functions_calling("frexp") == {("linalg", "pow2_scale")}
    assert not hasattr(linalg, "_finite_stack") and not hasattr(linalg, "_pow2_scale")
    assert not hasattr(problemio, "_require_finite")
    assert callable(errors.finite_array) and callable(linalg.pow2_scale)
    # every caller names its family's count
    assert inspect.signature(cbs.as_weights).parameters["n"].default is inspect.Parameter.empty
