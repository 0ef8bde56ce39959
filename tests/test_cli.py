import hashlib
import json
import math
import re

import numpy as np
import pytest

from opsumbounds.bounds import catalog_reports, tightest_report
from opsumbounds.cbs import OperatorFamily
from opsumbounds.cli import _json, main
from opsumbounds.harness import KINDS, InstanceSpec, generate, slack_sweep, verify_instance, write_slack_csv
from opsumbounds.problemio import ProblemFile, load_problem, write_problem
from opsumbounds.rng import PortableRng


@pytest.fixture
def ops_file(tmp_path):
    w, fam, _ = generate(InstanceSpec("GaussianDense", 3, 2, 1))
    path = tmp_path / "ops.json"
    write_problem(ProblemFile("1", 3, w, fam.ops, None), path)
    return str(path)


@pytest.fixture
def vec_file(tmp_path):
    vecs = PortableRng(2).complex_normal((3, 4))
    path = tmp_path / "vec.json"
    write_problem(ProblemFile("1", 4, None, None, vecs), path)
    return str(path)


def test_bound_report_structure(ops_file, capsys):
    assert main(["bound", "--input", ops_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "operators"
    assert doc["weights"] == "explicit"
    assert doc["dim"] == 3 and doc["count"] == 2
    assert len(doc["bounds"]) == 61
    values = [b["value"] for b in doc["bounds"]]
    assert doc["tightest"]["value"] == min(values)
    assert all(doc["lhs_sq"] <= v * (1 + 1e-9) for v in values)


def test_bound_vectors_mode(vec_file, capsys):
    assert main(["bound", "--input", vec_file, "--mode", "vectors"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "vectors"
    assert doc["weights"] == "bessel"
    assert "lhs_sq_per_unit_probe" in doc


def test_bound_grid_option(ops_file, capsys):
    assert main(["bound", "--input", ops_file, "--grid", "2"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # 9 master cells plus the six named bounds; no orthogonal entries
    # for a dense family
    assert len(doc["bounds"]) == 15


@pytest.mark.parametrize("second, rows", [([1.0, 1e-12, 0.0], 0), ([1.0, 0.0, 0.0], 7)])
def test_bound_lists_orthogonal_entries_only_for_orthogonal_vectors(tmp_path, capsys, second, rows):
    # <y_1, y_2> = 1e-12 is small but not 0: the orthogonal entries need
    # exactly orthogonal vectors
    path = tmp_path / "vec.json"
    vecs = np.array([second, [0.0, 1.0, 0.0]], dtype=np.complex128)
    write_problem(ProblemFile("1", 3, None, None, vecs), path)
    assert main(["bound", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert sum(b["name"].startswith("orthogonal:") for b in doc["bounds"]) == rows


def test_bound_output_is_byte_stable(ops_file, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["bound", "--input", ops_file, "--out", str(a)]) == 0
    assert main(["bound", "--input", ops_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_verify_generated_instances(capsys):
    assert main(["verify", "--kind", "GaussianDense", "--dim", "4",
                 "--count", "3", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_hold"] is True
    assert doc["instance"] == {"kind": "GaussianDense", "dim": 4, "count": 3, "seed": 1}
    assert main(["verify", "--kind", "OrthonormalRankOne", "--dim", "3",
                 "--count", "3", "--seed", "7"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_hold"] is True


def test_verify_file_routes(ops_file, vec_file, capsys):
    assert main(["verify", "--input", ops_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["input"] == ops_file
    assert doc["worst_violation"] == 0
    names = [c["name"] for c in doc["checks"]]
    assert names[:3] == ["psd_gap", "psd_gap_inner", "cbs_norm"]
    assert main(["verify", "--input", vec_file]) == 0


def test_verify_output_parses_despite_infinite_slack(capsys):
    main(["verify", "--kind", "GaussianDense", "--dim", "3", "--count", "2", "--seed", "0"])
    out = capsys.readouterr().out
    assert "Infinity" in out
    json.loads(out)


@pytest.mark.parametrize("vectors", [
    [[[1e-310, 0], [0, 0]]],
    [[[1e-310, 0], [0, 0]], [[0.6, 0.1], [0.3, -0.2]]],
])
def test_verify_takes_vectors_with_subnormal_entries(tmp_path, capsys, vectors):
    # the materialized operators of a vector whose norm is subnormal
    # must come out finite, as the Gram route's bound already does
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({"schema_version": "1", "dim": 2, "vectors": vectors}), encoding="utf-8")
    assert main(["verify", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["all_hold"] is True


def test_report_encoder_writes_each_value_by_its_type():
    value = {"flag": True, "count": 3, "low": float("-inf"), "x": np.float64(0.1), "name": 'a"b', "in": {}}
    assert _json(value) == ('{"flag": true, "count": 3, "low": -Infinity, "x": 0.10000000000000001, '
                            '"name": "a\\"b", "in": {}}')
    assert (_json(float("inf")), _json(float("nan")), _json(-0.0)) == ("Infinity", "NaN", "-0.0")
    # a numpy bool or integer is no Python bool or int: refused, not quoted
    for bad in (np.bool_(True), np.int64(3), None, [1.0]):
        with pytest.raises(TypeError):
            _json(bad)


def _same_float(parsed, value) -> bool:
    # bit for bit up to a nan's sign and payload, which no report carries
    if math.isnan(value):
        return math.isnan(parsed)
    return parsed == value and math.copysign(1.0, parsed) == math.copysign(1.0, value)


def _same_record(parsed: dict, record: dict) -> bool:
    if list(parsed) != list(record):
        return False
    return all(_same_float(parsed[key], value) if isinstance(value, float) else parsed[key] == value
               for key, value in record.items())


# weights x 1e60 overflow catalog entries to inf and nan (the scale fault
# that the catalog still has); the reports must carry them all the same
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_every_report_value_round_trips(tmp_path, capsys):
    w, fam, _ = generate(InstanceSpec("GaussianDense", 4, 3, 1))
    path = str(tmp_path / "scaled.json")
    write_problem(ProblemFile("1", 4, w * 1e60, fam.ops, None), path)
    pf = load_problem(path)
    fam = OperatorFamily(pf.operators)
    reports = catalog_reports(pf.weights, fam)
    result = verify_instance(pf.weights, fam)
    assert main(["bound", "--input", path]) == 0
    bound_text = capsys.readouterr().out
    assert main(["verify", "--input", path]) == (0 if result.all_hold else 1)
    verify_text = capsys.readouterr().out
    for text in (bound_text, verify_text):
        # outside its strings, a report spells inf and nan as JSON reads them
        assert not re.search(r"\b(nan|inf)\b", re.sub(r'"[^"]*"', '""', text))

    bound = json.loads(bound_text)
    best = tightest_report(reports)
    assert _same_float(bound["lhs_sq"], reports[0].lhs_sq)
    assert len(bound["bounds"]) == len(reports)
    for parsed, rep in zip(bound["bounds"], reports):
        assert _same_record(parsed, dict(name=rep.name, exponents=rep.exponents, value=rep.bound,
                                         slack_ratio=rep.slack_ratio)), parsed
    assert _same_record(bound["tightest"], dict(name=best.name, exponents=best.exponents, value=best.bound))

    doc = json.loads(verify_text)
    assert doc["all_hold"] is result.all_hold
    assert _same_float(doc["worst_violation"], result.worst_violation)
    assert len(doc["checks"]) == len(result.checks)
    for parsed, chk in zip(doc["checks"], result.checks):
        assert _same_record(parsed, chk._asdict()), parsed


def test_bad_inputs_exit_2(ops_file, tmp_path, capsys):
    assert main(["bound", "--input", str(tmp_path / "absent.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["bound", "--input", str(bad)]) == 2
    huge = tmp_path / "huge.json"
    huge.write_text('{"schema_version": "1", "dim": 1, "weights": [[1' + "0" * 400 + ',0]], '
                    '"operators": [[[[1,0]]]]}', encoding="utf-8")
    assert main(["bound", "--input", str(huge)]) == 2
    assert main(["verify", "--input", str(huge)]) == 2
    repeated = tmp_path / "repeated.json"
    repeated.write_text('{"schema_version":"1","dim":1,"weights":[[5,0]],"operators":[[[[1,0]]]],'
                        '"weights":[[1,0]]}', encoding="utf-8")
    assert main(["bound", "--input", str(repeated)]) == 2
    assert main(["verify", "--input", str(repeated)]) == 2
    capsys.readouterr()
    # the loader names the first defect in document order: the NaN, not the ragged member after it
    nan_ragged = tmp_path / "nan_ragged.json"
    nan_ragged.write_text('{"schema_version": "1", "dim": 2, "vectors": [[[NaN, 0], [0, 0]], [[1, 0]]]}',
                          encoding="utf-8")
    assert main(["bound", "--input", str(nan_ragged)]) == 2
    assert capsys.readouterr().err == "error: vectors[0][0] is not finite\n"
    assert main(["bound", "--input", ops_file, "--mode", "vectors"]) == 2
    assert main(["bound", "--input", ops_file, "--grid", "zzz"]) == 2
    # finite and > 1, but its conjugate p / (p - 1) rounds to 1
    assert main(["bound", "--input", ops_file, "--grid", "1e300"]) == 2
    assert main(["verify", "--kind", "GaussianDense", "--dim", "4", "--count", "3",
                 "--seed", "1", "--tol", "0"]) == 2
    assert main(["verify", "--kind", "GaussianDense", "--dim", "4", "--count", "3",
                 "--seed", "1", "--tol", "nan"]) == 2
    # spec route needs the full instance description
    assert main(["verify", "--kind", "GaussianDense", "--dim", "4"]) == 2
    capsys.readouterr()
    # the file route takes none of the spec route's flags
    assert main(["verify", "--input", ops_file, "--kind", "GaussianDense", "--dim", "2", "--count", "9"]) == 2
    assert "--kind, --dim, --count" in capsys.readouterr().err
    assert main(["verify", "--input", ops_file, "--seed", "0"]) == 2
    assert "--seed" in capsys.readouterr().err
    # and the spec route takes no file mode
    assert main(["verify", "--kind", "GaussianDense", "--dim", "4", "--count", "3", "--mode", "vectors"]) == 2
    assert "--mode" in capsys.readouterr().err
    # %g labels both entries p=1.5,q=3
    assert main(["bound", "--input", ops_file, "--grid", "1.5,1.5000001"]) == 2
    assert main(["verify", "--input", ops_file, "--grid", "2,2"]) == 2
    capsys.readouterr()
    # a grid of no entries, through each subcommand
    for args in (["bound", "--input", ops_file], ["verify", "--input", ops_file],
                 ["verify", "--kind", "GaussianDense", "--dim", "4", "--count", "3"],
                 ["sweep", "--dim", "4", "--count", "3", "--out", str(tmp_path / "empty_grid.csv")]):
        for grid in (",", " , ,", ""):
            assert main([*args, "--grid", grid]) == 2, (args, grid)
            assert capsys.readouterr().err == "error: empty exponent grid\n"


@pytest.mark.parametrize("depth", [990, 100000])
def test_deeply_nested_files_exit_2(tmp_path, capsys, depth):
    # json.loads runs out of recursion depth well before 100000 levels
    path = tmp_path / "deep.json"
    path.write_text('{"schema_version": "1", "dim": 2, "vectors": %s}' % ("[" * depth + "]" * depth),
                    encoding="utf-8")
    assert main(["bound", "--input", str(path)]) == 2
    path.write_text("[" * depth + "]" * depth, encoding="utf-8")
    assert main(["bound", "--input", str(path)]) == 2
    assert main(["verify", "--input", str(path)]) == 2
    capsys.readouterr()


def test_verify_rejects_a_tol_that_is_not_finite(ops_file, capsys):
    # 1e400 parses to inf; an infinite tol turns 0 * tol into nan
    for tol in ("inf", "1e400"):
        assert main(["verify", "--kind", "GaussianDense", "--dim", "4", "--count", "2",
                     "--seed", "1", "--tol", tol]) == 2
        assert "tol" in capsys.readouterr().err
        assert main(["verify", "--input", ops_file, "--tol", tol]) == 2
        assert "tol" in capsys.readouterr().err


def test_out_of_memory_exits_2(tmp_path, capsys, monkeypatch):
    from opsumbounds import harness

    def too_big(spec):
        raise MemoryError(f"no room for dim {spec.dim}")

    monkeypatch.setattr(harness, "generate", too_big)
    assert main(["verify", "--kind", "GaussianDense", "--dim", "20000", "--count", "8"]) == 2
    assert "error: out of memory: no room for dim 20000" in capsys.readouterr().err
    assert main(["sweep", "--kind", "GaussianDense", "--dim", "20000", "--count", "8",
                 "--out", str(tmp_path / "s.csv")]) == 2
    assert "error: out of memory" in capsys.readouterr().err


def test_usage_errors_from_argparse(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bound"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["verify", "--kind", "NoSuchKind", "--dim", "2", "--count", "2"])
    assert err.value.code == 2
    capsys.readouterr()


def test_near_degenerate_input_still_succeeds(tmp_path, capsys):
    # a relative spectral gap of 2e-9 in the top singular pair; the norm
    # route must carry the catalog through
    ops = np.array([np.diag([1.0, 1.0 - 1e-9])], dtype=np.complex128)
    path = tmp_path / "slow.json"
    write_problem(ProblemFile("1", 2, np.array([1.0 + 0j]), ops, None), path)
    assert main(["bound", "--input", str(path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["lhs_sq"] == pytest.approx(1.0, rel=1e-9)


def test_nonconvergence_exits_3(ops_file, capsys, monkeypatch):
    from opsumbounds import linalg
    from opsumbounds.errors import NoConvergence

    def _give_up(*args, **kwargs):
        raise NoConvergence("simulated stall")

    monkeypatch.setattr(linalg, "spectral_norms", _give_up)
    assert main(["bound", "--input", ops_file]) == 3
    assert "error" in capsys.readouterr().err


def test_lapack_failure_exits_3(capsys, monkeypatch):
    # LAPACK's LinAlgError is a ValueError, which alone would exit 2
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    args = ["verify", "--kind", "GaussianDense", "--dim", "4", "--count", "3"]
    with monkeypatch.context() as patched:
        patched.setattr(np.linalg, "svd", fail)
        assert main(args) == 3
        assert capsys.readouterr().err.startswith("error: singular value solver did not converge")
    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    assert main(args) == 3
    assert capsys.readouterr().err.startswith("error: eigenvalue solver did not converge")


def test_arithmetic_overflow_exits_2(ops_file, capsys, monkeypatch):
    from opsumbounds import bounds

    def _overflow(*args, **kwargs):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(bounds, "catalog_reports", _overflow)
    assert main(["bound", "--input", ops_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: arithmetic overflow: (34, 'Numerical result out of range')\n"
    assert main(["verify", "--input", ops_file]) == 2
    assert "error: arithmetic overflow" in capsys.readouterr().err


def test_bad_grid_exits_2_before_any_norm_is_solved(ops_file, capsys, monkeypatch):
    from opsumbounds import linalg

    def never(*args, **kwargs):
        raise AssertionError("norms solved for a bad grid")

    monkeypatch.setattr(linalg, "spectral_norms", never)
    for grid in ("0.5", "1.5,1.5000001", "2,2"):
        assert main(["bound", "--input", ops_file, "--grid", grid]) == 2
        assert "grid" in capsys.readouterr().err


def test_verify_bad_grid_exits_2_before_the_psd_gap_is_solved(capsys, monkeypatch):
    from opsumbounds import linalg

    solved = []
    eigenvalues = linalg.hermitian_eigenvalues

    def spy(*args, **kwargs):
        solved.append(args)
        return eigenvalues(*args, **kwargs)

    monkeypatch.setattr(linalg, "hermitian_eigenvalues", spy)
    instance = ["verify", "--kind", "GaussianDense", "--dim", "16", "--count", "4"]
    for grid in ("0.5", "2,2"):
        assert main(instance + ["--grid", grid]) == 2
        assert "grid" in capsys.readouterr().err
    assert solved == []
    assert main(instance + ["--grid", "2"]) == 0
    assert len(solved) == 1


def test_sweep_matches_library_output(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code = main(["sweep", "--kind", "GaussianDense,OrthonormalRankOne",
                 "--dim", "4", "--count", "3", "--seed", "0:3", "--out", str(out)])
    assert code == 0
    specs = [
        InstanceSpec(kind, 4, 3, seed)
        for kind in ("GaussianDense", "OrthonormalRankOne")
        for seed in range(3)
    ]
    rows = slack_sweep(specs)
    assert f"wrote {len(rows)} rows" in capsys.readouterr().out
    expected = tmp_path / "expected.csv"
    write_slack_csv(rows, expected)
    assert out.read_bytes() == expected.read_bytes()


def test_sweep_empty_range_writes_header_only(tmp_path, capsys):
    out = tmp_path / "empty.csv"
    assert main(["sweep", "--kind", "GaussianDense", "--dim", "3", "--count", "2",
                 "--seed", "5:5", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines() == [
        "seed,kind,dim,count,bound,exponents,lhs,bound_value,slack_ratio"
    ]
    capsys.readouterr()


def test_sweep_rejects_a_bad_grid_even_with_no_instance(tmp_path, capsys):
    # an empty seed range reaches no catalog, so the grid is checked before the first instance
    out = tmp_path / "empty.csv"
    for grid in (",", "0.5", "2,2"):
        assert main(["sweep", "--dim", "4", "--count", "3", "--seed", "5:5", "--grid", grid, "--out", str(out)]) == 2
        assert "grid" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_rejects_bad_arguments(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    assert main(["sweep", "--kind", "GaussianDense", "--dim", "3", "--count", "2",
                 "--seed", "5:4", "--out", out]) == 2
    assert main(["sweep", "--kind", "GaussianDense", "--dim", "3", "--count", "2",
                 "--seed", "abc", "--out", out]) == 2
    assert main(["sweep", "--kind", "NoSuchKind", "--dim", "3", "--count", "2",
                 "--seed", "0", "--out", out]) == 2
    capsys.readouterr()
    # a range whose ends are no integers, and a kind list of no kinds
    assert main(["sweep", "--dim", "3", "--count", "2", "--seed", "a:b", "--out", out]) == 2
    assert capsys.readouterr().err == "error: bad seed range 'a:b'; expected START:STOP\n"
    assert main(["sweep", "--kind", " , ", "--dim", "3", "--count", "2", "--out", out]) == 2
    assert capsys.readouterr().err == "error: no instance kinds given\n"
    assert not (tmp_path / "x.csv").exists()


# exit code and sha256 of each report on fixed inputs: performance work
# must leave every byte of the output alone.  The digests pin the
# floating point of the machine they were taken on: x86-64 with AVX-512,
# numpy 2.4 with its bundled OpenBLAS.  Two run-time choices decide the
# bits: numpy's SIMD dispatch for np.log1p (Box-Muller) and np.power
# (catalog aggregates), and the OpenBLAS kernel for the matrix products
# and LAPACK's solvers.
# The test fails under NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL
# AVX512_SPR" and under OPENBLAS_CORETYPE=Haswell, Zen or Sandybridge;
# it passes under OPENBLAS_CORETYPE=SkylakeX.
FROZEN_DIGESTS = {
    "bound:operators": (0, "cd72d6e53491cac697f231cca9eb0f372f484a6812c46a98bdec96583b9b815a"),
    "bound:vectors": (0, "ae2095be2df924a7c22642caa770628081c788a998ec9db0c1a625b89270ff08"),
    "bound:vectors_weighted": (0, "4ec285b57064629aa32562fd8f4df7ba8314b362491db4135e7db377c614012a"),
    "verify:operators": (0, "3356961f6e336b3186ea19018a19afc3d823fd1fdb66624975841682d529e728"),
    "verify:vectors": (0, "6d10f000e61e07dad39cbecf28476d9511642fe20c7273f387902d6284a3cc13"),
    "verify:vectors_weighted": (0, "00baa5ef3e4243cef9d02b5b33f85a2c3ce0539ab8a358a3edb4a1c18ec46299"),
    "verify:GaussianDense": (0, "f427919313194df05e468ad345c970814450b291ffa6d7a1c1314cbd5590f8c3"),
    "verify:UnitaryScaled": (0, "73e0fb7b6c51ea887feab6b1394e3be86d187b63bb3261a323cc1fc176b66dda"),
    "verify:RankOneFromVectors": (0, "f511c416bef0d516c61af0d836952c3d145b4c07fe72589c99c3ed96b6edc9db"),
    "verify:BlockOrthogonal": (0, "1e8bf63e43d163ca72ea3343f0506cd883ed0cc7cf98b8276aaac261016adb25"),
    "verify:OrthonormalRankOne": (0, "db2005753a9876e1605019df8d9c3b28a0f2fd15dc2af99cbfec4f7e5c7f33fc"),
    "sweep": (0, "5f54e20cf1e6bc337b01b8a19b0a09dc18b32ad17a555fb44505a80684e05aba"),
}


def _frozen_outputs():
    # run in the working directory: verify reports print the input path
    w, fam, _ = generate(InstanceSpec("GaussianDense", 5, 4, 3))
    vecs = PortableRng(4).complex_normal((5, 6))
    files = {
        "operators": ProblemFile("1", 5, w, fam.ops, None),
        "vectors": ProblemFile("1", 6, None, None, vecs),
        "vectors_weighted": ProblemFile("1", 6, PortableRng(5).complex_normal(5), None, vecs),
    }
    runs = {}
    for name, pf in files.items():
        path = f"{name}.json"
        write_problem(pf, path)
        runs[f"bound:{name}"] = ["bound", "--input", path]
        runs[f"verify:{name}"] = ["verify", "--input", path]
    for kind in KINDS:
        runs[f"verify:{kind}"] = ["verify", "--kind", kind, "--dim", "6", "--count", "4", "--seed", "2"]
    runs["sweep"] = ["sweep", "--kind", "GaussianDense,BlockOrthogonal,RankOneFromVectors",
                     "--dim", "4", "--count", "3", "--seed", "0:2"]
    digests = {}
    for name, argv in runs.items():
        out = f"{name.replace(':', '_')}.out"
        code = main(argv + ["--out", out])
        with open(out, "rb") as fh:
            digests[name] = (code, hashlib.sha256(fh.read()).hexdigest())
    return digests


def test_frozen_report_digests(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert _frozen_outputs() == FROZEN_DIGESTS
    capsys.readouterr()
