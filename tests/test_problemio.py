import hashlib
import itertools
import json
import re
import tracemalloc

import numpy as np
import problem_reference
import pytest

from opsumbounds import problemio
from opsumbounds.errors import ParseError, SchemaError, ZeroVector
from opsumbounds.problemio import (
    ProblemFile,
    emit_problem,
    format_float,
    load_problem,
    loads_problem,
    write_problem,
)
from opsumbounds.rng import PortableRng


def _ops_doc():
    return """
    {
      "schema_version": "1",
      "dim": 2,
      "weights": [[1,0],[0,1]],
      "operators": [
        [[[1,0],[0,0]],[[0,0],[1,0]]],
        [[[0,0],[2,0]],[[0,0],[0,0]]]
      ]
    }
    """


def test_minimal_operator_problem():
    pf = loads_problem(_ops_doc())
    assert pf.mode == "operators"
    assert pf.dim == 2 and pf.count == 2
    assert pf.weights[1] == 1j
    assert pf.operators[1][0, 1] == 2.0


def test_vectors_mode_weights_optional():
    pf = loads_problem('{"schema_version":"1","dim":2,"vectors":[[[3,0],[0,4]]]}')
    assert pf.mode == "vectors"
    assert pf.weights is None
    assert pf.count == 1
    assert pf.vectors[0][1] == 4j


def test_parse_error_on_bad_json():
    with pytest.raises(ParseError):
        loads_problem("{nope")


@pytest.mark.parametrize(
    "text",
    [
        "[1, 2]",
        '{"dim": 1, "weights": [[1,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "2", "dim": 1, "weights": [[1,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "weights": [[1,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 0, "weights": [[1,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": true, "weights": [[1,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "extra": 0, "weights": [[1,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[1,0]], "operators": [[[[1,0]]]], "vectors": [[[1,0]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[1,0]]}',
        '{"schema_version": "1", "dim": 1, "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[1,0],[2,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 2, "weights": [[1,0]], "operators": [[[[1,0],[0,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[1,0]], "operators": [[[[1,0],[2,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[1]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[1,0,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [["x",0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[1,0]], "operators": []}',
        '{"schema_version": "1", "dim": 2, "vectors": [[[1,0]]]}',
        # entries that a bare numpy conversion would take as numbers
        '{"schema_version": "1", "dim": 1, "weights": [[true,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [["1",0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[null,0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[[1],0]], "operators": [[[[1,0]]]]}',
        '{"schema_version": "1", "dim": 2, "vectors": [[[1,0],[0,false]]]}',
        # operators one level too shallow, and one too deep
        '{"schema_version": "1", "dim": 2, "weights": [[1,0]], "operators": [[[1,0],[0,0]]]}',
        '{"schema_version": "1", "dim": 1, "weights": [[1,0]], "operators": [[[[[1,0]]]]]}',
        # a repeated key would otherwise keep its last value
        '{"schema_version":"1","dim":1,"weights":[[5,0]],"operators":[[[[1,0]]]],"weights":[[1,0]]}',
    ],
)
def test_schema_violations(text):
    with pytest.raises(SchemaError):
        loads_problem(text)


def test_nonfinite_entries_rejected():
    # json.loads itself accepts the Infinity literal, validation must not
    with pytest.raises(ValueError):
        loads_problem('{"schema_version": "1", "dim": 1, "weights": [[Infinity,0]], "operators": [[[[1,0]]]]}')
    with pytest.raises(ValueError):
        loads_problem('{"schema_version": "1", "dim": 1, "weights": [[1,0]], "operators": [[[[NaN,0]]]]}')
    with pytest.raises(ValueError, match=r"vectors\[1\]\[0\] is not finite"):
        loads_problem('{"schema_version": "1", "dim": 2, "vectors": [[[1,0],[0,1]],[[0,NaN],[1,0]]]}')
    deep = [[[[1, 0]] * 3 for _ in range(3)] for _ in range(2)]
    deep[1][2][1] = [1, float("-inf")]
    text = json.dumps({"schema_version": "1", "dim": 3, "weights": [[1, 0], [1, 0]], "operators": deep})
    with pytest.raises(ValueError, match=r"operators\[1\]\[2\]\[1\] is not finite"):
        loads_problem(text)
    # a ragged stack converts to no array, so the walk of its pairs names
    # the first defect in document order: the NaN before the ragged member
    for tail in ("[[1, 0]]", "[[1, 0], [0, 0], [0, 0]]", "[[1, 0], [0]]"):
        text = '{"schema_version": "1", "dim": 2, "vectors": [[[NaN, 0], [0, 0]], %s]}' % tail
        with pytest.raises(ValueError, match=r"^vectors\[0\]\[0\] is not finite$"):
            loads_problem(text)


_BIG = "1" + "0" * 400


@pytest.mark.parametrize(
    "weights, operators, entry",
    [
        (f"[[{_BIG},0]]", "[[[[1,0]]]]", r"weights\[0\]"),
        ("[[1,0]]", f"[[[[1,-{_BIG}]]]]", r"operators\[0\]\[0\]\[0\]"),
    ],
    ids=["weights", "operators"],
)
def test_integer_beyond_float_range_rejected(weights, operators, entry):
    # float() of a 401-digit integer raises OverflowError, which is not a
    # ValueError; the parser must turn it into one that names the entry
    with pytest.raises(ValueError, match=entry):
        loads_problem(f'{{"schema_version": "1", "dim": 1, "weights": {weights}, "operators": {operators}}}')


def test_zero_vector_rejected():
    with pytest.raises(ZeroVector):
        loads_problem('{"schema_version": "1", "dim": 2, "vectors": [[[0,0],[0,0]]]}')
    with pytest.raises(ZeroVector, match=r"vectors\[1\] is the zero vector"):
        loads_problem('{"schema_version": "1", "dim": 2, "vectors": [[[0,0],[5e-324,0]],[[0,0],[-0.0,0]]]}')


def test_weights_structure_is_checked_before_the_stack_contents():
    # the loader converts the weights before the one validator checks what
    # either array holds, so a malformed weights entry is named first
    with pytest.raises(SchemaError, match=r"weights\[0\] must be a two-element \[re, im\] number pair"):
        loads_problem('{"schema_version":"1","dim":1,"weights":[["x",0]],"vectors":[[[0,0]]]}')
    with pytest.raises(SchemaError, match="weights must have 1 entries"):
        loads_problem('{"schema_version":"1","dim":1,"weights":[[1,0],[2,0]],"operators":[[[[NaN,0]]]]}')
    # between two content defects the stack's still comes first
    with pytest.raises(ZeroVector):
        loads_problem('{"schema_version":"1","dim":1,"weights":[[NaN,0]],"vectors":[[[0,0]]]}')


def test_frozen_single_entry_emission():
    pf = ProblemFile(
        schema_version="1",
        dim=1,
        weights=np.array([1.0 + 0.0j]),
        operators=np.array([[[2.0 + 0.0j]]]),
        vectors=None,
    )
    expected = (
        "{\n"
        '  "schema_version": "1",\n'
        '  "dim": 1,\n'
        '  "weights": [[1,0]],\n'
        '  "operators": [\n'
        "    [[[2,0]]]\n"
        "  ]\n"
        "}\n"
    )
    assert emit_problem(pf) == expected


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_frozen_emission_digests():
    # digests of the byte streams the per-entry emitter wrote; the row
    # template emitter must reproduce them exactly
    rng = PortableRng(2024)
    ops = ProblemFile("1", 8, rng.complex_normal(3), rng.complex_normal((3, 8, 8)), None)
    assert _sha256(emit_problem(ops)) == "5d8443444493ae37c6ba7a43ebc0dfee9dddeed69644c1687dadcc04b2804a35"
    rng = PortableRng(2025)
    vecs = ProblemFile("1", 16, rng.complex_normal(5), None, rng.complex_normal((5, 16)))
    assert _sha256(emit_problem(vecs)) == "d0b911bee0764d30a27aaeccda7cbd4d612f16554fee21466437b64bb727259d"
    big, tiny = 1.7976931348623157e308, 5e-324
    special = ProblemFile(
        "1", 2, np.array([complex(-0.0, tiny), complex(3.0, -7.0)]),
        np.array([[[complex(-0.0, tiny), complex(big, -0.0)], [complex(3.0, -7.0), complex(-tiny, -big)]],
                  [[0j, complex(1e16, -2.0)], [complex(0.1, 123456789.0), complex(2.0**53, -1.0)]]]),
        None)
    # this and the last text hold -0.0, which is written '-0.0' (it was
    # '-0', read back as +0.0); the digests differ from the per-entry
    # emitter's only there
    assert _sha256(emit_problem(special)) == "e3859bf09bfc2f54cac198b2ae09a6841ed083be870a75de701cf4f7587f8f0b"
    text = ('{"schema_version":"1","dim":3,"vectors":[[[1,0],[-0.0,2],[12345678901234567890,-3]],'
            '[[5e-324,-5e-324],[1.7976931348623157e308,0],[-1.7976931348623157e308,1e-300]]]}')
    assert _sha256(emit_problem(loads_problem(text))) == (
        "e214763c2910aa82395d1caa0de0090ec318287ce9403cdfd0319388b6826f51")


def test_round_trip_is_exact():
    rng = PortableRng(314)
    pf = ProblemFile(
        schema_version="1",
        dim=3,
        weights=rng.complex_normal(2),
        operators=rng.complex_normal((2, 3, 3)),
        vectors=None,
    )
    # signed zeros in both parts of the weights, an operator and a vector:
    # a -0.0 must come back with its sign bit set
    pf.weights[0] = complex(-0.0, 1.0)
    pf.weights[1] = complex(0.0, -0.0)
    pf.operators[1, 2] = [complex(-0.0, -0.0), complex(2.0, -0.0), complex(-0.0, 0.0)]
    vecs = ProblemFile("1", 2, None, None, np.array([[complex(-0.0, 0.0), complex(1.0, -0.0)]]))
    for case in (pf, vecs):
        back = loads_problem(emit_problem(case))
        for key in ("weights", "operators", "vectors"):
            want = getattr(case, key)
            if want is not None:
                assert getattr(back, key).tobytes() == want.tobytes(), key
    assert np.signbit(back.vectors.real).tolist() == [[True, False]]


def test_double_emission_is_stable():
    text = emit_problem(loads_problem(_ops_doc()))
    assert emit_problem(loads_problem(text)) == text


def test_file_round_trip(tmp_path):
    path = tmp_path / "problem.json"
    pf = loads_problem(_ops_doc())
    write_problem(pf, path)
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"}\n")
    again = load_problem(path)
    assert again.operators.tobytes() == pf.operators.tobytes()


def test_format_float_pins_seventeen_digits():
    assert format_float(1.0) == "1"
    assert format_float(0.1) == "0.10000000000000001"
    x = 1.0 / 3.0
    assert float(format_float(x)) == x


def _whole_text_rows(arr):
    # every float as '%.17g' prints it, but -0.0 as '-0.0': '%.17g' prints
    # '-0', which JSON reads back as the integer 0
    c = np.ascontiguousarray(arr, dtype=np.complex128)
    d = c.shape[-1]
    template = "[" + ",".join(["[%.17g,%.17g]"] * d) + "]"
    rows = c.view(np.float64).reshape(int(np.prod(c.shape[:-1])), 2 * d).tolist()
    return [re.sub(r"(?<=[\[,])-0(?=[,\]])", "-0.0", template % tuple(row)) for row in rows]


def _whole_text_emit(pf):
    # the emitter that built the whole text in memory, kept as the
    # reference the streamed writer must match byte for byte
    lines = ["{", f'  "schema_version": "{pf.schema_version}",', f'  "dim": {pf.dim},']
    parts = []
    if pf.weights is not None:
        parts.append('  "weights": ' + _whole_text_rows(pf.weights)[0])
    if pf.operators is not None:
        rows = _whole_text_rows(pf.operators)
        d = pf.operators.shape[1]
        body = ",\n".join("    [" + ",".join(rows[k:k + d]) + "]" for k in range(0, len(rows), d))
        parts.append('  "operators": [\n' + body + "\n  ]")
    if pf.vectors is not None:
        body = ",\n".join("    " + row for row in _whole_text_rows(pf.vectors))
        parts.append('  "vectors": [\n' + body + "\n  ]")
    lines.append(",\n".join(parts))
    lines.append("}")
    return "\n".join(lines) + "\n"


_SPECIAL = np.array([-0.0, 5e-324, 1.7976931348623157e308, 3.0, -7.0, 2.0**53, 0.0, -1.0])


def _special_entries(shape, rng):
    # the special values and integers, then random entries, in both parts
    flat = rng.complex_normal(int(np.prod(shape)))
    k = min(flat.size, _SPECIAL.size)
    flat.real[:k] = _SPECIAL[:k]
    flat.imag[:k] = _SPECIAL[::-1][:k]
    return flat.reshape(shape)


def _byte_cases():
    rng = PortableRng(41)
    cases = {}
    for d, n in [(1, 1), (1, 3), (3, 2), (8, 5)]:
        ops = _special_entries((n, d, d), rng)
        cases[f"operators-d{d}-n{n}"] = ProblemFile("1", d, _special_entries((n,), rng), ops, None)
        vecs = _special_entries((n, d), rng)
        cases[f"vectors-d{d}-n{n}"] = ProblemFile("1", d, None, None, vecs)
        cases[f"vectors-weighted-d{d}-n{n}"] = ProblemFile("1", d, _special_entries((n,), rng), None, vecs)
    cases["integers"] = ProblemFile("1", 2, np.array([1, -2]), np.arange(8).reshape(2, 2, 2) - 3, None)
    # Python's formatter alone (x 1e-300 and x 1e-5), the vector route
    # alone (x 1e16), and vectors rows longer than one block
    w, ops = rng.complex_normal(3), rng.complex_normal((3, 64, 64))
    for scale in (1e-300, 1e-5, 1e16):
        cases[f"operators-d64-x{scale:g}"] = ProblemFile("1", 64, w, scale * ops, None)
    cases["vectors-d1100-n3"] = ProblemFile("1", 1100, w, None, rng.complex_normal((3, 1100)))
    return cases


@pytest.mark.parametrize("name, pf", list(_byte_cases().items()), ids=list(_byte_cases()))
def test_written_bytes_match_the_whole_text_emitter(tmp_path, name, pf):
    path = tmp_path / "problem.json"
    write_problem(pf, path)
    expected = _whole_text_emit(pf)
    assert path.read_bytes() == expected.encode("utf-8")
    assert emit_problem(pf) == expected


@pytest.mark.parametrize("d", [1024, 4096, 16384])
def test_write_problem_streams_rows(tmp_path, d):
    # the whole text of the d=1024 file is 2.6 MB; the writer holds one
    # block of it, however long a row is
    pf = ProblemFile("1", d, None, None, PortableRng(5).complex_normal((60 if d == 1024 else 20, d)))
    tracemalloc.start()
    try:
        write_problem(pf, tmp_path / "vectors.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1_000_000


def _unloadable_problems():
    ops = PortableRng(6).complex_normal((2, 3, 3))
    vecs = PortableRng(7).complex_normal((2, 3))
    nan_ops = ops.copy()
    nan_ops[1, 2, 0] = complex(1.0, np.nan)
    inf_weights = np.array([1.0 + 0j, complex(np.inf, 0.0)])
    zero_vecs = vecs.copy()
    zero_vecs[1] = 0.0
    return {
        "nan": (ProblemFile("1", 3, np.ones(2), nan_ops, None), ValueError, r"operators\[1\]\[2\]\[0\] is not finite"),
        "inf": (ProblemFile("1", 3, inf_weights, None, vecs), ValueError, r"weights\[1\] is not finite"),
        "zero_vector": (ProblemFile("1", 3, None, None, zero_vecs), ZeroVector, r"vectors\[1\] is the zero vector"),
        "shape": (ProblemFile("1", 4, np.ones(2), ops, None), SchemaError, "operators"),
        # the loader's other checks
        "schema_version": (ProblemFile("2", 3, np.ones(2), ops, None), SchemaError, "schema_version"),
        "dim": (ProblemFile("1", True, None, None, vecs[:, :1]), SchemaError, "dim"),
        "both": (ProblemFile("1", 3, np.ones(2), ops, vecs), SchemaError, "exactly one"),
        "neither": (ProblemFile("1", 3, np.ones(2), None, None), SchemaError, "exactly one"),
        "no_weights": (ProblemFile("1", 3, None, ops, None), SchemaError, "weights are required"),
        "weight_count": (ProblemFile("1", 3, np.ones(3), None, vecs), SchemaError, "weights"),
        "empty": (ProblemFile("1", 3, None, None, vecs[:0]), SchemaError, "vectors"),
    }


@pytest.mark.parametrize("case", list(_unloadable_problems()))
def test_write_problem_refuses_what_the_loader_rejects(tmp_path, case):
    pf, error, match = _unloadable_problems()[case]
    path = tmp_path / "problem.json"
    with pytest.raises(error, match=match):
        write_problem(pf, path)
    assert not path.exists()
    with pytest.raises(error, match=match):
        emit_problem(pf)


def _hand_text(pf):
    # the problem's JSON text written without the emitter's checks
    doc = {"schema_version": pf.schema_version, "dim": pf.dim}
    for key in ("weights", "operators", "vectors"):
        value = getattr(pf, key)
        if value is not None:
            value = np.asarray(value, dtype=np.complex128)
            doc[key] = np.stack([value.real, value.imag], axis=-1).tolist()
    return json.dumps(doc)


@pytest.mark.parametrize("case", list(_unloadable_problems()))
def test_loader_raises_what_the_writer_raises(tmp_path, case):
    pf, error, match = _unloadable_problems()[case]
    with pytest.raises(error, match=match) as written:
        write_problem(pf, tmp_path / "problem.json")
    with pytest.raises(error, match=match) as loaded:
        loads_problem(_hand_text(pf))
    assert loaded.type is written.type


@pytest.mark.parametrize(
    "weights, vecs, where",
    [(None, [[1.0, 2.0], [3.0]], "vectors"), ([1.0, "a"], [[1.0, 0.0], [0.0, 1.0]], "weights")],
    ids=["ragged_vectors", "string_weight"],
)
def test_writers_name_an_array_they_cannot_read(tmp_path, weights, vecs, where):
    pf = ProblemFile("1", 2, weights, None, vecs)
    path = tmp_path / "problem.json"
    with pytest.raises(SchemaError, match=f"cannot read {where} as one array of numbers"):
        write_problem(pf, path)
    assert not path.exists()
    with pytest.raises(SchemaError, match=f"cannot read {where} as one array of numbers"):
        emit_problem(pf)


class _Reached(Exception):
    pass


def test_loader_and_writers_share_one_validator(tmp_path, monkeypatch):
    def reached(pf):
        raise _Reached

    monkeypatch.setattr(problemio, "_check_problem", reached)
    with pytest.raises(_Reached):
        loads_problem(_ops_doc())
    pf = ProblemFile("1", 2, None, None, PortableRng(8).complex_normal((2, 2)))
    with pytest.raises(_Reached):
        emit_problem(pf)
    with pytest.raises(_Reached):
        write_problem(pf, tmp_path / "problem.json")
    assert not (tmp_path / "problem.json").exists()


def _formatter_cases():
    """About a million float64 values, both signs of each: random bit
    patterns, zeros, subnormals, every decade from 1e-6 to 1e18, exact ties of
    17-digit rounding, integers in [1e16, 1e18], and the powers of ten
    (1e-4 and 1e17, the ends of the vector route, among them) with their
    neighbours."""
    rng = np.random.default_rng(1517)
    bits = rng.integers(0, 2**63, 200_000, dtype=np.uint64, endpoint=False)
    random_bits = bits.view(np.float64)
    subnormals = (bits[:20_000] >> np.uint64(12)).view(np.float64)
    decades = np.concatenate([rng.uniform(1.0, 10.0, 10_000) * float(f"1e{e}") for e in range(-6, 19)])
    j = np.arange(20_000)
    ties = np.concatenate([1e15 + (2 * j + 1) / 4, (2.0**52 + j) / 8])
    integers = rng.integers(10**16, 10**18, 50_000).astype(np.float64)
    powers = np.array([float(f"1e{e}") for e in range(-30, 31)])
    near = [powers]
    for toward in (0.0, np.inf):
        step = powers
        for _ in range(3):
            step = np.nextafter(step, toward)
            near.append(step)
    extremes = np.concatenate([np.zeros(1000), [5e-324, 1.7976931348623157e308]])
    values = np.concatenate([random_bits[np.isfinite(random_bits)], subnormals, decades, ties, integers,
                             *near, extremes])
    return np.concatenate([values, -values])


def test_rows_print_every_float_as_percent_17g():
    values = _formatter_cases()
    fast = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e17)
    assert 0.3 < fast.mean() < 0.7
    order = np.random.default_rng(7).permutation(values.size)
    half, rest = order[:values.size // 2], order[values.size // 2:]
    # rows of 64 pairs, ordered so most blocks are all fast-range or all
    # fallback and some are mixed; then mixed rows of 1500 pairs, each
    # longer than a block
    by_route = np.concatenate([half[fast[half]], half[~fast[half]]])
    for index, d in ((by_route, 64), (rest, 1500)):
        flat = values[index[:index.size // (2 * d) * 2 * d]]
        pf = ProblemFile("1", d, None, None, flat.view(np.complex128).reshape(-1, d))
        text = emit_problem(pf)
        got, want = text.splitlines(), _whole_text_emit(pf).splitlines()
        assert len(got) == len(want)
        bad = [k for k, (g, w) in enumerate(zip(got, want)) if g != w]
        assert not bad, f"{len(bad)} lines differ, the first at line {bad[0]} of d={d}"
        # -0.0, and nothing else, is written -0.0; no float is written -0
        tokens = re.split(r"[\[\],\s]+", text.split('"vectors": [', 1)[1])
        negative_zero = np.signbit(flat) & (flat == 0)
        assert negative_zero.any() and tokens.count("-0.0") == np.count_nonzero(negative_zero)
        assert "-0" not in tokens


# -- the loader against the tree loader it replaced -------------------------


def _outcome(load, text):
    # what a loader makes of text: the exception's class and message, or
    # the problem with every array's dtype, shape and bytes
    try:
        pf = load(text)
    except Exception as exc:
        return type(exc), str(exc)
    arrays = [None if a is None else (a.dtype.str, a.shape, a.flags.c_contiguous, a.tobytes())
              for a in (pf.weights, pf.operators, pf.vectors)]
    return pf.schema_version, type(pf.dim), pf.dim, arrays


def _assert_same_outcome(text):
    # the same outcome as the tree loader's; and every problem the tree
    # loader takes is read by the walk alone, without the fallback
    got, want = _outcome(loads_problem, text), _outcome(problem_reference.loads_problem, text)
    assert got == want, text[:200]
    if not isinstance(got[0], type):
        assert _outcome(problemio._walk, text) == got, text[:200]
    return got


def _written_texts():
    # writer output at several shapes and scales, subnormals among them
    rng = PortableRng(30)
    texts = []
    for d, n in [(1, 1), (2, 3), (5, 4)]:
        for scale in (1.0, 1e300, 1e-300, 1e-310):
            w = scale * rng.complex_normal(n)
            texts.append(emit_problem(ProblemFile("1", d, w, scale * rng.complex_normal((n, d, d)), None)))
            texts.append(emit_problem(ProblemFile("1", d, w, None, scale * rng.complex_normal((n, d)))))
        texts.append(emit_problem(ProblemFile("1", d, None, None, rng.complex_normal((n, d)))))
    texts.append(emit_problem(ProblemFile("1", 2, np.array([5e-324, -0.0]), None,
                                          np.array([[complex(5e-324, -5e-324), 0j], [1e-310j, complex(-0.0, 1.0)]]))))
    return texts


def _head(dim=1):
    return f'"schema_version": "1", "dim": {dim}'


def _hand_texts():
    ops = '"operators": [[[[1,0]]]]'
    return [
        # integer tokens, 400-digit integers, 1e400, NaN and Infinity
        '{"schema_version":"1","dim":2,"weights":[[1,0],[2,-3]],"operators":[[[[1,2],[3,4]],[[5,6],[7,8]]],'
        '[[[0,0],[1,0]],[[-1,0],[0,-0]]]]}',
        f'{{{_head()}, "weights": [[{_BIG},0]], {ops}}}',
        f'{{{_head()}, "weights": [[1,0]], "operators": [[[[1,-{_BIG}]]]]}}',
        f'{{{_head()}, "vectors": [[[{_BIG},0]]]}}',
        f'{{{_head()}, "vectors": [[[1e400,0]]]}}',
        f'{{{_head()}, "weights": [[1,-1e400]], "vectors": [[[1,0]]]}}',
        f'{{{_head(2)}, "vectors": [[[1,0],[NaN,0]]]}}',
        f'{{{_head()}, "weights": [[Infinity,0]], {ops}}}',
        f'{{{_head()}, "weights": [[1,0]], "operators": [[[[-Infinity,0]]]]}}',
        f'{{{_head()}, "vectors": [[[12345678901234567890,-3]]]}}',
        # bools, strings and null in the stack and in the weights
        *(f'{{{_head()}, "weights": [[{v},0]], {ops}}}' for v in ("true", "false", '"1"', "null")),
        *(f'{{{_head(2)}, "vectors": [[[1,0],[0,{v}]]]}}' for v in ("true", '"x"', '"1"', "null")),
        *(f'{{{_head()}, "weights": [[1,0]], "operators": [[[[{v},0]]]]}}' for v in ("false", '"2"', "null")),
        # ragged members, a wrong dim, members of the wrong depth
        f'{{{_head(2)}, "vectors": [[[1,0],[0,1]],[[1,0]]]}}',
        f'{{{_head(2)}, "vectors": [[[1,0],[0,1]],[[1,0],[0]]]}}',
        f'{{{_head(2)}, "vectors": [[[1,0],[0,1]],[[1,0],[0,1,2]]]}}',
        f'{{{_head(2)}, "weights": [[1,0]], "operators": [[[[1,0],[0,0]],[[0,0]]]]}}',
        f'{{{_head(3)}, "vectors": [[[1,0],[0,1]]]}}',
        f'{{{_head(1)}, "weights": [[1,0]], "operators": [[[[1,0]],[[2,0]]]]}}',
        f'{{{_head(1)}, "weights": [[1,0]], "operators": [[[1,0]]]}}',
        f'{{{_head(1)}, "weights": [[1,0]], "operators": [[[[[1,0]]]]]}}',
        f'{{{_head(1)}, "vectors": [[1,0]]}}',
        f'{{{_head(1)}, "vectors": [1]}}',
        f'{{{_head(1)}, "vectors": [[[[1,0]]]]}}',
        f'{{{_head(1)}, "vectors": []}}',
        f'{{{_head(1)}, "vectors": {{}}}}',
        f'{{{_head(1)}, "vectors": 5}}',
        f'{{{_head(2)}, "vectors": [[[0,0],[0,0]]]}}',
        f'{{{_head(1)}, "weights": [[1,0],[2,0]], "vectors": [[[1,0]]]}}',
        f'{{{_head(1)}, "weights": [], "vectors": [[[1,0]]]}}',
        f'{{{_head(1)}, "weights": [[1,0]]}}',
        f'{{{_head(1)}, {ops}}}',
        f'{{{_head(1)}, "weights": [[1,0]], {ops}, "vectors": [[[1,0]]]}}',
        # extra, missing and repeated keys, at the top and inside a member
        f'{{{_head()}, "extra": 0, "vectors": [[[1,0]]]}}',
        '{"dim": 1, "vectors": [[[1,0]]]}',
        '{"schema_version": "1", "vectors": [[[1,0]]]}',
        '{}',
        f'{{{_head()}, "vectors": [[[1,0]]], "dim": 1}}',
        f'{{{_head()}, "vectors": [[[1,0]]], "vectors": [[[1,0]]]}}',
        f'{{{_head()}, "weights": [[5,0]], {ops}, "weights": [[1,0]]}}',
        f'{{{_head()}, "vectors": [{{"re": 1, "re": 2}}]}}',
        f'{{{_head()}, "vectors": [[{{"re": 1, "im": 0}}]]}}',
        f'{{{_head()}, "vectors": [[{{}}]]}}',
        f'{{{_head()}, "weights": [{{"a": [1,0], "a": [2,0]}}], "vectors": [[[1,0]]]}}',
        '{"schema_version": {"v": 1, "v": 1}, "dim": 1, "vectors": [[[1,0]]]}',
        # a bad header
        '{"schema_version": "2", "dim": 1, "vectors": [[[1,0]]]}',
        '{"schema_version": 1, "dim": 1, "vectors": [[[1,0]]]}',
        *(f'{{"schema_version": "1", "dim": {v}, "vectors": [[[1,0]]]}}' for v in ("0", "true", "1.0", "-1", '"1"')),
        # not a problem object at all
        "", " ", "null", "[1, 2]", '"text"', "{nope", "}", "{", '{"dim"}', '{"dim": }', '{,}', '{"a" 1}',
        # trailing commas, a BOM, trailing garbage
        f'{{{_head()}, "vectors": [[[1,0]],]}}',
        f'{{{_head()}, "vectors": [[[1,0]]],}}',
        f'{{{_head()}, "vectors": [[[1,0],]]}}',
        f'{{{_head()},, "vectors": [[[1,0]]]}}',
        f'{{{_head()}, "vectors": [,[[1,0]]]}}',
        f'\ufeff{{{_head()}, "vectors": [[[1,0]]]}}',
        f'{{{_head()}, "vectors": [[[1,0]]]}}x',
        f'{{{_head()}, "vectors": [[[1,0]]]}} {{}}',
        f'{{{_head()}, "vectors": [[[1,0]]]}}}}',
        f'{{{_head()}, "vectors": [[[1,0]]] ]}}',
        f'{{{_head()}, "vectors": [[[1,0]] [[1,0]]]}}',
        f'{{{_head()}, "vectors": [[[1,0]]]',
        f'{{{_head()}, "vectors": [[[1,0]]',
        f'{{{_head()} "vectors": [[[1,0]]]}}',
        f'{{"schema_version" "1", "dim": 1, "vectors": [[[1,0]]]}}',
        f'{{{_head()}, "vectors": [[[01,0]]]}}',
        f'{{{_head()}, "vectors": [[[1.,0]]]}}',
        f'{{{_head()}, "vectors": [[[+1,0]]]}}',
        '{"schema_version": "1", "dim": 01, "vectors": [[[1,0]]]}',
        '{"schema_\\u0076ersion": "1", "dim": 1, "vectors": [[[1,0]]]}',
        '{"schema_version": "1", "dim": 1, "vectors": [[[1,0]]]}\n\r\t ',
        '{"schema_version": "1", "dim": 1, "vectors\t": [[[1,0]]]}',
        '{" dim": 1, "schema_version": "1", "vectors": [[[1,0]]]}',
        '{"schema_version": "1\n", "dim": 1, "vectors": [[[1,0]]]}',
        '{"schema_version": "1", "dim": 1, "vectors": [[[1,0]]]}\x00',
        '{"schema_version": "1", "dim": 1, "vectors": [[[1,0]]]\u00a0}',
        # nesting deeper than the parser's limit: stack, weights, the top
        f'{{{_head()}, "vectors": [{"[" * 100_000}{"]" * 100_000}]}}',
        f'{{{_head()}, "weights": {"[" * 100_000}{"]" * 100_000}, "vectors": [[[1,0]]]}}',
        "[" * 100_000 + "]" * 100_000,
        f'{{{_head()}, "vectors": [[[1,0]]], "x": {{"a": {"[" * 100_000}}}}}',
    ]


def _orders_and_spacing():
    # writer output with its keys in every order, and re-spaced: tabs,
    # CRLF, and no whitespace at all
    rng = PortableRng(31)
    texts = []
    for pf in (ProblemFile("1", 2, rng.complex_normal(2), rng.complex_normal((2, 2, 2)), None),
               ProblemFile("1", 3, rng.complex_normal(2), None, rng.complex_normal((2, 3))),
               ProblemFile("1", 3, None, None, rng.complex_normal((2, 3)))):
        text = emit_problem(pf)
        items = json.loads(text, object_pairs_hook=list)
        for order in itertools.permutations(items):
            texts.append("{" + ", ".join(f'"{k}": {json.dumps(v)}' for k, v in order) + "}")
        texts += [text.replace("  ", "\t"), text.replace("\n", "\r\n"), re.sub(r"\s", "", text),
                  "\t\r\n " + text.replace(",", " ,\t").replace(":", "\r\n:\n")]
    return texts


@pytest.mark.parametrize("text", [*_written_texts(), *_hand_texts(), *_orders_and_spacing()])
def test_loader_matches_the_tree_loader(text):
    _assert_same_outcome(text)


def test_loader_matches_the_tree_loader_on_every_one_character_edit():
    # every single-character deletion and duplication of a small operators
    # text and a small vectors text
    rng = PortableRng(32)
    seen = set()
    for pf in (ProblemFile("1", 1, np.array([1.5, -2j]), np.array([[[0.25 - 1j]], [[3.0 + 0j]]]), None),
               ProblemFile("1", 2, None, None, rng.complex_normal((2, 2)) * 1e-5)):
        text = emit_problem(pf)
        for k in range(len(text)):
            for edit in (text[:k] + text[k + 1:], text[:k] + text[k] + text[k:]):
                got = _assert_same_outcome(edit)
                seen.add(got[0] if isinstance(got[0], type) else "loaded")
    assert seen == {"loaded", ParseError, SchemaError}, seen


def test_written_files_never_reach_the_tree_loader(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the tree loader was reached")

    texts = _written_texts() + [emit_problem(pf) for pf in _byte_cases().values()]
    loaded = []
    monkeypatch.setattr(problemio.json, "loads", refuse)
    for k, text in enumerate(texts):
        path = tmp_path / f"problem-{k}.json"
        path.write_bytes(text.encode("utf-8"))
        loaded.append(load_problem(path))
    monkeypatch.undo()
    for text, pf in zip(texts, loaded):
        assert _outcome(lambda _: pf, text) == _outcome(problem_reference.loads_problem, text)


@pytest.mark.parametrize("mode, shape, factor", [("vectors", (60, 1024), 3.0), ("operators", (8, 64, 64), 4.0)])
def test_load_holds_one_member_tree_at_a_time(mode, shape, factor):
    # the whole JSON tree of the d=1024, n=60 vectors text is about 12x the
    # stack's bytes; a load that holds the arrays and one member's tree
    # stays near twice them
    rng = PortableRng(33)
    stack = rng.complex_normal(shape)
    pf = ProblemFile("1", shape[-1], rng.complex_normal(shape[0]),
                     stack if mode == "operators" else None, stack if mode == "vectors" else None)
    text = emit_problem(pf)
    tracemalloc.start()
    try:
        loaded = loads_problem(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert getattr(loaded, mode).tobytes() == stack.tobytes()
    assert peak <= factor * stack.nbytes, f"{peak / stack.nbytes:.2f}x the stack"
