"""Problem-file loading, validation, and deterministic emission.

The on-disk format is JSON with every complex number written as a
two-element [re, im] array.  Loading converts each of weights, operators
and vectors with one np.array call to float64 of shape (..., 2), viewed
as complex, and checks the shape and the leaf types (JSON numbers only,
no bools, strings or nulls) of the whole array at once; only input of
the wrong shape or types is walked entry by entry, to name the first bad
entry.  _check_problem then checks what the arrays hold: it is the one
validator of the loader and both writers, so no problem is written that
load_problem rejects.  Emission is hand-rolled rather than fed through a
generic serializer so the byte stream is fixed: fixed key order, fixed
indentation, LF endings, and every float printed as '%.17g' prints it
(17 significant digits round-trip float64 exactly): by an exact
vectorized route where %g prints fixed notation (_fixed_text), by
Python elsewhere.  The rows are streamed: write_problem writes each
row as it is formatted, and emit_problem joins the same pieces.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import ParseError, SchemaError, ZeroVector

SCHEMA_VERSION = "1"

_TOP_KEYS = {"schema_version", "dim", "weights", "operators", "vectors"}


_FLOAT_FORMAT = "%.17g"


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form."""
    return _FLOAT_FORMAT % x


@dataclass
class ProblemFile:
    schema_version: str
    dim: int
    weights: Optional[np.ndarray]
    operators: Optional[np.ndarray]
    vectors: Optional[np.ndarray]

    @property
    def mode(self) -> str:
        return "operators" if self.operators is not None else "vectors"

    @property
    def count(self) -> int:
        if self.operators is not None:
            return int(self.operators.shape[0])
        return int(self.vectors.shape[0])


_NUMBER_TYPES = {int, float}


def _parse_array(node, shape: tuple, where: str) -> np.ndarray:
    """node as a complex array of `shape`, each entry an [re, im] pair.

    One np.array conversion reads the whole node.  np.array also takes
    bools and numeric strings as numbers and maps null to nan, so the
    types of the flattened leaves are checked in one pass as well; the
    finiteness is _check_problem's.  Only when the conversion, the shape
    or the types fail is the node walked entry by entry, to name the
    first bad entry.
    """
    try:
        arr = np.array(node, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None and arr.shape == shape + (2,):
        leaves = node
        for _ in shape:
            leaves = itertools.chain.from_iterable(leaves)
        if set(map(type, leaves)) <= _NUMBER_TYPES:
            return arr.view(np.complex128).reshape(shape)
    _raise_first_defect(node, shape, where)
    raise SchemaError(f"{where} is not an array of [re, im] number pairs")


def _require_finite(arr: np.ndarray, where: str) -> None:
    """Raise ValueError naming the first entry of arr, in document
    order, that is not finite."""
    finite = np.isfinite(arr)
    if not finite.all():
        first = np.unravel_index(np.argmin(finite), arr.shape)
        raise ValueError(where + "".join(f"[{i}]" for i in first) + " is not finite")


def _raise_first_defect(node, shape: tuple, where: str) -> None:
    """Raise for the first entry of node, in document order, that is not
    a finite [re, im] pair in a nested list of `shape`."""
    if shape:
        if not (isinstance(node, list) and len(node) == shape[0]):
            raise SchemaError(f"{where} must have {shape[0]} entries")
        for i, child in enumerate(node):
            _raise_first_defect(child, shape[1:], f"{where}[{i}]")
        return
    if not (isinstance(node, list) and len(node) == 2
            and all(type(v) in _NUMBER_TYPES for v in node)):
        raise SchemaError(f"{where} must be a two-element [re, im] number pair")
    try:
        pair = [float(v) for v in node]
    except OverflowError:
        raise ValueError(f"{where} is outside the float64 range") from None
    if not np.isfinite(pair).all():
        raise ValueError(f"{where} is not finite")


def _unique_keys(pairs) -> dict:
    """An object_pairs_hook that rejects a repeated key instead of
    keeping its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise SchemaError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def loads_problem(text: str) -> ProblemFile:
    """The problem in text: the JSON turned into arrays of the header's
    shapes, then checked by _check_problem."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise SchemaError(f"unknown fields: {', '.join(sorted(extra))}")
    for key in ("schema_version", "dim"):
        if key not in doc:
            raise SchemaError(f"missing field {key}")
    key, inner = _check_header(doc["schema_version"], doc["dim"], "operators" in doc, "vectors" in doc)
    node = doc[key]
    if not (isinstance(node, list) and node):
        items = "matrices" if key == "operators" else "d-vectors"
        raise SchemaError(f"{key} must be a nonempty list of {items}")
    stack = _parse_array(node, (len(node),) + inner, key)
    weights = _parse_array(doc["weights"], (len(node),), "weights") if "weights" in doc else None
    ops, vecs = (stack, None) if key == "operators" else (None, stack)
    pf = ProblemFile(SCHEMA_VERSION, doc["dim"], weights, ops, vecs)
    _check_problem(pf)
    return pf


def load_problem(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_problem(fh.read())


def _check_header(schema_version, dim, has_operators: bool, has_vectors: bool) -> tuple[str, tuple]:
    """The key of the problem's stack and the shape of one member, after
    the checks of the schema version, dim and exactly one stack."""
    if schema_version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {schema_version!r}")
    if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
        raise SchemaError(f"dim must be a positive integer, got {dim!r}")
    if has_operators == has_vectors:
        raise SchemaError("exactly one of operators/vectors must be present")
    return ("operators", (dim, dim)) if has_operators else ("vectors", (dim,))


def _check_problem(pf: ProblemFile) -> tuple[Optional[np.ndarray], str, np.ndarray]:
    """pf's weights (or None), the key of its stack and the stack, as
    complex arrays, after every check of a problem: the one validator of
    loads_problem, emit_problem and write_problem."""
    key, inner = _check_header(pf.schema_version, pf.dim, pf.operators is not None, pf.vectors is not None)
    stack = np.asarray(getattr(pf, key), dtype=np.complex128)
    if stack.shape[1:] != inner or stack.shape[0] == 0:
        raise SchemaError(f"{key} must be a nonempty stack of shape (n, {', '.join(map(str, inner))}), "
                          f"got {stack.shape}")
    _require_finite(stack, key)
    if key == "vectors":
        zero = np.flatnonzero(~(stack != 0).any(axis=1))
        if zero.size:
            raise ZeroVector(f"vectors[{zero[0]}] is the zero vector")
    weights = None
    if pf.weights is not None:
        weights = np.asarray(pf.weights, dtype=np.complex128)
        if weights.shape != stack.shape[:1]:
            raise SchemaError(f"weights must have {stack.shape[0]} entries, got shape {weights.shape}")
        _require_finite(weights, "weights")
    elif key == "operators":
        raise SchemaError("weights are required in operators mode")
    return weights, key, stack


_BLOCK = 2048  # floats formatted at once, or one row when a row is longer
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitter for float64
_SCALE = np.cumprod(np.full(21, 10.0)) / 10.0  # 10^j, j = 0..20, exact
_SCALE_HI = _SPLIT * _SCALE - (_SPLIT * _SCALE - _SCALE)  # its Veltkamp halves
_SCALE_LO = _SCALE - _SCALE_HI
_DECADES = 1e16 / _SCALE[::-1]  # the doubles nearest 10^-4..10^16


@lru_cache(maxsize=1)
def _digit_tables() -> tuple:
    """_fixed_text's tables, built on first use, read-only.  A text is 40
    bytes, NUL where nothing is printed: bytes 0-5 hold the sign and, if
    k < 0, "0." and -k-1 zeros; byte 6 + 2i digit i, and the byte after
    digit k < 16 the '.'.  Per 4-digit value: its digits so spaced and
    the place (1-4) of its last nonzero digit (-99 for 0); per group
    (k + 4) * 2 + sign: bytes 0-5 and the '.'; per b = 0..32: the mask
    keeping bytes 0-5 and 6 + r, r <= b."""
    digits = np.arange(10000, dtype=np.int16)[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10
    quads = np.zeros((10000, 8), dtype=np.uint8)
    quads[:, ::2] = digits + 48
    last = np.where(digits.any(axis=1), 4 - (digits[:, ::-1] != 0).argmax(axis=1), -99).astype(np.int16)
    k, j = np.repeat(np.arange(-4, 17), 2)[:, None], np.arange(40)
    groups = np.where((j == 0) & (np.tile([0, 1], 21)[:, None] == 1), 45, 0)
    groups += np.where((k < 0) & (1 <= j) & (j < 2 - k), np.where(j == 2, 46, 48), 0)
    groups += np.where((0 <= k) & (k < 16) & (j == 2 * k + 7), 46, 0)
    keep = np.where((j < 6) | (j - 6 <= np.arange(33)[:, None]), 255, 0)
    tables = (quads.view(np.uint64).ravel(), last,
              groups.astype(np.uint8).view(np.uint64), keep.astype(np.uint8).view(np.uint64))
    for table in tables:
        table.flags.writeable = False
    return tables


def _decimal(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """N and k with N 10^(k-16) = a, 1e-4 <= a < 1e17, rounded half-to-even
    to 17 digits.  k is exact, as no double nearest 10^-4..10^16 is below
    its power; Dekker's product gives a 10^(16-k) exactly as hi + lo.
    N < 10^17: no double of the range lies in [(1 - 5e-18) 10^m, 10^m)."""
    j = 21 - np.searchsorted(_DECADES, a, side="right")  # 16 - k
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b, b_hi, b_lo = _SCALE.take(j), _SCALE_HI.take(j), _SCALE_LO.take(j)
    hi = a * b
    lo = ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), 16 - j


def _fixed_text(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v for each v in x, 1e-4 <= |v| < 1e17, as S40 texts
    whose NULs are to be dropped: N's digits with the point after digit
    k (or "0." and -k-1 zeros first) and the fraction's zeros stripped."""
    quads, last_place, groups, keep = _digit_tables()
    n, k = _decimal(np.abs(x))
    quad = np.stack([n // 10**12, n // 10**8, n // 10**4, n], axis=1)  # digits 1-4, ..., 13-16
    quad -= quad // 10**4 * 10**4
    words = groups.take((k + 4) * 2 + (x < 0), axis=0)
    words.view(np.uint8)[:, 6] = n // 10**16 + 48
    words[:, 1:] |= quads.take(quad)
    last = (last_place.take(quad.T) + np.arange(0, 16, 4)[:, None]).max(axis=0)
    words &= keep.take(2 * np.maximum(last, np.maximum(k, 0)), axis=0)
    return words.view("S40").ravel()


def _rows(arr: np.ndarray) -> Iterator[str]:
    """One JSON row of [re, im] pairs per run of arr's last axis, built a
    block at a time: _fixed_text's texts and, elsewhere, '%.17g' texts
    space-padded to 24 bytes by one format call; NULs and spaces, which
    no printed float holds, are dropped from each row."""
    width = 2 * arr.shape[-1]
    texts_row = ("[" + ",".join(["[%s,%s]"] * (width // 2)) + "]").encode()
    flat = np.ascontiguousarray(arr).view(np.float64).reshape(-1, width)
    step = max(1, _BLOCK // width)
    for start in range(0, len(flat), step):
        block = flat[start:start + step]
        size = np.abs(block)
        fast = ((size >= 1e-4) & (size < 1e17)).ravel()
        x, texts = block.ravel(), np.zeros(fast.size, dtype="S40")
        texts[fast] = _fixed_text(x[fast])
        slow = x[~fast].tolist()
        texts[~fast] = np.frombuffer(b"%-24.17g" * len(slow) % tuple(slow), dtype="S24")  # 24 >= len('%.17g' % v)
        texts = texts.tolist()
        for r in range(0, len(texts), width):
            yield (texts_row % tuple(texts[r:r + width])).translate(None, b"\0 ").decode("ascii")


def _chunks(weights: Optional[np.ndarray], key: str, stack: np.ndarray) -> Iterator[str]:
    """The problem's text in pieces: the header with the weights, then one
    row per piece, then the closing brackets.  An operator is one line of
    d rows, [row,...,row]; a vector is one line of one row."""
    d = stack.shape[-1]
    head = f'{{\n  "schema_version": "{SCHEMA_VERSION}",\n  "dim": {d},\n'
    if weights is not None:
        head += '  "weights": ' + next(_rows(weights)) + ",\n"
    yield head + f'  "{key}": [\n'
    per_line, lo, hi = (d, "[", "]") if key == "operators" else (1, "", "")
    for k, row in enumerate(_rows(stack)):
        if k == 0:
            sep = "    " + lo
        elif k % per_line:
            sep = ","
        else:
            sep = hi + ",\n    " + lo
        yield sep + row
    yield hi + "\n  ]\n}\n"


def emit_problem(pf: ProblemFile) -> str:
    """Echo a problem as deterministic JSON text."""
    return "".join(_chunks(*_check_problem(pf)))


def write_problem(pf: ProblemFile, path) -> None:
    """Write emit_problem's text, streamed row by row.  The problem is
    checked before the file is opened, so bad data leaves no file."""
    parts = _check_problem(pf)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_chunks(*parts))
