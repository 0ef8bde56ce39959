"""Problem-file loading, validation, and deterministic emission.

The on-disk format is JSON with every complex number written as a
two-element [re, im] array.  Loading walks the top-level object itself
and hands each value to the scanner of json.loads, the stack one member
at a time: a member is converted to float64 by one np.array call, its
leaf types checked (JSON numbers only) and its tree dropped before the
next is read.  Text the walk does not take goes to the tree route, whose
checks alone raise: json.loads, one conversion per array, and an entry
by entry walk to name the first bad entry.  _check_problem, the one
validator of the loader and both writers, checks what the arrays hold.
Emission is hand-rolled so the byte stream is fixed: fixed key order,
fixed indentation, LF endings, and every float printed as '%.17g' prints
it (17 significant digits round-trip float64 exactly), by an exact
vectorized route where %g prints fixed notation (_fixed_text), by Python
elsewhere, but -0.0 as '-0.0'.  Every array is written in blocks of
_BLOCK floats: write_problem writes each as it is formatted, and
emit_problem joins the same pieces.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional

import numpy as np

from .errors import DimensionMismatch, ParseError, SchemaError, ZeroVector, finite_array

SCHEMA_VERSION = "1"

_TOP_KEYS = {"schema_version", "dim", "weights", "operators", "vectors"}


def format_float(x: float) -> str:
    """Fixed 17-significant-digit decimal form."""
    return "%.17g" % x


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
        return int(getattr(self, self.mode).shape[0])


_NUMBER_TYPES = {int, float}


def _number_pairs(node) -> np.ndarray:
    """node as float64 [re, im] pairs by one np.array call, with its bools, strings and nulls refused."""
    arr = np.array(node, dtype=np.float64)
    leaves = node
    for _ in range(arr.ndim - 1):
        leaves = itertools.chain.from_iterable(leaves)
    if arr.shape[-1:] != (2,) or not set(map(type, leaves)) <= _NUMBER_TYPES:
        raise ValueError("not an array of [re, im] number pairs")
    return arr


def _parse_array(node, shape: tuple, where: str) -> np.ndarray:
    """node as a complex array of `shape`; if it is not one, its first bad entry is named."""
    try:
        arr = _number_pairs(node)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is not None and arr.shape == shape + (2,):
        return arr.view(np.complex128).reshape(shape)
    _raise_first_defect(node, shape, where)
    raise SchemaError(f"{where} is not an array of [re, im] number pairs")


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


_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)
_WHITESPACE = json.decoder.WHITESPACE.match
_ITEMS = {"operators": "matrices", "vectors": "d-vectors"}  # the members of each stack


def _members(text: str, i: int) -> tuple[np.ndarray, int]:
    """The stack at text[i] as a complex array, and the end of its text;
    each member is scanned and converted before the next is read."""
    members, i = [], _WHITESPACE(text, i).end()
    while text.startswith("," if members else "[", i):
        node, i = _DECODER.scan_once(text, _WHITESPACE(text, i + 1).end())
        members.append(_number_pairs(node))
        del node  # one member's tree at a time
        i = _WHITESPACE(text, i).end()
    if not text.startswith("]", i):
        raise ValueError(f"',' or ']' expected at {i}")
    return np.stack(members).view(np.complex128)[..., 0], i + 1


def _walk(text: str) -> ProblemFile:
    """The problem in text, each top-level value read by the scanner of
    json.loads, the stack by _members; raises for any text it does not take."""
    doc, i = {}, _WHITESPACE(text, 0).end()
    while text.startswith("," if doc else "{", i):
        i = _WHITESPACE(text, i + 1).end()
        if not text.startswith('"', i):
            raise ValueError(f"a key expected at {i}")
        key, i = json.decoder.scanstring(text, i + 1)
        i = _WHITESPACE(text, i).end()
        if not text.startswith(":", i) or key in doc:
            raise ValueError(f"':' after a new key expected at {i}")
        i = _WHITESPACE(text, i + 1).end()
        doc[key], i = _members(text, i) if key in _ITEMS else _DECODER.scan_once(text, i)
        i = _WHITESPACE(text, i).end()
    if not text.startswith("}", i) or _WHITESPACE(text, i + 1).end() != len(text):
        raise ValueError(f"'}}' closing the text expected at {i}")
    key = _header(doc)[0]
    return _problem(doc, key, doc[key])


def loads_problem(text: str) -> ProblemFile:
    """The problem in text, read by _walk; any text _walk does not take
    is read as one JSON tree, whose checks raise what is wrong with it."""
    try:
        return _walk(text)
    except (ValueError, TypeError, OverflowError, StopIteration, RecursionError):
        pass
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply to read") from None
    key, inner = _header(doc)
    node = doc[key]
    if not (isinstance(node, list) and node):
        raise SchemaError(f"{key} must be a nonempty list of {_ITEMS[key]}")
    return _problem(doc, key, _parse_array(node, (len(node),) + inner, key))


def _header(doc) -> tuple[str, tuple]:
    """The stack's key and member shape, after the checks of the top level's fields."""
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    extra = set(doc) - _TOP_KEYS
    if extra:
        raise SchemaError(f"unknown fields: {', '.join(sorted(extra))}")
    for key in ("schema_version", "dim"):
        if key not in doc:
            raise SchemaError(f"missing field {key}")
    return _check_header(doc["schema_version"], doc["dim"], "operators" in doc, "vectors" in doc)


def _problem(doc: dict, key: str, stack: np.ndarray) -> ProblemFile:
    """The problem of a checked top level and its complex stack, after _check_problem."""
    weights = _parse_array(doc["weights"], stack.shape[:1], "weights") if "weights" in doc else None
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
    try:  # a ragged, non-numeric, empty or wrong-rank array is a schema defect here
        stack = finite_array(getattr(pf, key), len(inner) + 1, key)
        if stack.shape[1:] != inner:
            raise SchemaError(f"{key} must be a stack of shape (n, {', '.join(map(str, inner))}), got {stack.shape}")
        if key == "vectors":
            zero = np.flatnonzero(~(stack != 0).any(axis=1))
            if zero.size:
                raise ZeroVector(f"vectors[{zero[0]}] is the zero vector")
        weights = None if pf.weights is None else finite_array(pf.weights, 1, "weights")
    except DimensionMismatch as exc:
        raise SchemaError(str(exc)) from None
    if weights is not None and weights.shape != stack.shape[:1]:
        raise SchemaError(f"weights must have {stack.shape[0]} entries, got shape {weights.shape}")
    if weights is None and key == "operators":
        raise SchemaError("weights are required in operators mode")
    return weights, key, stack


_BLOCK = 2048  # floats formatted and written at once, whatever the shape
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


# Per array kind: the lead of a real part at pair k, by (k % row == 0) +
# (k % member == 0) + (k == 0) for a new pair, row, member or array, and
# the text after the last float; \x01 stands in for an indenting space.
_LEADS = {kind: (np.array(leads, dtype="S12"), close) for kind, leads, close in [
    ("weights", [b"],[", b"", b"", b"[["], "]],\n"),
    ("vectors", [b"],[", b"", b"]],\n\1\1\1\1[[", b"\1\1\1\1[["], "]]\n  ]\n}\n"),
    ("operators", [b"],[", b"]],[[", b"]]],\n\1\1\1\1[[[", b"\1\1\1\1[[["], "]]]\n  ]\n}\n")]}
_SPACE = bytes.maketrans(b"\1", b" ")


def _blocks(arr: np.ndarray, kind: str) -> Iterator[str]:
    """The JSON text of arr (C-ordered, as _check_problem returns it) in
    pieces of _BLOCK floats, then the text closing it.  Each float is
    written after its lead (_LEADS, or ',' for an imaginary part):
    _fixed_text's text and, elsewhere, the '%.17g' text space-padded to
    24 bytes by one format call.  One translate per piece drops the
    NULs and spaces, which no printed float holds."""
    leads, close = _LEADS[kind]
    row, member = arr.shape[-1], arr[0].size
    flat = arr.view(np.float64).ravel()
    piece = np.empty(min(_BLOCK, flat.size), dtype=[("lead", "S12"), ("text", "S40")])
    piece["lead"][1::2] = b","
    for start in range(0, flat.size, _BLOCK):
        x = flat[start:start + _BLOCK]
        out = piece[:x.size]
        k = np.arange(start // 2, start // 2 + x.size // 2)
        out["lead"][::2] = leads.take((k % row == 0) * 1 + (k % member == 0) + (k == 0))
        size = np.abs(x)
        fast = (size >= 1e-4) & (size < 1e17)
        out["text"][fast] = _fixed_text(x[fast])
        slow = x[~fast].tolist()  # 24 >= len('%.17g' % v)
        out["text"][~fast] = np.frombuffer(b"%-24.17g" * len(slow) % tuple(slow), dtype="S24")
        out["text"][np.signbit(x) & (x == 0)] = b"-0.0"  # '-0' would read back as the integer 0
        yield out.tobytes().translate(_SPACE, b"\0 ").decode("ascii")
    yield close


def _chunks(weights: Optional[np.ndarray], key: str, stack: np.ndarray) -> Iterator[str]:
    """The problem's text in pieces: the header, the weights' blocks, the
    stack's key, then the stack's blocks and the closing brackets."""
    yield f'{{\n  "schema_version": "{SCHEMA_VERSION}",\n  "dim": {stack.shape[-1]},\n'
    if weights is not None:
        yield '  "weights": '
        yield from _blocks(weights[None], "weights")
    yield f'  "{key}": [\n'
    yield from _blocks(stack, key)


def emit_problem(pf: ProblemFile) -> str:
    """Echo a problem as deterministic JSON text."""
    return "".join(_chunks(*_check_problem(pf)))


def write_problem(pf: ProblemFile, path) -> None:
    """Write emit_problem's text, streamed a block at a time.  The problem is
    checked before the file is opened, so bad data leaves no file."""
    parts = _check_problem(pf)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_chunks(*parts))
