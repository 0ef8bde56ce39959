"""The problem-file loader as it was before stack members were read one
at a time, kept as a test reference: json.loads builds the whole tree,
then each array is converted by one np.array call.  problemio's
loads_problem must return the same arrays bit for bit on every text, or
raise the same exception with the same message.  Copied verbatim from
problemio; only the imports are new.
"""

from __future__ import annotations

import itertools
import json
from typing import Optional

import numpy as np

from opsumbounds.errors import DimensionMismatch, ParseError, SchemaError, ZeroVector, finite_array
from opsumbounds.problemio import SCHEMA_VERSION, ProblemFile

_TOP_KEYS = {"schema_version", "dim", "weights", "operators", "vectors"}


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
    except RecursionError:
        raise ParseError("not valid JSON: nested too deeply to read") from None
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
