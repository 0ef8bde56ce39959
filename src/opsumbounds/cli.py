"""Command line front end.

Three subcommands:

* ``bound``   evaluate the full bound catalog on a problem file
* ``verify``  run the verification checklist on a problem file or on a
  generated instance, exiting 1 when any check fails
* ``sweep``   tabulate slack ratios over generated instances as CSV

Exit codes: 0 success, 1 a verification check failed, 2 bad input, an
instance too large for memory or an arithmetic overflow, 3 LAPACK's
singular value or eigenvalue solver did not converge.

Reports are emitted with fixed key order, two-space indent, LF line
endings, and 17 significant digits, so identical invocations produce
byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import bounds, harness, problemio, vectors
from .cbs import OperatorFamily
from .errors import NoConvergence, SchemaError
from .problemio import format_float


def _json(value) -> str:
    """A report value as JSON text, by its type: a dict as a one-line
    object, a float at 17 significant digits, always in float form."""
    if isinstance(value, dict):
        return "{" + ", ".join(f'"{key}": {_json(item)}' for key, item in value.items()) + "}"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        # json.loads reads "-0" as an int, and takes Infinity/NaN, not "inf"
        text = format_float(value)
        if text.lstrip("-").isdigit():
            return text + ".0"
        return {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN"}.get(text, text)
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"no report encoding for {type(value).__name__}")


def _parse_grid(text):
    if text is None:
        return None
    values = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            values.append(float(piece))
        except ValueError:
            raise SchemaError(f"bad grid entry {piece!r}") from None
    if not values:
        raise SchemaError("empty exponent grid")
    return tuple(values)


def _parse_seed_single(text: str) -> int:
    try:
        return int(text.strip())
    except ValueError:
        raise SchemaError(f"bad seed {text!r}; expected an integer") from None


def _parse_seed_range(text: str):
    text = text.strip()
    if ":" in text:
        lo_text, _, hi_text = text.partition(":")
        try:
            lo, hi = int(lo_text), int(hi_text)
        except ValueError:
            raise SchemaError(f"bad seed range {text!r}; expected START:STOP") from None
        if hi < lo:
            raise SchemaError(f"bad seed range {text!r}; STOP must be >= START")
        return range(lo, hi)
    return [_parse_seed_single(text)]


def _write_text(text: str, path) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _report(**fields) -> str:
    """A report's text: one field per line at two-space indent, a list
    field with one item per line."""
    lines = []
    for key, value in fields.items():
        if isinstance(value, list):
            text = "[\n" + ",\n".join("    " + _json(item) for item in value) + "\n  ]"
        else:
            text = _json(value)
        lines.append(f'  "{key}": {text}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _load(args):
    """The problem at args.input, checked against --mode, with its weights,
    their label and its family: an OperatorFamily, or a VectorFamily
    weighted by bessel_weighting when the file gives no weights."""
    pf = problemio.load_problem(args.input)
    if args.mode is not None and args.mode != pf.mode:
        raise SchemaError(f"problem file is in {pf.mode} mode but --mode {args.mode} was requested")
    if pf.mode == "operators":
        return pf, pf.weights, "explicit", OperatorFamily(pf.operators)
    family = vectors.VectorFamily(pf.vectors)
    if pf.weights is None:
        return pf, vectors.bessel_weighting(family), "bessel", family
    return pf, pf.weights, "explicit", family


def _cmd_bound(args) -> int:
    pf, weights, label, family = _load(args)
    grid = _parse_grid(args.grid)
    reports = bounds.catalog_reports(weights, family, grid)
    best = bounds.tightest_report(reports)
    # Per unit probe norm in vectors mode: the reported left side and
    # bounds are the coefficients of ||x||^2.
    lhs_key = "lhs_sq" if pf.mode == "operators" else "lhs_sq_per_unit_probe"
    text = _report(
        mode=pf.mode, dim=pf.dim, count=pf.count, weights=label, **{lhs_key: reports[0].lhs_sq},
        bounds=[dict(name=rep.name, exponents=rep.exponents, value=rep.bound, slack_ratio=rep.slack_ratio)
                for rep in reports],
        tightest=dict(name=best.name, exponents=best.exponents, value=best.bound))
    _write_text(text, args.out)
    return 0


def _cmd_verify(args) -> int:
    grid = _parse_grid(args.grid)
    if args.input is not None:
        given = [f"--{flag}" for flag in ("kind", "dim", "count", "seed") if getattr(args, flag) is not None]
        if given:
            raise SchemaError(f"verify --input takes no {', '.join(given)}")
        _, weights, _, family = _load(args)
        if isinstance(family, vectors.VectorFamily):
            family = vectors.rank_one_family(family)
        origin = {"input": args.input}
    else:
        if args.kind is None or args.dim is None or args.count is None:
            raise SchemaError("verify needs --input, or all of --kind, --dim, --count")
        if args.mode is not None:
            raise SchemaError("verify takes --mode only with --input: a generated instance has no file mode")
        seed = 0 if args.seed is None else _parse_seed_single(args.seed)
        spec = harness.InstanceSpec(kind=args.kind, dim=args.dim, count=args.count, seed=seed)
        weights, family, _ = harness.generate(spec)
        origin = {"instance": dict(kind=spec.kind, dim=spec.dim, count=spec.count, seed=spec.seed)}
    result = harness.verify_instance(weights, family, args.tol, exponent_grid=grid)
    text = _report(**origin, all_hold=result.all_hold, worst_violation=result.worst_violation,
                   checks=[chk._asdict() for chk in result.checks])
    _write_text(text, args.out)
    return 0 if result.all_hold else 1


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.grid)
    kinds = [k.strip() for k in args.kind.split(",") if k.strip()]
    if not kinds:
        raise SchemaError("no instance kinds given")
    seeds = _parse_seed_range(args.seed)
    specs = [harness.InstanceSpec(kind=kind, dim=args.dim, count=args.count, seed=seed)
             for kind in kinds for seed in seeds]
    rows = harness.slack_sweep(specs, grid)
    harness.write_slack_csv(rows, args.out)
    sys.stdout.write(f"wrote {len(rows)} rows to {args.out}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opsumbounds",
        description="Norm bounds for weighted sums of operators: evaluate, verify, sweep.")
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    b = sub.add_parser("bound", help="evaluate the bound catalog on a problem file")
    b.add_argument("--input", required=True, help="problem file (JSON syntax)")
    b.add_argument("--mode", choices=("operators", "vectors"),
                   help="require the problem file to be in this mode")
    b.add_argument("--grid", help="comma-separated exponents for the tunable entries, e.g. 1.25,1.5,2")
    b.add_argument("--out", help="write the report here instead of stdout")

    v = sub.add_parser("verify", help="run the verification checklist")
    v.add_argument("--input", help="problem file to verify")
    v.add_argument("--mode", choices=("operators", "vectors"),
                   help="require the problem file to be in this mode")
    v.add_argument("--grid", help="comma-separated exponents for the tunable entries")
    v.add_argument("--tol", type=float, default=bounds.CHECK_TOL, help="relative tolerance for the catalog checks")
    v.add_argument("--kind", choices=harness.KINDS,
                   help="verify a generated instance of this kind instead of a file")
    v.add_argument("--dim", type=int, help="dimension for generated instances")
    v.add_argument("--count", type=int, help="family size for generated instances")
    v.add_argument("--seed", help="seed for generated instances")
    v.add_argument("--out", help="write the report here instead of stdout")

    s = sub.add_parser("sweep", help="slack-ratio table over generated instances")
    s.add_argument("--kind", default="GaussianDense", help="instance kind, or a comma-separated list")
    s.add_argument("--dim", type=int, required=True, help="dimension of every instance")
    s.add_argument("--count", type=int, required=True, help="family size of every instance")
    s.add_argument("--seed", default="0", help="seed N, or a range START:STOP (STOP excluded)")
    s.add_argument("--grid", help="comma-separated exponents for the tunable entries")
    s.add_argument("--out", required=True, help="CSV output path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"bound": _cmd_bound, "verify": _cmd_verify, "sweep": _cmd_sweep}[args.command]
    try:
        return handler(args)
    except NoConvergence as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: arithmetic overflow: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
