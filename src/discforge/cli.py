"""Command-line interface.

One job per invocation.  Matrices come inline via --matrix "[[...]]" or
from a JSON file holding either the bare matrix or {"matrix": [[...]]}.
Indices printed or accepted on the command line are 1-based.  Exit codes:
0 ok, 2 parse error, 3 precondition failure, 4 unsupported input.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

# config, lattice and errors serve every subcommand; the engine modules
# are imported inside the subcommands that use them
from .config import (
    SIZE_BOUND_ENV,
    GaleConfiguration,
    PointConfiguration,
    cayley,
    dual_of,
    gale_dual,
    gale_side,
    segment,
    size_bound,
    standard_form,
)
from .errors import DiscforgeError, ParseError, SizeBound
from .lattice import IntMatrix, lattice_index


def _load_matrix(args) -> IntMatrix:
    if args.matrix is not None:
        raw = args.matrix
    else:
        try:
            with open(args.file, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {args.file}: {exc}") from exc
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON matrix: {exc}") from exc
    if isinstance(data, dict):
        if "matrix" not in data:
            raise ParseError('expected an object with a "matrix" key')
        data = data["matrix"]
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise ParseError("matrix must be a list of rows")
    if not data or not data[0]:
        raise ParseError("matrix must have at least one row and one column")
    return IntMatrix(data)


def _config(args):
    """The matrix read as the side that --side names."""
    m = _load_matrix(args)
    return PointConfiguration(m) if args.side == "a" else GaleConfiguration(m)


_RATIONAL = re.compile(r"[+-]?\d+(/\d+)?", re.ASCII)


def _parse_point(raw: str) -> list[Fraction]:
    """A JSON list of integers and "p/q" strings, q nonzero."""
    try:
        data = json.loads(raw)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid point: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("point must be a JSON list")
    out = []
    for x in data:
        if isinstance(x, int) and not isinstance(x, bool):
            out.append(Fraction(x))
        elif isinstance(x, str) and _RATIONAL.fullmatch(x):
            try:
                out.append(Fraction(x))
            except ZeroDivisionError:
                raise ParseError(f"bad rational {x!r}: zero denominator") from None
        else:
            raise ParseError("point entries must be integers or 'p/q' strings")
    return out


def _one_based(witness: dict) -> dict:
    """Shift index lists inside a defect witness for display."""
    out = dict(witness)
    if "flats" in out:
        out["flats"] = [[i + 1 for i in fl] for fl in out["flats"]]
    if "parts" in out:
        out["parts"] = [[i + 1 for i in p] for p in out["parts"]]
    return out


def _matrix_out(m: IntMatrix):
    """A matrix as its JSON object and as rows of space-separated entries."""
    return {"matrix": m.to_lists()}, "\n".join(" ".join(str(x) for x in row) for row in m.data)


def _verdict(key: str, value: bool):
    return {key: value}, str(value).lower()


# -- subcommand bodies: each returns its output as (JSON object, text) -----


def cmd_gale(args):
    return _matrix_out(gale_dual(PointConfiguration(_load_matrix(args))).matrix)


def cmd_dual(args):
    b = GaleConfiguration(_load_matrix(args))
    if b.zero_rows():
        rows = ", ".join(str(i + 1) for i in b.zero_rows())
        print(f"warning: pyramid (zero dual row {rows})", file=sys.stderr)
    a = dual_of(b)
    if b.is_homogeneous():
        a = standard_form(a)
    return _matrix_out(a.matrix)


def cmd_index(args):
    q = lattice_index(_load_matrix(args))
    return {"index": q}, str(q)


def cmd_reduce(args):
    from .matroid import reduce as reduce_config

    res = reduce_config(gale_side(_config(args)))
    obj, text = _matrix_out(res.config.matrix)
    obj["merged"] = [[i + 1 for i in cls] for cls in res.merged]
    obj["removed_splitting"] = [[i + 1 for i in cls] for cls in res.removed_splitting]
    obj["removed_zero"] = [i + 1 for i in res.removed_zero]
    return obj, text


def cmd_defect(args):
    from .defect import dual_variety_dim, is_dual_defect

    b = gale_side(_config(args))
    report = is_dual_defect(b)
    # a non-defect verdict carries a verified flag, so the dual is a
    # hypersurface; only a defect verdict needs ``dual_variety_dim``,
    # and once the verdict has accepted B only the size bound can refuse it
    dim = b.n - 2
    if report.defect:
        try:
            dim = dual_variety_dim(b)
        except SizeBound:
            dim = None
    obj = {
        "defect": report.defect,
        "witness": _one_based(report.witness),
        "dual_dim": dim,
        "method": report.method,
    }
    return obj, (
        f"defect={str(report.defect).lower()} method={report.method} "
        f"dual_dim={dim if dim is not None else 'unknown'}"
    )


def cmd_dualdim(args):
    from .defect import dual_variety_dim

    dim = dual_variety_dim(_config(args))
    return {"dual_dim": dim}, str(dim)


def cmd_decompose(args):
    from .defect import rho_bound

    rep = rho_bound(_config(args))
    obj = {
        "parts": [[i + 1 for i in p] for p in rep.parts],
        "ranks": list(rep.ranks),
        "rho": rep.rho,
        "m": rep.m,
        "sufficient_defect": rep.sufficient_defect,
    }
    return obj, (
        f"rho={rep.rho} ranks={list(rep.ranks)} "
        f"sufficient_defect={str(rep.sufficient_defect).lower()}"
    )


def cmd_discriminant(args):
    from .disc import discriminant
    from .poly import poly_to_json_dict

    result = discriminant(_config(args))
    obj = poly_to_json_dict(result.poly, result.names)
    if args.trace:
        obj["provenance"] = result.provenance
    return obj, result.poly.format(result.names)


def cmd_member(args):
    from .disc import membership

    point = _parse_point(args.point)
    return _verdict("member", membership(_config(args), point))


def cmd_cayley(args):
    try:
        lengths = [int(x) for x in args.lengths.split(",") if x.strip()]
    except ValueError as exc:
        raise ParseError(f"bad length list {args.lengths!r}") from exc
    if not lengths:
        raise ParseError("need at least one segment length")
    return _matrix_out(cayley([segment(p) for p in lengths]).matrix)


def cmd_check_specialization(args):
    from .disc import check_specialization

    return _verdict("holds", check_specialization(_config(args), args.j - 1))


def cmd_check_grouping(args):
    from .disc import check_restriction_grouping

    return _verdict("holds", check_restriction_grouping(_config(args), args.k - 1, args.l - 1))


# -- parser --------------------------------------------------------------

_INDEX = {"type": int, "required": True, "help": "1-based point index"}

# name, help, body, input and extra arguments of every subcommand.  The
# input "side" is --matrix/--file with --side, "matrix" is --matrix/--file
# alone, None is no matrix.
SUBCOMMANDS = (
    ("gale", "Gale dual of a point configuration", cmd_gale, "matrix", {}),
    ("dual", "point configuration dual to a vector configuration", cmd_dual, "matrix", {}),
    ("index", "gcd of the maximal minors of a dual matrix", cmd_index, "matrix", {}),
    ("reduce", "merge collinear classes, drop splitting lines", cmd_reduce, "side", {}),
    ("defect", "dual-defect classification with witness", cmd_defect, "side", {}),
    ("dualdim", "dimension of the dual variety", cmd_dualdim, "side", {}),
    ("decompose", "least zero-sum partition and rho", cmd_decompose, "side", {}),
    ("discriminant", "discriminant polynomial", cmd_discriminant, "side",
     {"--trace": {"action": "store_true", "help": "include the derivation trace"}}),
    ("member", "does a torus point lie on the discriminant", cmd_member, "side",
     {"--point": {"required": True,
                  "help": 'JSON list of coordinates, integers or "p/q" strings'}}),
    ("cayley", "Cayley configuration of segments", cmd_cayley, None,
     {"lengths": {"help": 'comma-separated segment lengths, e.g. "1,1,2"'}}),
    ("check-specialization",
     "does the off-line subdiscriminant divide the face restriction",
     cmd_check_specialization, "side", {"--j": _INDEX}),
    ("check-grouping",
     "equality of face restrictions for positively collinear dual vectors",
     cmd_check_grouping, "side", {"--k": _INDEX, "--l": _INDEX}),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discforge",
        description="Exact sparse discriminants of integer point configurations.",
    )
    parser.add_argument(
        "--format",
        choices=["json", "text"],
        default="json",
        help="output format; default json",
    )
    parser.add_argument(
        "--size-bound",
        type=int,
        help="largest n for the dimension walk and the support lattice "
        f"(also via {SIZE_BOUND_ENV})",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_, body, source, extra in SUBCOMMANDS:
        p = sub.add_parser(name, help=help_)
        if source is not None:
            grp = p.add_mutually_exclusive_group(required=True)
            grp.add_argument("--matrix", help="inline JSON matrix [[...],...]")
            grp.add_argument("--file", help="path to a JSON matrix file")
        if source == "side":
            p.add_argument(
                "--side",
                choices=["a", "b"],
                default="a",
                help="whether the matrix is the point side (a, d x n) or the "
                "dual side (b, n x m); default a",
            )
        for flag, kwargs in extra.items():
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=body)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    saved_bound = os.environ.get(SIZE_BOUND_ENV)
    try:
        if args.size_bound is not None:
            if args.size_bound < 0:
                raise ParseError(f"--size-bound must be non-negative, got {args.size_bound}")
            os.environ[SIZE_BOUND_ENV] = str(args.size_bound)
        # validated up front, so a malformed bound is refused by every
        # subcommand, also those that never enumerate supports
        size_bound()
        obj, text = args.func(args)
        print(text if args.format == "text" else json.dumps(obj))
        return 0
    except DiscforgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        # --size-bound holds for this call only, not for later library calls
        if saved_bound is None:
            os.environ.pop(SIZE_BOUND_ENV, None)
        else:
            os.environ[SIZE_BOUND_ENV] = saved_bound


if __name__ == "__main__":
    raise SystemExit(main())
