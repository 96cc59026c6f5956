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
    if getattr(args, "matrix", None) is not None:
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


def _emit(args, obj, text: str) -> None:
    if args.format == "text":
        print(text)
    else:
        print(json.dumps(obj))


def _matrix_text(m: IntMatrix) -> str:
    return "\n".join(" ".join(str(x) for x in row) for row in m.data)


# -- subcommand bodies ---------------------------------------------------


def cmd_gale(args) -> int:
    a = PointConfiguration(_load_matrix(args))
    b = gale_dual(a)
    _emit(args, {"matrix": b.matrix.to_lists()}, _matrix_text(b.matrix))
    return 0


def cmd_dual(args) -> int:
    b = GaleConfiguration(_load_matrix(args))
    if b.zero_rows():
        rows = ", ".join(str(i + 1) for i in b.zero_rows())
        print(f"warning: pyramid (zero dual row {rows})", file=sys.stderr)
    a = dual_of(b)
    if b.is_homogeneous():
        a = standard_form(a)
    _emit(args, {"matrix": a.matrix.to_lists()}, _matrix_text(a.matrix))
    return 0


def cmd_index(args) -> int:
    q = lattice_index(_load_matrix(args))
    _emit(args, {"index": q}, str(q))
    return 0


def cmd_reduce(args) -> int:
    from .matroid import reduce as reduce_config

    res = reduce_config(gale_side(_config(args)))
    obj = {
        "matrix": res.config.matrix.to_lists(),
        "merged": [[i + 1 for i in cls] for cls in res.merged],
        "removed_splitting": [[i + 1 for i in cls] for cls in res.removed_splitting],
        "removed_zero": [i + 1 for i in res.removed_zero],
    }
    _emit(args, obj, _matrix_text(res.config.matrix))
    return 0


def cmd_defect(args) -> int:
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
    _emit(
        args,
        obj,
        f"defect={str(report.defect).lower()} method={report.method} "
        f"dual_dim={dim if dim is not None else 'unknown'}",
    )
    return 0


def cmd_dualdim(args) -> int:
    from .defect import dual_variety_dim

    dim = dual_variety_dim(_config(args))
    _emit(args, {"dual_dim": dim}, str(dim))
    return 0


def cmd_decompose(args) -> int:
    from .defect import rho_bound

    rep = rho_bound(_config(args))
    obj = {
        "parts": [[i + 1 for i in p] for p in rep.parts],
        "ranks": list(rep.ranks),
        "rho": rep.rho,
        "m": rep.m,
        "sufficient_defect": rep.sufficient_defect,
    }
    _emit(
        args,
        obj,
        f"rho={rep.rho} ranks={list(rep.ranks)} "
        f"sufficient_defect={str(rep.sufficient_defect).lower()}",
    )
    return 0


def cmd_discriminant(args) -> int:
    from .disc import discriminant
    from .poly import poly_to_json_dict

    result = discriminant(_config(args))
    obj = poly_to_json_dict(result.poly, result.names)
    if args.trace:
        obj["provenance"] = result.provenance
    _emit(args, obj, result.poly.format(result.names))
    return 0


def cmd_member(args) -> int:
    from .disc import membership

    point = _parse_point(args.point)
    verdict = membership(_config(args), point)
    _emit(args, {"member": verdict}, str(verdict).lower())
    return 0


def cmd_cayley(args) -> int:
    try:
        lengths = [int(x) for x in args.lengths.split(",") if x.strip()]
    except ValueError as exc:
        raise ParseError(f"bad length list {args.lengths!r}") from exc
    if not lengths:
        raise ParseError("need at least one segment length")
    cfg = cayley([segment(p) for p in lengths])
    _emit(args, {"matrix": cfg.matrix.to_lists()}, _matrix_text(cfg.matrix))
    return 0


def cmd_check_specialization(args) -> int:
    from .disc import check_specialization

    holds = check_specialization(_config(args), args.j - 1)
    _emit(args, {"holds": holds}, str(holds).lower())
    return 0


def cmd_check_grouping(args) -> int:
    from .disc import check_restriction_grouping

    holds = check_restriction_grouping(_config(args), args.k - 1, args.l - 1)
    _emit(args, {"holds": holds}, str(holds).lower())
    return 0


# -- parser --------------------------------------------------------------


def _add_matrix_opts(p: argparse.ArgumentParser) -> None:
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--matrix", help="inline JSON matrix [[...],...]")
    grp.add_argument("--file", help="path to a JSON matrix file")


def _add_side_opt(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--side",
        choices=["a", "b"],
        default="a",
        help="whether the matrix is the point side (a, d x n) or the "
        "dual side (b, n x m); default a",
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

    p = sub.add_parser("gale", help="Gale dual of a point configuration")
    _add_matrix_opts(p)
    p.set_defaults(func=cmd_gale)

    p = sub.add_parser("dual", help="point configuration dual to a vector configuration")
    _add_matrix_opts(p)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("index", help="gcd of the maximal minors of a dual matrix")
    _add_matrix_opts(p)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("reduce", help="merge collinear classes, drop splitting lines")
    _add_matrix_opts(p)
    _add_side_opt(p)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("defect", help="dual-defect classification with witness")
    _add_matrix_opts(p)
    _add_side_opt(p)
    p.set_defaults(func=cmd_defect)

    p = sub.add_parser("dualdim", help="dimension of the dual variety")
    _add_matrix_opts(p)
    _add_side_opt(p)
    p.set_defaults(func=cmd_dualdim)

    p = sub.add_parser("decompose", help="least zero-sum partition and rho")
    _add_matrix_opts(p)
    _add_side_opt(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("discriminant", help="discriminant polynomial")
    _add_matrix_opts(p)
    _add_side_opt(p)
    p.add_argument("--trace", action="store_true", help="include the derivation trace")
    p.set_defaults(func=cmd_discriminant)

    p = sub.add_parser("member", help="does a torus point lie on the discriminant")
    _add_matrix_opts(p)
    _add_side_opt(p)
    p.add_argument(
        "--point",
        required=True,
        help='JSON list of coordinates, integers or "p/q" strings',
    )
    p.set_defaults(func=cmd_member)

    p = sub.add_parser("cayley", help="Cayley configuration of segments")
    p.add_argument("lengths", help='comma-separated segment lengths, e.g. "1,1,2"')
    p.set_defaults(func=cmd_cayley)

    p = sub.add_parser(
        "check-specialization",
        help="does the off-line subdiscriminant divide the face restriction",
    )
    _add_matrix_opts(p)
    _add_side_opt(p)
    p.add_argument("--j", type=int, required=True, help="1-based point index")
    p.set_defaults(func=cmd_check_specialization)

    p = sub.add_parser(
        "check-grouping",
        help="equality of face restrictions for positively collinear dual vectors",
    )
    _add_matrix_opts(p)
    _add_side_opt(p)
    p.add_argument("--k", type=int, required=True, help="1-based point index")
    p.add_argument("--l", type=int, required=True, help="1-based point index")
    p.set_defaults(func=cmd_check_grouping)

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
        return args.func(args)
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
