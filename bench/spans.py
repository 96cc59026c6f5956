"""Per-layer tracing from outside the program.

``Tracer.install`` rebinds each named public function of discforge, in
its defining module and in every discforge module that imported it, to
a wrapper that records a span: name, start, end, parent and op id.  A
span's self time is its duration minus that of its direct child spans.
Very hot leaves are aggregated (count plus self time) instead of being
stored span by span.  Spans stay in memory until the run writes them.
Span times are raw seconds, not calibrated like the end-to-end times.
"""

from __future__ import annotations

import importlib
import itertools
import sys
from time import perf_counter

# (module, attribute) of every timed public function; a dotted attribute
# is a method, rebound on its class.
TIMED = [
    ("lattice", "rational_nullspace"),
    ("lattice", "rank"),
    ("lattice", "row_hermite_transform"),
    ("lattice", "lattice_index"),
    ("poly", "resultant_u"),
    ("poly", "exact_quotient"),
    ("poly", "divides"),
    ("poly", "SparsePolynomial.evaluate"),
    ("poly", "SparsePolynomial.specialize"),
    ("poly", "SparsePolynomial.normalize"),
    ("config", "gale_dual"),
    ("config", "dual_of"),
    ("matroid", "closure"),
    ("matroid", "find_nonsplitting_flag"),
    ("matroid", "flats_of_rank"),
    ("matroid", "reduce"),
    ("defect", "is_dual_defect"),
    ("defect", "dual_variety_dim"),
    ("defect", "support_lattice"),
    ("disc", "horn_implicitize_rank2"),
    ("disc", "pullback"),
    ("disc", "glue_resultant"),
    ("disc", "discriminant"),
    ("disc", "membership"),
    ("disc", "check_specialization"),
    ("disc", "check_restriction_grouping"),
    ("cli", "main"),
]
# Counted only: construction and Horn-map samples are too hot to time.
COUNTED = [("lattice", "IntMatrix.__init__"), ("disc", "horn_eval")]
# Timed but aggregated, not stored as spans.
HOT = {
    "lattice.rank",
    "lattice.row_hermite_transform",
    "matroid.closure",
    "poly.exact_quotient",
    "poly.SparsePolynomial.evaluate",
    "poly.SparsePolynomial.specialize",
    "poly.SparsePolynomial.normalize",
}


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"discforge.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name, getattr(owner, name)


class Tracer:
    """Spans and per-name aggregates for one traced run."""

    def __init__(self) -> None:
        self.op_id = None
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.extra: dict[str, float] = {}
        self.distinct: dict[str, set] = {"matroid.closure": set(), "disc.discriminant": set()}
        self._stack: list[list] = []  # [child seconds, recorded span id]
        self._ids = itertools.count(1)
        self._undo: list[tuple] = []

    # -- wrappers ---------------------------------------------------------

    def _timed(self, name: str, fn, before=None, after=None):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        spans, ids, keep = self.spans, self._ids, name not in HOT
        calls.setdefault(name, 0)
        self_s.setdefault(name, 0.0)

        def wrapper(*args, **kwargs):
            if before is not None:
                args = before(args)
            parent = stack[-1][1] if stack else 0
            span = next(ids) if keep else parent
            frame = [0.0, span]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                if stack:
                    stack[-1][0] += t1 - t0
                calls[name] += 1
                self_s[name] += t1 - t0 - frame[0]
                if keep:
                    spans.append((span, parent, name, t0, t1, self.op_id))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _max(self, key: str, value) -> None:
        self.extra[key] = max(self.extra.get(key, 0), value)

    def _hooks(self, name: str):
        """Extra measurements taken at a boundary: (before, after)."""
        if name == "lattice.rational_nullspace":
            def before(args):
                rows = [list(r) for r in args[0]]
                self._max(name + ".max_cells", len(rows) * (len(rows[0]) if rows else 0))
                return (rows,) + args[1:]
            return before, None
        if name == "poly.resultant_u":
            def before(args):
                f, g = args[0], args[1]
                if not f.is_zero() and not g.is_zero():
                    self._max(name + ".sylvester_max", f.degree() + g.degree())
                return args
            return before, None
        if name == "matroid.closure":
            def before(args):
                self.distinct[name].add((args[0].matrix.data, frozenset(args[1])))
                return args
            return before, None
        if name == "disc.discriminant":
            def before(args):
                cfg = args[0]
                self.distinct[name].add((type(cfg).__name__, cfg.matrix.data, cfg.labels))
                return args

            def after(args, result):
                bits = max((abs(c).bit_length() for c in result.poly.terms.values()), default=0)
                self._max("poly.coeff_bits_max", bits)
            return before, after
        if name == "disc.horn_implicitize_rank2":
            def after(args, result):
                self._max("disc.curve_degree_max", result.total_degree())
            return None, after
        return None, None

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        wrapped = {}
        for module, attr in TIMED:
            owner, name, orig = _resolve(module, attr)
            key = f"{module}.{attr}"
            wrapped[id(orig)] = (owner, name, orig, self._timed(key, orig, *self._hooks(key)))
        for module, attr in COUNTED:
            owner, name, orig = _resolve(module, attr)
            key = f"{module}.{attr.removesuffix('.__init__')}"
            wrapped[id(orig)] = (owner, name, orig, self._counted(key, orig))
        for owner, name, orig, wrapper in wrapped.values():
            self._rebind(owner, name, orig, wrapper)
        # functions imported by name into other discforge modules
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("discforge"):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[2] is value and (mod, attr) != (hit[0], hit[1]):
                    self._rebind(mod, attr, value, hit[3])

    def _rebind(self, owner, name: str, orig, wrapper) -> None:
        setattr(owner, name, wrapper)
        self._undo.append((owner, name, orig))

    def remove(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- results ---------------------------------------------------------------

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer metrics."""
        out: dict[str, float] = {}
        for name, n in self.calls.items():
            out[f"{name}.calls"] = n / passes
        for name, s in self.self_s.items():
            out[f"{name}.self_s"] = s / passes
        for name, seen in self.distinct.items():
            calls = self.calls.get(name, 0)
            out[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 0.0
        for key in (
            "lattice.rational_nullspace.max_cells",
            "poly.resultant_u.sylvester_max",
            "poly.coeff_bits_max",
            "disc.curve_degree_max",
        ):
            out[key] = self.extra.get(key, 0)
        return out

    def span_records(self) -> list[dict]:
        return [
            {"id": s, "parent": p, "name": n, "start": t0, "end": t1, "op": op}
            for s, p, n, t0, t1, op in self.spans
        ]
