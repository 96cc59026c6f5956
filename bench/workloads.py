"""Seeded workload generators.

Every workload is a list of plain-data ops (JSON-compatible dicts), made
from the seed alone with ``random.Random`` and a little exact integer
arithmetic.  Nothing here imports discforge, so the program only ever
sees the generated inputs, and no input is chosen by running it.

An op is ``{"id", "kind", "args", "expect"}``.  ``kind`` names the
public call, ``args`` its input, ``expect`` what the checker needs: a
golden name, seeded Horn-Kapranov points, or an expected value.
"""

from __future__ import annotations

import json
import random
from math import gcd

from exact import fmt, hk_point, other_side

# Fixed inputs shared with the acceptance suite.
C1_ROWS = [[0, 1], [-3, 1], [2, -3], [-1, 1], [2, 0]]
C1_LABELS = ["x1", "x2", "x3", "x4", "y+"]
SEVEN_ROWS = [[0, 1], [-3, 1], [2, -3], [-1, 1], [1, 0], [3, 0], [-2, 0]]
CUBIC_A = [[1, 1, 1, 1], [0, 1, 2, 3]]
QUADRATIC_A = [[1, 1, 1], [0, 1, 2]]
# Rank-2 duals for the checks workload: a small glue route with a
# positively collinear pair, and an implicitize route with a degree-5
# curve whose ops, several times dearer than the rest, hold the 90th
# percentile.  IMPL_SMALL has no positively collinear pair; the CLI asks
# it for one.
GLUE_SMALL = [[1, 0], [1, 0], [0, 1], [-1, 1], [-1, -2]]
IMPL_MID = [[1, 0], [-2, 2], [2, 1], [-1, -2], [0, -1]]
IMPL_SMALL = [[2, 1], [-1, 1], [-1, -1], [0, -1]]

DIROCCO_SHAPES = [
    (1, 1, 1),
    (1, 1, 2),
    (1, 2, 2),
    (1, 1, 3),
    (1, 1, 1, 1),
    (1, 1, 1, 2),
    (1, 1, 1, 1, 1),
]
# Exhaustive flag search ends in a defect verdict on these.
CAYLEY_LADDER = [(2, 2, 2), (1, 2, 2, 2), (2, 2, 3)]

# rank2 random slots: (route, n, Horn-curve degree of the implicitized
# part).  Each slot fixes the input properties that set its cost, so a
# pass costs about the same for every seed.  Degrees are spread so that
# the median op sits inside a dense group of degree-4 slots, and so that
# C1 and the seven-point example stay above the 90th percentile.  The
# last two slots hold inputs the seed code refuses with a typed error:
# a glue split whose inner dual has index > 1, and a collinear class of
# content 2.
RANK2_SLOTS = [
    ("implicitize", 4, 4),
    ("implicitize", 5, 4),
    ("implicitize", 5, 4),
    ("implicitize", 6, 5),
    ("implicitize", 6, 6),
    ("glue-extended", 5, 4),
    ("glue-extended", 6, 4),
    ("glue-splitting", 5, 3),
    ("glue-splitting", 5, 4),
    ("glue-splitting", 6, 4),
    ("inner-index", 5, None),
    ("class-content", 5, 3),
]


# -- exact helpers on integer 2-vectors and matrices -------------------


def direction(v) -> tuple[int, ...]:
    """Primitive vector on the line of v, first nonzero entry positive."""
    g = 0
    for x in v:
        g = gcd(g, x)
    w = tuple(x // g for x in v)
    return w if w > (0,) * len(w) else tuple(-x for x in w)


def minors_gcd(rows) -> int:
    """gcd of the 2x2 minors of an n x 2 matrix: the index of its
    column lattice in its saturation (0 when rank < 2)."""
    g = 0
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            g = gcd(g, rows[i][0] * rows[j][1] - rows[i][1] * rows[j][0])
    return g


def curve_degree(rows) -> int:
    """Degree of the Horn curve of an irreducible rank-2 dual.

    Counts the poles of a generic linear form in z1 = prod l_i^b_i1 and
    z2 = prod l_i^b_i2: a row contributes max(0, -b_i1, -b_i2).  It is
    bounded by the sum of the positive entries of the two columns.
    """
    return sum(max(0, -a, -b) for a, b in rows)


def hk_points(rng: random.Random, side: str, matrix) -> list:
    """Two seeded Horn-Kapranov points, as the checker reads them."""
    return [fmt(hk_point(rng, side, matrix)) for _ in range(2)]


# -- rank2 ---------------------------------------------------------------


def _balanced_rows(rng: random.Random, n: int, bound: int = 2):
    rows = [(rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(n - 1)]
    rows.append((-sum(r[0] for r in rows), -sum(r[1] for r in rows)))
    return rows


def _irreducible(rows) -> bool:
    return all(any(r) for r in rows) and len({direction(r) for r in rows}) == len(rows)


def _direction_draw(rng):
    while True:
        v = (rng.randint(-3, 3), rng.randint(-3, 3))
        if any(v):
            return direction(v)


def _draw_irreducible(rng, n: int, degree=None):
    while True:
        rows = _balanced_rows(rng, n)
        if not _irreducible(rows) or minors_gcd(rows) != 1:
            continue
        if degree is None or curve_degree(rows) == degree:
            return [list(r) for r in rows]


def _draw_glue(rng, route: str, n: int, degree):
    """Rows with exactly one collinear pair; the pair is shuffled in.

    For the extended route the inner dual is the complement plus the
    pair sum; for the splitting route (pair b, -b) it is the complement.
    """
    while True:
        w = _direction_draw(rng)
        if route == "glue-splitting":
            betas = (1, -1)
        elif route == "class-content":
            betas = rng.choice([(2, -4), (-2, 4), (4, -2), (-4, 2)])
        else:
            betas = rng.choice([(1, 1), (1, 2), (2, 1), (2, -1), (-1, 2), (3, -2)])
        pair = [tuple(b * x for x in w) for b in betas]
        sigma = tuple(pair[0][k] + pair[1][k] for k in range(2))
        rest = _balanced_rows(rng, n - 2)
        # shift the balance so that rest + pair is homogeneous
        rest[-1] = (rest[-1][0] - sigma[0], rest[-1][1] - sigma[1])
        inner = rest + ([sigma] if any(sigma) else [])
        if not _irreducible(rest + [w]) or not _irreducible(inner):
            continue
        rows = rest + pair
        if minors_gcd(rows) != 1:
            continue
        inner_index = minors_gcd(inner)
        if route == "inner-index":
            if inner_index == 1:
                continue
        elif inner_index != 1 or curve_degree(inner) != degree:
            continue
        order = list(range(n))
        rng.shuffle(order)
        return [list(rows[i]) for i in order]


def rank2_ops(seed: int) -> list[dict]:
    rng = random.Random(f"rank2-{seed}")
    ops = [
        _op("c1", "disc", {"side": "b", "matrix": C1_ROWS, "labels": C1_LABELS},
            {"golden": "c1_text", "hk": hk_points(rng, "b", C1_ROWS)}),
        _op("seven-point", "disc", {"side": "b", "matrix": SEVEN_ROWS},
            {"golden": "seven_point", "hk": hk_points(rng, "b", SEVEN_ROWS)}),
        _op("twisted-cubic", "disc", {"side": "a", "matrix": CUBIC_A},
            {"golden": "cubic_text", "hk": hk_points(rng, "a", CUBIC_A)}),
    ]
    for route, n, degree in RANK2_SLOTS:
        if route == "implicitize":
            rows = _draw_irreducible(rng, n, degree)
        else:
            rows = _draw_glue(rng, route, n, degree)
        ops.append(_op(f"{route}-n{n}", "disc", {"side": "b", "matrix": rows},
                       {"golden": None, "hk": hk_points(rng, "b", rows)}))
    return _number("rank2", ops)


# -- defect --------------------------------------------------------------


def cayley_segments(lengths) -> list[list[int]]:
    """Point matrix of the Cayley configuration of segments [0, l_i]."""
    k = len(lengths)
    cols = []
    for i, p in enumerate(lengths):
        for x in range(p + 1):
            cols.append([1 if t == i else 0 for t in range(k)] + [x])
    return [list(r) for r in zip(*cols)]


def _collinear(p, q, r) -> bool:
    return (q[0] - p[0]) * (r[1] - p[1]) == (q[1] - p[1]) * (r[0] - p[0])


def _on_two_parallel_lines(pts) -> bool:
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            dx, dy = pts[j][0] - pts[i][0], pts[j][1] - pts[i][1]
            if len({dy * x - dx * y for x, y in pts}) <= 2:
                return True
    return False


def _draw_planar(rng, n: int):
    """n distinct points of [0,4]^2, homogenized; not a pyramid (no n-1
    collinear) and not on two parallel lines."""
    while True:
        pts = sorted({(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(n)})
        if len(pts) != n or _on_two_parallel_lines(pts):
            continue
        if any(
            sum(_collinear(pts[i], pts[j], q) for q in pts) >= n - 1
            for i in range(n)
            for j in range(i + 1, n)
        ):
            continue
        return [[1] * n, [p[0] for p in pts], [p[1] for p in pts]]


def defect_ops(seed: int) -> list[dict]:
    rng = random.Random(f"defect-{seed}")
    ops = []
    for shape in DIROCCO_SHAPES:
        a = cayley_segments(shape)
        name = "cayley-" + "-".join(map(str, shape))
        ops.append(_op(name, "defect", {"matrix": a}, {"defect": True, "pair": name}))
        ops.append(_op(name, "dualdim", {"matrix": a}, {"pair": name}))
    for shape in CAYLEY_LADDER:
        a = cayley_segments(shape)
        name = "cayley-" + "-".join(map(str, shape))
        ops.append(_op(name, "defect", {"matrix": a}, {"pair": name}))
        ops.append(_op(name, "dualdim", {"matrix": a}, {"pair": name}))
    # random planar configurations are non-defect; the search exits on
    # its first flag.  Support chains grow fast with n, so dual_variety_dim
    # runs on the n = 8 one only.  The n = 10 ones cost about as much as
    # the small fixtures' dual_variety_dim, and the median op falls among
    # them.
    for k, n in enumerate([8, 9, 10, 10, 10, 10, 10]):
        a = _draw_planar(rng, n)
        name = f"planar-n{n}-{k}"
        ops.append(_op(name, "defect", {"matrix": a}, {"defect": False, "pair": name}))
        if n == 8:
            ops.append(_op(name, "dualdim", {"matrix": a}, {"pair": name}))
    return _number("defect", ops)


# -- checks --------------------------------------------------------------


def eligible_specializations(rows) -> list[int]:
    """Rows j whose collinear class has a nonzero sum lying on b_j's side."""
    out = []
    for j, r in enumerate(rows):
        if not any(r):
            continue
        cls = [s for s in rows if any(s) and direction(s) == direction(r)]
        sigma = [sum(s[k] for s in cls) for k in range(len(r))]
        if sum(a * b for a, b in zip(r, sigma)) > 0:
            out.append(j)
    return out


def positive_pairs(rows) -> list[tuple[int, int]]:
    return [
        (k, l)
        for k in range(len(rows))
        for l in range(k + 1, len(rows))
        if any(rows[k])
        and direction(rows[k]) == direction(rows[l])
        and sum(a * b for a, b in zip(rows[k], rows[l])) > 0
    ]


def member_ops(rng, label: str, cfg: dict, golden: str, count: int) -> list[dict]:
    """Membership at seeded Horn-Kapranov points (on the discriminant) and
    at the same points with one coordinate scaled, whose expected answer
    comes from the golden polynomial."""
    ops = []
    for _ in range(count):
        point = hk_point(rng, cfg["side"], cfg["matrix"])
        ops.append(_op(label, "member", dict(cfg, point=fmt(point)), {"value": True}))
        off = list(point)
        off[rng.randrange(len(off))] *= rng.choice([2, 3, 5, -1, -2])
        ops.append(_op(label, "member", dict(cfg, point=fmt(off)), {"golden": golden}))
    return ops


def checks_ops(seed: int) -> list[dict]:
    rng = random.Random(f"checks-{seed}")
    # eligibility and positive pairs do not depend on the basis of the
    # dual, so any Gale dual of the cubic will do
    configs = [
        ("twisted-cubic", {"side": "a", "matrix": CUBIC_A}, other_side("a", CUBIC_A)[1], "cubic", 24),
        ("glue-small", {"side": "b", "matrix": GLUE_SMALL}, GLUE_SMALL, "glue_small", 20),
        ("impl-mid", {"side": "b", "matrix": IMPL_MID}, IMPL_MID, "impl_mid", 6),
    ]
    ops = []
    for name, cfg, rows, golden, count in configs:
        ops += member_ops(rng, name, cfg, golden, count)
        for j in eligible_specializations(rows):
            ops.append(_op(name, "spec", dict(cfg, j=j), {"value": True}))
        for k, l in positive_pairs(rows):
            ops.append(_op(name, "group", dict(cfg, k=k, l=l), {"value": True}))
    seven = {"side": "b", "matrix": SEVEN_ROWS}
    for j in (4, 5):
        ops.append(_op("seven-point", "spec", dict(seven, j=j), {"value": True}))
    ops.append(_op("seven-point", "group", dict(seven, k=4, l=5), {"value": True}))
    rng.shuffle(ops)
    return _number("checks", ops)


# -- cli -----------------------------------------------------------------


def _mat(rows) -> str:
    return json.dumps(rows, separators=(",", ":"))


def _codim1_vector(rng, n: int) -> list[int]:
    while True:
        b = [rng.choice([x for x in range(-4, 5) if x]) for _ in range(n - 1)]
        last = -sum(b)
        if last == 0 or abs(last) > 6:
            continue
        b.append(last)
        g = 0
        for x in b:
            g = gcd(g, x)
        if g == 1:
            return b


def _line_config(rng, n: int) -> list[list[int]]:
    pts = sorted(rng.sample(range(0, 7), n))
    return [[1] * n, pts]


def cli_ops(seed: int) -> list[dict]:
    """About 110 one-process CLI calls; expected exit codes are fixed by
    the documented contract (0 ok, 2 malformed, 3 refused, 4 unsupported)."""
    rng = random.Random(f"cli-{seed}")
    ops = []

    def add(label, argv, check, exits=(0,), **expect):
        ops.append(_op(label, "cli", {"argv": argv}, dict(expect, check=check, exit=list(exits))))

    for _ in range(8):
        a = _line_config(rng, rng.choice([4, 5]))
        add("gale", ["gale", "--matrix", _mat(a)], "gale", a=a)
    for _ in range(8):
        rows = _draw_irreducible(rng, rng.choice([4, 5]))
        add("dual", ["dual", "--matrix", _mat(rows)], "dual", b=rows)
    for _ in range(8):
        rows = [[rng.randint(-3, 3), rng.randint(-3, 3)] for _ in range(rng.choice([3, 4]))]
        if minors_gcd(rows) == 0:
            rows.append([1, 0] if rows[0][1] else [0, 1])
        add("index", ["index", "--matrix", _mat(rows)], "index", b=rows, index=minors_gcd(rows))
    for _ in range(8):
        # a class of two or three collinear rows, splitting when k = -1
        w = _direction_draw(rng)
        k = rng.choice([1, 2, -1])
        line = [list(w), [k * w[0], k * w[1]]]
        if k != -1:
            line.append([-(1 + k) * w[0], -(1 + k) * w[1]])
        rows = line + [list(r) for r in _balanced_rows(rng, 3)]
        rng.shuffle(rows)
        add("reduce", ["reduce", "--side", "b", "--matrix", _mat(rows)], "reduce", b=rows)
    for _ in range(6):
        lengths = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
        add("cayley", ["cayley", ",".join(map(str, lengths))], "cayley", lengths=lengths)
    for shape in DIROCCO_SHAPES + [(2, 2, 2)]:
        a = cayley_segments(shape)
        add("defect-" + "-".join(map(str, shape)), ["defect", "--matrix", _mat(a)],
            "defect", n=len(a[0]))
    for k in range(20):
        rows = [[x] for x in _codim1_vector(rng, 3 + k % 3)]
        add("codim1", ["discriminant", "--side", "b", "--matrix", _mat(rows)], "disc",
            hk=hk_points(rng, "b", rows))
    add("quadratic-text", ["--format", "text", "discriminant", "--matrix", _mat(QUADRATIC_A)],
        "text", golden="quadratic_text")
    add("cubic-text", ["--format", "text", "discriminant", "--matrix", _mat(CUBIC_A)],
        "text", golden="cubic_text")
    add("quadratic", ["discriminant", "--matrix", _mat(QUADRATIC_A)], "disc",
        hk=hk_points(rng, "a", QUADRATIC_A))
    add("cubic", ["discriminant", "--matrix", _mat(CUBIC_A)], "disc",
        hk=hk_points(rng, "a", CUBIC_A))
    cubic = {"side": "a", "matrix": CUBIC_A}
    for op in member_ops(rng, "member-cubic", cubic, "cubic", 10):
        point = json.dumps(op["args"]["point"])
        add("member-cubic", ["member", "--matrix", _mat(CUBIC_A), "--point", point],
            "member", **op["expect"])
    malformed = [
        ["gale", "--matrix", "[[1,1,1],[0,1"],
        ["gale", "--matrix", "[[1,1,1],[0,1.5,2]]"],
        ["gale", "--matrix", "[[1,1,1],[0,1]]"],
        ["gale", "--matrix", '{"rows": [[1]]}'],
        ["discriminant", "--matrix", '[[1,1,"x"]]'],
        ["frobnicate", "--matrix", "[[1]]"],
        ["discriminant"],
        ["member", "--matrix", _mat(CUBIC_A), "--point", "[1,2,0.5,1]"],
        ["member", "--matrix", _mat(CUBIC_A), "--point", '["1/0",1,1,1]'],
        ["cayley", "1,x,2"],
        ["cayley", ","],
        ["index", "--matrix", "[1,2,3]"],
    ]
    for argv in malformed:
        add("malformed", argv, "error", exits=(2,))
    refused = [
        (["discriminant", "--side", "b", "--matrix", "[[1,0],[0,1],[1,1]]"], 3),
        (["index", "--matrix", "[[1,2],[2,4],[3,6]]"], 3),
        (["gale", "--matrix", "[[1,1,1],[0,1,1]]"], 3),
        (["gale", "--matrix", "[[1,1,1],[2,2,2]]"], 3),
        (["dualdim", "--matrix", _mat(cayley_segments((2, 2, 3, 3)))], 3),
        (["check-grouping", "--side", "b", "--matrix", _mat(IMPL_SMALL), "--k", "1", "--l", "2"], 3),
        (["discriminant", "--side", "b", "--matrix",
          _mat([[1, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 1, 0], [0, -2, -1]])], 4),
        (["discriminant", "--side", "b", "--matrix", "[[2,0],[0,2],[-2,-2]]"], 4),
    ]
    for argv, code in refused:
        add("refused", argv, "error", exits=(code,))
    return _number("cli", ops)


# -- known-defect probes -------------------------------------------------

# CLI inputs the documented contract rejects with exit code 2 but the
# seed code accepts.  They fail on the seed, so they are run and reported
# beside the scored ops rather than inside a workload.
PROBES = [
    {"id": "probe/empty-matrix", "argv": ["discriminant", "--matrix", "[]"], "exit": [2]},
    {"id": "probe/empty-row", "argv": ["discriminant", "--matrix", "[[]]"], "exit": [2]},
    {"id": "probe/negative-size-bound",
     "argv": ["--size-bound", "-1", "gale", "--matrix", "[[1,1,1],[0,1,2]]"], "exit": [2]},
]


# -- common ---------------------------------------------------------------


def _op(label: str, kind: str, args: dict, expect: dict) -> dict:
    return {"label": label, "kind": kind, "args": args, "expect": expect}


def _number(workload: str, ops: list[dict]) -> list[dict]:
    for i, op in enumerate(ops):
        op["id"] = f"{workload}/{i:03d}/{op.pop('label')}/{op['kind']}"
    return ops


GENERATORS = {
    "rank2": rank2_ops,
    "defect": defect_ops,
    "checks": checks_ops,
    "cli": cli_ops,
}
WORKLOADS = tuple(GENERATORS)


def generate(workload: str, seed: int) -> list[dict]:
    return GENERATORS[workload](seed)
