"""Dual-defect classification and dual variety dimension.

The classifier decides whether a configuration's dual variety fails to be
a hypersurface: by structural tests (a degenerate reduction, complementary
planes in codimension 4, and from codimension 5 on rho <= m - 2), else by
one search for a non-splitting flag of length m - 1, whose existence is
equivalent to the dual variety having full dimension n - 2.  The dimension
itself is maximized over complete flags of flats of the Gale dual, unless
a Jacobian rank below and the least rho above meet.
"""

from __future__ import annotations

from math import lcm
from operator import add, mul
from typing import NamedTuple

from .config import (
    SIZE_BOUND_ENV,
    GaleConfiguration,
    PointConfiguration,
    cayley,
    gale_side,
    segment,
    size_bound,
)
from .errors import (
    DegenerateDual,
    DiscforgeError,
    NotHomogeneous,
    PyramidInput,
    SizeBound,
)
from .lattice import bareiss, rational_nullspace
from .matroid import (
    closure,
    find_nonsplitting_flag,
    flag_walk,
    flats_of_rank,
    is_nonsplitting_flag,
    reduce,
    walk_covers,
)


def _check_size(b: GaleConfiguration) -> None:
    bound = size_bound()
    if b.n > bound:
        raise SizeBound(
            f"support enumeration limited to n <= {bound} "
            f"(override via {SIZE_BOUND_ENV})"
        )


class DefectReport(NamedTuple):
    defect: bool
    method: str
    witness: dict


def _validate(cfg) -> GaleConfiguration:
    """The Gale side B of either side, if homogeneous (ker B^T is the row
    span of A), no pyramid (n = d leaves B no columns) and of rank m."""
    b = gale_side(cfg)
    if not b.is_homogeneous():
        raise NotHomogeneous("dual rows must sum to zero")
    if b.m == 0 or b.zero_rows():
        raise PyramidInput("zero dual vector; configuration is a pyramid")
    if b.rank < b.m:
        raise DegenerateDual("dual vectors must span the full codimension")
    return b


def _complementary_planes(red: GaleConfiguration):
    """Partition of a reduced rank-4 configuration into the first rank-2
    flat, in index order, whose complement has rank 2, and that
    complement; or None."""
    for fl in flats_of_rank(red, 2):
        rest = tuple(t for t in range(red.n) if t not in fl.indices)
        if bareiss([red.row(t) for t in rest])[0] == 2:
            return fl.indices, rest
    return None


def is_dual_defect(cfg) -> DefectReport:
    """Classify a homogeneous point or vector configuration as dual
    defect or not.

    The returned witness is a verified non-splitting flag of length m - 1
    for the non-defect verdict, and a structural certificate (degenerate
    reduction, complementary planes, or no flag of length m - 1)
    otherwise.  From m = 5 on, rho <= m - 2 (``rho_bound``) proves that
    no such flag exists, so that verdict keeps the search's method name
    "flag-search"; else B is searched once.
    """
    b = _validate(cfg)
    m = b.m
    if m == 1:
        return DefectReport(
            defect=False, method="codim-one", witness={"kind": "flag", "flats": []}
        )
    red = reduce(b)
    if red.config.rank < m:
        return DefectReport(
            defect=True,
            method="degenerate",
            witness={
                "kind": "degenerate",
                "reduced_rank": red.config.rank,
                "rank": m,
                "reduced_rows": red.config.matrix.to_lists(),
            },
        )
    if m == 4:
        planes = _complementary_planes(red.config)
        if planes is not None:
            orig = tuple(
                tuple(sorted(i for t in part for i in red.merged[t]))
                for part in planes
            )
            return DefectReport(
                defect=True,
                method="codim-4-planes",
                witness={
                    "kind": "complementary-planes",
                    "parts": [list(p) for p in orig],
                },
            )
    # rho <= m - 2 bounds the dual dimension by n - 3 (``dual_variety_dim``)
    parts = None
    if m >= 5:
        parts = _zero_sum_parts(rational_nullspace(zip(*b.rows())), b.n)
    if parts is not None and _least_rho(parts)[(1 << b.n) - 1] <= m - 2:
        flag = None
    else:
        flag = find_nonsplitting_flag(b, m - 1)
    if flag is None:
        if m <= 4:
            raise DiscforgeError(
                f"non-degenerate configuration of codimension {m} must carry a flag"
            )
        return DefectReport(
            defect=True,
            method="flag-search",
            witness={"kind": "no-nonsplitting-flag", "length": m - 1},
        )
    if not is_nonsplitting_flag(b, flag):
        raise DiscforgeError("flag search returned an invalid witness")
    return DefectReport(
        defect=False,
        method=f"codim-{m}" if m <= 4 else "flag-search",
        witness={"kind": "flag", "flats": [list(fl.indices) for fl in flag]},
    )


def is_dual_defect_exhaustive(cfg) -> bool:
    """Pure flag search, bypassing all structural fast paths.

    Used to cross-check the classifier; m = 1 has the empty flag and is
    never defect.
    """
    b = _validate(cfg)
    return find_nonsplitting_flag(b, b.m - 1) is None


# -- support lattice and dual dimension ----------------------------------


class SupportLattice(NamedTuple):
    """Poset of supports of dual kernel vectors, top included.

    ``height`` maps each element to m - (flat rank of its complement), so
    minimal supports have height 1 and the full support has height m.
    """

    n: int
    m: int
    elements: tuple[frozenset, ...]
    height: dict
    covers: dict


def support_lattice(cfg) -> SupportLattice:
    """All supports of kernel vectors of a point configuration, given on
    either side.

    Supports are exactly the complements of flats of the dual row matroid
    of rank below m, which keeps the poset graded.  The flats are walked
    level by level through ``walk_covers`` with one memo, and each cover
    G < F of flats is the cover edge from the support of F to that of G.
    """
    b = gale_side(cfg)
    if b.rank < b.m:
        raise DegenerateDual("dual vectors must span the full codimension")
    _check_size(b)
    m = b.m
    full = frozenset(range(b.n))
    height: dict[frozenset, int] = {}
    above: dict[frozenset, list[frozenset]] = {}
    level = [closure(b, ())]
    memo: dict = {}
    for h in range(m, 0, -1):
        upper = {}
        for fl in level:
            s = full.difference(fl.indices)
            height[s] = h
            if h == 1:
                continue
            for cover in walk_covers(b, memo, fl):
                upper[cover.indices] = cover
                above.setdefault(full.difference(cover.indices), []).append(s)
        level = upper.values()
    elements = sorted(height, key=lambda s: (len(s), sorted(s)))
    order = {e: i for i, e in enumerate(elements)}
    covers = {e: sorted(above.get(e, ()), key=order.get) for e in elements}
    return SupportLattice(
        n=b.n, m=m, elements=tuple(elements), height=height, covers=covers
    )


# Caps of the zero-sum part search: parts are searched over 2^d patterns
# only for d = n - m up to MAX_PART_BITS, and partitions into them, one
# state per part, only up to MAX_PARTS parts.  Past either cap
# ``dual_variety_dim`` walks and ``rho_bound`` raises ``SizeBound``.
MAX_PART_BITS = 12
MAX_PARTS = 256


def _lambda0(m: int) -> list[int]:
    """The fixed integer point of the lower bound: entries up to 5 * 10^5
    in size, read off a multiplicative congruential generator, so that
    they satisfy no small integer relation a structured B is likely to
    share (a row of B orthogonal to lam0 can lower the rank)."""
    return [pow(48271, j, 2**31 - 1) % 1_000_001 - 500_000 for j in range(1, m + 1)]


def _jacobian_rank(b: GaleConfiguration, kernel) -> int:
    """rank M(lam0) for M(lam) = [B | diag(B lam) K^T], K the rows of
    ``kernel``, read off the d x d matrix K D K^T, d = n - m.

    Let D = diag(B lam0) and T = (B^T; K).  T is invertible over Q, since
    col B and ker B^T, the row span of K, are complements in Q^n.  Then

        T M = [[B^T B, B^T D K^T], [0, K D K^T]],

    and B^T B is invertible (B has rank m), so rank M = m + rank(K D K^T)
    for every D.
    """
    lam = _lambda0(b.m)
    s = [sum(x * y for x, y in zip(row, lam)) for row in b.rows()]
    scaled = [list(map(mul, s, k)) for k in kernel]
    return b.m + bareiss([[sum(map(mul, sk, k)) for k in kernel] for sk in scaled])[0]


def _zero_sum_parts(kernel, n: int):
    """Each nonempty set P of rows of B that sums to zero, as a bit mask,
    mapped to rank P - 1; K the rows of ``kernel``; or None past a cap.

    Such a set's indicator is a 0/1 vector in the row space of K, fixed
    by its values on a column basis.  ``rational_nullspace`` gives each
    vector k of K a column c_k where it alone is nonzero (its free
    column is one).  Scaled by top / k[c_k], top the lcm of those
    entries, the vectors of a subset S of K sum to top times the one
    vector of the row space that is 1 at c_k for k in S and 0 at the
    other c_k.  The subsets are walked in Gray-code order, one vector
    added or subtracted each, and a sum whose entries are all 0 or top
    is a part P.

    A relation among the rows of P is a vector of ker B^T that vanishes
    off P.  It vanishes at each c_k off P, so it is a combination of the
    scaled vectors in S that vanishes at the other columns off P, and
    rank P = |P| - |S| + the rank of S on those columns.
    """
    d = len(kernel)
    if d > MAX_PART_BITS:
        return None
    alone = [j for j, col in enumerate(zip(*kernel)) if sum(map(bool, col)) == 1]
    ends = [next((j, v[j]) for j in alone if v[j]) for v in kernel]
    top = lcm(*(e for _, e in ends))
    steps = [[top // e * x for x in v] for v, (_, e) in zip(kernel, ends)]
    basis = {c for c, _ in ends}
    others = [j for j in range(n) if j not in basis]
    back = [[-x for x in step] for step in steps]
    u = [0] * n
    parts = {}
    for t in range(1, 1 << d):
        k = (t & -t).bit_length() - 1
        gray = t ^ t >> 1
        u = list(map(add, u, steps[k] if gray >> k & 1 else back[k]))
        if u.count(0) + u.count(top) == n:
            if len(parts) == MAX_PARTS:
                return None
            off = [j for j in others if not u[j]]
            s = [[steps[i][j] for j in off] for i in range(d) if gray >> i & 1]
            size = u.count(top)
            parts[sum(1 << i for i, x in enumerate(u) if x)] = (
                size - len(s) + bareiss(s)[0] - 1
            )
    return parts


def _least_rho(parts) -> dict[int, int]:
    """Each zero-sum set of rows of B, as a mask, mapped to the least sum
    of (rank P - 1) over its partitions into the zero-sum ``parts``,
    which map each P to rank P - 1; the empty set maps to 0.

    What is left of a zero-sum set after a zero-sum part is taken out
    sums to zero too, and its mask is the smaller number.  So the least
    sum for each part, as a set to be covered, is found from the parts
    below it in mask order: the part that holds its lowest row, plus the
    least sum for the rest.
    """
    least = {0: 0}
    for r in sorted(parts):
        low = r & -r
        least[r] = min(
            cost + least[r ^ p] for p, cost in parts.items() if p & low and p & r == p
        )
    return least


def dual_variety_dim(cfg) -> int:
    """Dimension of the dual variety over flags of flats.

    Equals n - m - 1 plus the largest rank of (sigma_F1, ..., sigma_F(m-1))
    over complete flags F1 < ... < F(m-1) of flats of the Gale dual B,
    which ``matroid.flag_walk`` finds from the rank-0 flat with no rank
    to beat.  This is rank(A^T | 1_F1 | ... | 1_F(m-1)) - 1: B^T kills
    the row span of A, which has rank n - m, and sends each indicator
    1_F to sigma_F.

    Two bounds settle most inputs with no walk.  K is a basis of
    ker B^T, the row span of A, and d = n - m its size.

    Lower bound L = rank M(lam0) - 1, M(lam) = [B | diag(B lam) K^T], at
    one fixed integer lam0.  The Horn-Kapranov map (lam, t) ->
    (B lam) * t^A from C^m x (C*)^d has the affine cone over the dual
    variety as the closure of its image.  Its Jacobian at (lam, t), in
    lam and log t, is [B | diag(B lam) A^T] with row i scaled by t^a_i,
    and A^T and K^T have one column span, so its rank is rank M(lam).
    No point has a higher Jacobian rank than the generic one, and the
    generic rank is the dimension of the cone, one more than that of
    the dual variety (Kapranov 1991).

    Upper bound U = n - m - 1 + rho, rho the least sum of (rank P_i - 1)
    over partitions of the rows of B into parts with sigma(P_i) = 0; the
    whole set is one, so rho <= m - 1.  For any flag of flats F_j:
    - F_j meet P_i is a flat of B restricted to P_i;
    - along the flag these flats rise through ranks 0 ... rank P_i, so
      they take at most rank P_i + 1 distinct values;
    - the rank-0 flat is empty (B has no zero row) and P_i itself has
      sigma = 0, so part i gives at most rank P_i - 1 distinct nonzero
      sigmas;
    - sigma_F_j is the sum over i of sigma(F_j meet P_i).
    So the sigmas of a flag span at most rho dimensions.

    L = n - 2, the largest dimension, or L = U is the dimension.
    Otherwise, or past a cap of the part search (``MAX_PART_BITS``,
    ``MAX_PARTS``), the flags of B are walked.
    """
    b = _validate(cfg)
    _check_size(b)
    n, m = b.n, b.m
    kernel = rational_nullspace(zip(*b.rows()))
    low = _jacobian_rank(b, kernel) - 1
    if low == n - 2:
        return low
    parts = _zero_sum_parts(kernel, n)
    if parts is not None and low == n - m - 1 + _least_rho(parts)[(1 << n) - 1]:
        return low
    best = flag_walk(b, m - 1, {}, set(), closure(b, ()), (), (-1, ()))
    return n - m - 1 + best[0]


class RhoReport(NamedTuple):
    parts: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]
    rho: int
    m: int
    sufficient_defect: bool


def rho_bound(cfg) -> RhoReport:
    """The paper's rho statistic: the least sum of (rank P_i - 1) over
    partitions of the rows of B into parts P_i with sigma(P_i) = 0, and
    one partition that attains it.

    ``parts`` covers every row, so a splitting pair is a rank-1 part of
    cost 0.  rho <= m - 2 certifies dual defect: the dual variety has
    dimension at most n - m - 1 + rho (proof in ``dual_variety_dim``).
    Past a cap of the part search (``MAX_PART_BITS``, ``MAX_PARTS``) it
    raises ``SizeBound``.
    """
    b = _validate(cfg)
    kernel = rational_nullspace(zip(*b.rows()))
    parts = _zero_sum_parts(kernel, b.n)
    if parts is None:
        raise SizeBound(
            f"zero-sum part search limited to n - m <= {MAX_PART_BITS} "
            f"and at most {MAX_PARTS} parts"
        )
    least = _least_rho(parts)
    # walk a least partition back from the whole set, taking at each step
    # the smallest mask that attains the least sum
    r, masks = (1 << b.n) - 1, []
    while r:
        low = r & -r
        p = min(
            p for p, cost in parts.items()
            if p & low and p & r == p and cost + least[r ^ p] == least[r]
        )
        masks.append(p)
        r ^= p
    rho = least[(1 << b.n) - 1]
    return RhoReport(
        parts=tuple(tuple(i for i in range(b.n) if p >> i & 1) for p in masks),
        ranks=tuple(parts[p] + 1 for p in masks),
        rho=rho,
        m=b.m,
        sufficient_defect=rho <= b.m - 2,
    )


def dirocco_fixtures() -> list[tuple[str, PointConfiguration]]:
    """The seven smooth defect Cayley fixtures used for cross-checks."""
    shapes = [
        ("cayley-1-1-1", (1, 1, 1)),
        ("cayley-1-1-2", (1, 1, 2)),
        ("cayley-1-2-2", (1, 2, 2)),
        ("cayley-1-1-3", (1, 1, 3)),
        ("cayley-1-1-1-1", (1, 1, 1, 1)),
        ("cayley-1-1-1-2", (1, 1, 1, 2)),
        ("cayley-1-1-1-1-1", (1, 1, 1, 1, 1)),
    ]
    return [
        (name, cayley([segment(p) for p in ps])) for name, ps in shapes
    ]


__all__ = [
    "DefectReport",
    "SupportLattice",
    "RhoReport",
    "is_dual_defect",
    "is_dual_defect_exhaustive",
    "support_lattice",
    "dual_variety_dim",
    "rho_bound",
    "dirocco_fixtures",
]
