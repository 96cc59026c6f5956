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
    gale_pair,
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


def _validate(b: GaleConfiguration) -> GaleConfiguration:
    """B itself, if homogeneous (ker B^T is the row span of A), no
    pyramid (n = d leaves B no columns) and of rank m."""
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
    b = _validate(gale_side(cfg))
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
    least = _least_partition(red.config) if m >= 5 else None
    if least is not None and least.rho <= m - 2:
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
    b = _validate(gale_side(cfg))
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


# Caps of the zero-sum part search, which runs on the reduced dual
# reduce(B) (``_least_partition``): parts are searched over 2^d patterns
# only for d = n' - rank up to MAX_PART_BITS, n' the reduced row count,
# and partitions into them, one state per part, only up to MAX_PARTS
# parts.  Past either cap ``dual_variety_dim`` walks, ``is_dual_defect``
# searches and ``rho_bound`` raises ``SizeBound``.
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
    """Each nonempty set P of the n rows of a vector configuration that
    sums to zero, as a bit mask, mapped to rank P - 1; K the rows of
    ``kernel``, a basis of the relations among the rows; or None past a
    cap.  ``_least_partition`` calls it on the reduced dual.

    Such a set's indicator is a 0/1 vector in the row space of K, fixed
    by its values on a column basis.  ``rational_nullspace`` gives each
    vector k of K a column c_k where it alone is nonzero (its free
    column is one).  Scaled by top / k[c_k], top the lcm of those
    entries, the vectors of a subset S of K sum to top times the one
    vector of the row space that is 1 at c_k for k in S and 0 at the
    other c_k.  The subsets are walked in Gray-code order, one vector
    added or subtracted each, and a sum whose entries are all 0 or top
    is a part P.  At each c_k the sum is top or 0 by construction, so
    only the m other columns are summed and tested.

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
    basis = {c for c, _ in ends}
    others = [j for j in range(n) if j not in basis]
    steps = [[top // e * v[j] for j in others] for v, (_, e) in zip(kernel, ends)]
    back = [[-x for x in step] for step in steps]
    u = [0] * len(others)
    mask = 0
    parts = {}
    for t in range(1, 1 << d):
        k = (t & -t).bit_length() - 1
        gray = t ^ t >> 1
        u = list(map(add, u, steps[k] if gray >> k & 1 else back[k]))
        mask ^= 1 << ends[k][0]
        if all(not x or x == top for x in u):
            if len(parts) == MAX_PARTS:
                return None
            # rank P = its other columns + the rank of S on those off P
            part, rank_p, off = mask, 0, []
            for i, (j, x) in enumerate(zip(others, u)):
                if x:
                    part |= 1 << j
                    rank_p += 1
                else:
                    off.append(i)
            # one vector is zero where its sum is, and with no column off
            # P there is nothing to rank
            s = [steps[i] for i in range(d) if gray >> i & 1]
            if len(s) > 1 and off:
                rank_p += bareiss([[step[i] for i in off] for step in s])[0]
            parts[part] = rank_p - 1
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


class _Least(NamedTuple):
    """rho, and the ``_zero_sum_parts`` and ``_least_rho`` tables of the
    reduced dual it was read from."""

    rho: int
    parts: dict
    least: dict


def _least_partition(red: GaleConfiguration):
    """The least rho of B, read off red = reduce(B).config, or None past
    a cap of the part search; B has no zero row.

    rho(B) = rho(red).  Take a least partition of B's rows into zero-sum
    parts.  Parts Q_1, ..., Q_k that meet one line class each hold a
    nonzero row on the class's line, so their spans share that line and
    rank(Q_1 u ... u Q_k) - 1 <= sum(rank Q_i - 1): merging them, into a
    part that still sums to zero, never raises the sum.  So some least
    partition keeps every class inside one part.  A splitting class C
    in a larger part P then splits off as a part of its own, of cost 0:
    P - C still sums to zero, at no higher rank.  Every other part is a
    union of whole non-splitting classes, with the rank and the sum of
    its image in red, whose rows are the class sums.  So rho(red) <=
    rho(B), and expanding a partition of red's rows into their classes,
    with each splitting class added as a part of its own, gives
    rho(B) <= rho(red).

    The part search therefore walks 2^(n' - rank) subsets of red's n'
    rows, and none when every class splits, as for Cayley configurations
    of unit segments.
    """
    parts = _zero_sum_parts(rational_nullspace(zip(*red.rows())), red.n)
    if parts is None:
        return None
    least = _least_rho(parts)
    return _Least(least[(1 << red.n) - 1], parts, least)


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
    whole set is one, so rho <= m - 1.  It is read off reduce(B)
    (``_least_partition``).  For any flag of flats F_j:
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

    The flats, their sigma ranks and rho depend only on the column span
    of B, so on a point configuration B is ``config.gale_pair``'s: one
    elimination gives it and K is A.  The Jacobian rank at lam0 may
    depend on the basis, but it only decides whether the walk runs.
    """
    b, kernel = gale_pair(cfg)
    _validate(b)
    _check_size(b)
    n, m = b.n, b.m
    low = _jacobian_rank(b, kernel) - 1
    if low == n - 2:
        return low
    least = _least_partition(reduce(b).config)
    if least is not None and low == n - m - 1 + least.rho:
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

    The partition is searched on reduce(B) (``_least_partition``) and
    lifted back to B's rows: each reduced part expanded to its line
    classes, each splitting class a rank-1 part of cost 0, parts ordered
    by smallest row.  ``parts`` covers every row.  rho <= m - 2
    certifies dual defect: the dual variety has dimension at most
    n - m - 1 + rho (proof in ``dual_variety_dim``).  Past a cap of the
    part search (``MAX_PART_BITS``, ``MAX_PARTS``), which counts the
    reduced dual, it raises ``SizeBound``.
    """
    b = _validate(gale_side(cfg))
    red = reduce(b)
    found = _least_partition(red.config)
    if found is None:
        raise SizeBound(
            f"zero-sum part search of the reduced dual limited to "
            f"n' - rank <= {MAX_PART_BITS} and at most {MAX_PARTS} parts"
        )
    parts, least = found.parts, found.least
    # each splitting class is a rank-1 part; walk a least partition of
    # the reduced rows back from the whole set, taking at each step the
    # smallest mask that attains the least sum, and expand it to classes
    lifted = [(cls, 1) for cls in red.removed_splitting]
    r = (1 << red.config.n) - 1
    while r:
        low = r & -r
        p = min(
            p for p, cost in parts.items()
            if p & low and p & r == p and cost + least[r ^ p] == least[r]
        )
        rows = sorted(i for t, cls in enumerate(red.merged) if p >> t & 1 for i in cls)
        lifted.append((tuple(rows), parts[p] + 1))
        r ^= p
    lifted.sort()
    return RhoReport(
        parts=tuple(p for p, _ in lifted),
        ranks=tuple(rank for _, rank in lifted),
        rho=found.rho,
        m=b.m,
        sufficient_defect=found.rho <= b.m - 2,
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
