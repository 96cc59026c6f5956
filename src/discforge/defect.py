"""Dual-defect classification and dual variety dimension.

The classifier decides whether a configuration's dual variety fails to be
a hypersurface.  After the structural tests (a degenerate reduction, and
complementary planes in codimension 4) it searches for a non-splitting
flag of length m - 1, whose existence is equivalent to the dual variety
having full dimension n - 2.  The dimension itself is maximized over
complete flags of flats of the Gale dual.
"""

from __future__ import annotations

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
from .lattice import IntMatrix, rank
from .matroid import (
    closure,
    decompose,
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
        if rank(IntMatrix([red.row(t) for t in rest])) == 2:
            return fl.indices, rest
    return None


def is_dual_defect(cfg) -> DefectReport:
    """Classify a homogeneous point or vector configuration as dual
    defect or not.

    The returned witness is a verified non-splitting flag of length m - 1
    for the non-defect verdict, and a structural certificate (degenerate
    reduction, complementary planes, or exhausted flag search) otherwise.
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
    # B has a flag of sigma rank m - 1 exactly when its full-rank
    # reduction has one (``dual_variety_dim``); B gives the witness
    walk = red.config if red.config.n < b.n else b
    flag = find_nonsplitting_flag(walk, m - 1)
    if flag is not None and walk is not b:
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


def dual_variety_dim(cfg) -> int:
    """Dimension of the dual variety over flags of flats.

    Equals n - m - 1 plus the largest rank of (sigma_F1, ..., sigma_F(m-1))
    over complete flags F1 < ... < F(m-1) of flats of the Gale dual B,
    which ``matroid.flag_walk`` finds from the rank-0 flat with no rank
    to beat.  This is rank(A^T | 1_F1 | ... | 1_F(m-1)) - 1: B^T kills
    the row span of A, which has rank n - m, and sends each indicator
    1_F to sigma_F.

    The walk runs on the reduced configuration R = ``reduce(B)`` when R
    still has rank m; the size bound reads the n of B.  A flat holds
    each line class whole, so a merged class is one element of R with
    the same share of every sigma, and a splitting class C adds 0 to
    every sigma.  F -> F minus C sends a flag of B to a chain of flats
    of R of rank below m with the same sigmas, and a complete flag of R
    through that chain has at least their rank; G -> closure_B(G) sends
    a complete flag of R to one of B with the same ranks and sigmas.  So
    the best rank is the same.  When R has rank below m (a degenerate
    reduction, such as that of cayley(1,1,1,2)) its flats of rank m - 1
    may be all of R, the first map fails, and the walk stays on B.
    """
    b = _validate(cfg)
    _check_size(b)
    red = reduce(b).config
    walk = red if red.rank == b.m else b
    best = flag_walk(walk, b.m - 1, {}, set(), closure(walk, ()), (), (-1, ()))
    return b.n - b.m - 1 + best[0]


class RhoReport(NamedTuple):
    parts: tuple[tuple[int, ...], ...]
    ranks: tuple[int, ...]
    rho: int
    m: int
    sufficient_defect: bool


def rho_bound(cfg) -> RhoReport:
    """Greedy decomposition bound: rho <= m - 2 certifies defectness.

    The Gale side is reduced first; parts refer to rows of the reduced
    configuration mapped back to original class index sets.
    """
    b = _validate(cfg)
    red = reduce(b)
    dec = decompose(red.config, lambda sub: is_dual_defect(sub).defect)
    parts = tuple(
        tuple(sorted(i for t in part for i in red.merged[t]))
        for part in dec.parts
    )
    m = b.m
    return RhoReport(
        parts=parts,
        ranks=dec.ranks,
        rho=dec.rho,
        m=m,
        sufficient_defect=dec.rho <= m - 2,
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
