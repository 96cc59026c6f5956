"""Line classes, flats, flags and reductions of vector configurations.

All index sets refer to rows of a GaleConfiguration.  Flats are closures
in the rational linear matroid on the rows; a flat's sigma is the sum of
its member rows, and a flag is non-splitting when each sigma escapes the
span of the previous flat.
"""

from __future__ import annotations

import functools
from operator import add
from typing import NamedTuple

from .config import GaleConfiguration
from .lattice import IntMatrix, echelon_extend, eliminate, primitive


class Flat(NamedTuple):
    """A closed subset of rows with its rank and member sum."""

    indices: tuple[int, ...]
    rank: int
    sigma: tuple[int, ...]


class ReduceResult(NamedTuple):
    """Reduced configuration plus provenance of every output row."""

    config: GaleConfiguration
    merged: tuple[tuple[int, ...], ...]
    removed_splitting: tuple[tuple[int, ...], ...]
    removed_zero: tuple[int, ...]


def collinear_classes(cfg: GaleConfiguration) -> list[tuple[int, ...]]:
    """Partition of the nonzero rows by line through the origin.

    Classes are ordered by smallest member, the row each one enters at;
    zero rows are not classified and are available through cfg.zero_rows().
    """
    buckets: dict[tuple[int, ...], list[int]] = {}
    for i in range(cfg.n):
        row = cfg.row(i)
        if any(row):
            buckets.setdefault(primitive(row), []).append(i)
    return [tuple(v) for v in buckets.values()]


def reduce(cfg: GaleConfiguration) -> ReduceResult:
    """Drop splitting classes and zero rows; merge each remaining class
    into its member sum.  Output rows are ordered by smallest original
    member."""
    merged: list[tuple[int, ...]] = []
    rows: list[tuple[int, ...]] = []
    removed: list[tuple[int, ...]] = []
    for cls in collinear_classes(cfg):
        s = cfg.sigma(cls)
        if any(s):
            merged.append(cls)
            rows.append(s)
        else:
            removed.append(cls)
    config = GaleConfiguration(
        IntMatrix._of(tuple(rows)),
        labels=[cfg.labels[cls[0]] for cls in merged] or None,
    )
    return ReduceResult(
        config=config,
        merged=tuple(merged),
        removed_splitting=tuple(removed),
        removed_zero=cfg.zero_rows(),
    )


def _basis(cfg: GaleConfiguration, indices) -> tuple:
    """Echelon basis (``lattice.echelon_extend``) of the given rows' span."""
    return functools.reduce(echelon_extend, map(cfg.row, indices), ())


def closure(cfg: GaleConfiguration, indices) -> Flat:
    """Smallest flat containing the given rows: every row inside their
    rational span, zero rows included."""
    basis = _basis(cfg, indices)
    members = [
        i for i in range(cfg.n) if echelon_extend(basis, cfg.row(i)) is basis
    ]
    return Flat(
        indices=tuple(members), rank=len(basis), sigma=cfg.sigma(members)
    )


def walk_covers(cfg: GaleConfiguration, memo: dict, flat: Flat) -> list[Flat]:
    """The flats one rank above ``flat`` that contain it, ordered by
    index tuple: the parallel classes of the contraction by the flat,
    each joined with the flat.  Each row outside the flat is reduced
    against the flat's echelon basis, and rows whose residuals agree
    lie in one cover.  One ``memo`` serves a whole walk of the lattice
    of flats, and ``{}`` a single call.

    ``memo`` maps the key of each flat met so far, the int with bit i
    set for each member row i, to [flat, (rows, new), covers].  ``rows``
    pairs each row index with its residual row, in ``lattice.primitive``
    form, against the basis of the flat that first reached this one, and
    ``new`` is the residual of this flat's new members, which extends
    that basis to this flat's, or None when ``rows`` are already reduced
    against this flat's whole basis, as for a flat new to ``memo``.
    When the flat is expanded, the rows whose residual is ``new`` are
    dropped and every other row is reduced in place against ``new``
    alone, by ``lattice.eliminate`` at its first nonzero entry; a
    residual that is zero there keeps its residual and class key.  A
    cover's key and sigma are its parent's plus its new members.
    Rows stay in index order, so the classes, and with them the covers
    (whose new members are disjoint), come in order of smallest member.
    """
    data = cfg.matrix.data
    key = 0
    for j in flat.indices:
        key |= 1 << j
    node = memo.get(key)
    if node is None:
        base = _basis(cfg, flat.indices)
        rows = [(j, echelon_extend(base, data[j])[-1][1]) for j in range(cfg.n) if not key >> j & 1]
        node = memo[key] = [flat, (rows, None), None]
    if node[2] is None:
        rows, new = node[1]
        if new is not None:
            parent, rows = rows, []
            p = next(i for i, x in enumerate(new) if x)
            for j, res in parent:
                if res[p]:
                    if res == new:
                        continue
                    res = eliminate(res, p, new)
                rows.append((j, res))
        classes: dict = {}
        for j, res in rows:
            classes.setdefault(res, []).append(j)
        covers = []
        for res, members in classes.items():
            up = key
            for j in members:
                up |= 1 << j
            child = memo.get(up)
            if child is None:
                sigma = flat.sigma
                for j in members:
                    sigma = tuple(map(add, sigma, data[j]))
                indices = tuple(sorted(flat.indices + tuple(members)))
                cover = Flat(indices=indices, rank=flat.rank + 1, sigma=sigma)
                child = memo[up] = [cover, (rows, res), None]
            covers.append(child[0])
        node[1:] = [None, covers]
    return node[2]


def flats_by_rank(cfg: GaleConfiguration, top: int) -> list[list[Flat]]:
    """The flats of rank 0, 1, ..., top, one index-ordered list per rank.

    Each rank is built from the covers of the rank below; every flat of
    a geometric lattice covers one of the rank below, so none is missed,
    and one walk memo builds each flat once.
    """
    levels = [[closure(cfg, ())]] if top >= 0 else []
    memo: dict = {}
    for _ in range(top):
        covers = {
            cover.indices: cover
            for fl in levels[-1]
            for cover in walk_covers(cfg, memo, fl)
        }
        levels.append([covers[key] for key in sorted(covers)])
    return levels


def flats_of_rank(cfg: GaleConfiguration, k: int) -> list[Flat]:
    """All rank-k flats, ordered by index tuple."""
    if k < 0 or k > cfg.rank:
        raise ValueError("flat rank out of range")
    return flats_by_rank(cfg, k)[k]


def is_nonsplitting_flag(cfg: GaleConfiguration, flats) -> bool:
    """Check that flats form a strictly increasing flag of closed flats of
    ranks 1, 2, ..., with their member sums, each sigma outside the
    previous flat's span.

    One echelon basis is carried up the flag, and so is each outside
    row's residual against it: a new member's nonzero residual is the
    next basis row, and one row step against it reduces every other
    residual.  A flat is closed when no outside residual is zero."""
    basis: tuple = ()
    outside = dict(enumerate(cfg.matrix.data))
    prev: set[int] = set()
    for j, fl in enumerate(flats):
        inside = set(fl.indices)
        if fl.rank != j + 1 or not prev <= inside:
            return False
        if fl.indices != tuple(i for i in range(cfg.n) if i in inside):
            return False
        if fl.sigma != cfg.sigma(fl.indices):
            return False
        if echelon_extend(basis, fl.sigma) is basis:
            return False
        for r in filter(any, map(outside.pop, sorted(inside - prev))):
            p = next(q for q, x in enumerate(r) if x)
            basis += ((p, r),)
            for t, v in outside.items():
                if v[p]:
                    outside[t] = eliminate(v, p, r)
        if len(basis) != fl.rank or not all(map(any, outside.values())):
            return False
        prev = inside
    return True


def find_nonsplitting_flag(cfg: GaleConfiguration, k: int):
    """Depth-first search for a non-splitting flag of length k.

    Returns a tuple of Flats (empty tuple for k = 0) or None.  A flag
    F1 < ... < Fk is non-splitting exactly when its sigmas are
    independent, so this is ``flag_walk`` up to rank k with the best
    rank set at k - 1: every splitting step is pruned, and the first
    flag to reach rank k, trying covers in index order, is returned.
    """
    rank, flags = flag_walk(cfg, k, {}, set(), closure(cfg, ()), (), (k - 1, ()))
    return flags if rank == k else None


def flag_walk(cfg, k, memo, seen, flat, basis, best):
    """The best (rank, flags) over flags of flats from ``flat`` up to
    rank k, walked depth first up ``walk_covers`` in index order.

    ``basis`` is the reduced echelon basis of the sigmas so far, sorted
    by pivot: each row primitive, positive at its pivot and zero at every
    other pivot, so equal spans have equal bases.  ``best`` is the
    (rank, flags) pair to beat; ``flags`` are the flats above ``flat``
    of a flag whose sigmas reach that rank.  ``best`` itself is returned
    when no flag through ``flat`` beats it, so a caller sees an
    improvement by identity.  The walk stops once the rank reaches k.

    What a walk can still reach from a flat F depends only on F and on
    the span V of the sigmas so far, which lies inside span(F): each
    cover's state (F, V) enters ``seen`` and is expanded once.  A cover
    whose rank plus the steps left cannot beat the best rank is skipped,
    so ``flat`` itself is taken to beat ``best``, and one of rank k beats
    it outright.  A state is keyed by the id of F, which ``memo`` builds
    once and keeps for the whole walk.  When dim V = rank F, V = span(F)
    and the key is F's id alone; such a state dominates every other
    state on F, so a cover whose id is in ``seen`` is skipped before its
    sigma is reduced.  Otherwise the key is (F's id, basis).
    """
    if flat.rank == k:
        return len(basis), ()
    for cover in walk_covers(cfg, memo, flat):
        if best[0] == k:
            break
        key = id(cover)
        if key in seen:
            continue
        v = cover.sigma
        for p, row in basis:
            if v[p]:
                v = eliminate(v, p, row)
        grow = any(v)
        if len(basis) + grow + k - cover.rank <= best[0]:
            continue
        if cover.rank == k:
            best = len(basis) + grow, (cover,)
            continue
        ext = basis
        if grow:
            # v is zero at the pivots of basis, so each row keeps its pivot
            q = next(j for j, x in enumerate(v) if x)
            v = primitive(v)
            ext = [(q, v)]
            for p, row in basis:
                if row[q]:
                    row = eliminate(row, q, v)
                ext.append((p, row))
            ext = tuple(sorted(ext))
        state = key if len(ext) == cover.rank else (key, ext)
        if state in seen:
            continue
        seen.add(state)
        found = flag_walk(cfg, k, memo, seen, cover, ext, best)
        if found is not best:
            best = found[0], (cover,) + found[1]
    return best
