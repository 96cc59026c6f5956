"""Line classes, flats, flags and reduction."""

from collections import Counter

import pytest
from oracles import oracle_is_nonsplitting_flag

import discforge.matroid
from discforge.config import GaleConfiguration, cayley, gale_dual, segment
from discforge.defect import dual_variety_dim
from discforge.matroid import (
    Flat,
    closure,
    collinear_classes,
    find_nonsplitting_flag,
    flag_walk,
    flats_by_rank,
    flats_of_rank,
    is_nonsplitting_flag,
    reduce,
    walk_covers,
)


def test_collinear_classes_seven_point(seven_point_b):
    assert collinear_classes(seven_point_b) == [
        (0,),
        (1,),
        (2,),
        (3,),
        (4, 5, 6),
    ]
    assert seven_point_b.sigma([4, 5, 6]) == (2, 0)


def test_collinear_classes_skip_zero_rows():
    b = GaleConfiguration([[1, 2], [0, 0], [-2, -4]])
    assert collinear_classes(b) == [(0, 2)]
    assert b.zero_rows() == (1,)


def test_reduce_merges_collinear_class(seven_point_b):
    red = reduce(seven_point_b)
    assert red.config.matrix.to_lists() == [
        [0, 1],
        [-3, 1],
        [2, -3],
        [-1, 1],
        [2, 0],
    ]
    assert red.merged == ((0,), (1,), (2,), (3,), (4, 5, 6))
    assert red.removed_splitting == ()
    assert red.removed_zero == ()
    # the merged row keeps the label of its smallest member
    assert red.config.labels[4] == seven_point_b.labels[4]


def test_reduce_drops_splitting_class():
    b = GaleConfiguration(
        [[1, 0], [-2, 1], [1, -2], [0, 1], [1, -1], [-1, 1]]
    )
    red = reduce(b)
    assert red.config.matrix.to_lists() == [
        [1, 0],
        [-2, 1],
        [1, -2],
        [0, 1],
    ]
    assert red.removed_splitting == ((4, 5),)


def test_reduce_drops_zero_rows():
    b = GaleConfiguration([[1, 0], [0, 1], [-1, -1], [0, 0]])
    red = reduce(b)
    assert red.config.matrix.to_lists() == [[1, 0], [0, 1], [-1, -1]]
    assert red.removed_zero == (3,)


def test_closure_line(seven_point_b):
    fl = closure(seven_point_b, [4])
    assert fl == Flat(indices=(4, 5, 6), rank=1, sigma=(2, 0))


def test_closure_full(seven_point_b):
    fl = closure(seven_point_b, [0, 4])
    assert fl.indices == (0, 1, 2, 3, 4, 5, 6)
    assert fl.rank == 2
    assert fl.sigma == (0, 0)


def test_closure_of_nothing_collects_zero_rows():
    b = GaleConfiguration([[1, 0], [0, 0], [-1, 0]])
    fl = closure(b, ())
    assert fl == Flat(indices=(1,), rank=0, sigma=(0, 0))


def test_flats_of_rank(seven_point_b):
    ones = flats_of_rank(seven_point_b, 1)
    assert [fl.indices for fl in ones] == [
        (0,),
        (1,),
        (2,),
        (3,),
        (4, 5, 6),
    ]
    twos = flats_of_rank(seven_point_b, 2)
    assert [fl.indices for fl in twos] == [(0, 1, 2, 3, 4, 5, 6)]
    with pytest.raises(ValueError):
        flats_of_rank(seven_point_b, 3)


def test_covering_flats(seven_point_b):
    bottom = closure(seven_point_b, ())
    assert walk_covers(seven_point_b, {}, bottom) == flats_of_rank(seven_point_b, 1)
    line = closure(seven_point_b, [4])
    top = closure(seven_point_b, [0, 4])
    assert walk_covers(seven_point_b, {}, line) == [top]
    assert walk_covers(seven_point_b, {}, top) == []


def test_covering_flats_carry_zero_rows():
    b = GaleConfiguration([[1, 0], [0, 0], [-1, 0], [0, 1], [2, 1]])
    covers = walk_covers(b, {}, closure(b, ()))
    assert [fl.indices for fl in covers] == [(0, 1, 2), (1, 3), (1, 4)]
    assert all(fl.rank == 1 for fl in covers)


def test_flats_by_rank_levels(seven_point_b):
    levels = flats_by_rank(seven_point_b, 2)
    assert levels == [flats_of_rank(seven_point_b, k) for k in range(3)]
    assert flats_by_rank(seven_point_b, 0) == [[closure(seven_point_b, ())]]
    assert flats_by_rank(seven_point_b, -1) == []


def test_flats_by_rank_builds_each_flat_once(monkeypatch):
    # 287 flats, each reached from every flat it covers: 1,150 cover edges
    b = gale_dual(cayley([segment(2), segment(2), segment(3)]))
    built = []

    def counting_flat(**fields):
        built.append(fields["indices"])
        return Flat(**fields)

    monkeypatch.setattr(discforge.matroid, "Flat", counting_flat)
    levels = flats_by_rank(b, 5)
    assert sum(len(level) for level in levels) == 287
    assert sorted(built) == sorted(fl.indices for level in levels for fl in level)


def test_walks_reduce_in_place_past_the_root(monkeypatch):
    # echelon_extend builds the root closure and the root residuals, at
    # most n calls each; cover expansions and sigma tests reduce in
    # place, so the walk's size shows only in walk_covers: 176 flats
    # expanded by the exhausted flag search, 209 (flat, span) states by
    # the dimension walk on the 9-row reduction of cayley(1,2,2,2), and
    # none by dual_variety_dim, whose certificate settles that input
    calls = Counter()

    def counting(name):
        fn = getattr(discforge.matroid, name)

        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        monkeypatch.setattr(discforge.matroid, name, wrapped)

    counting("echelon_extend")
    counting("walk_covers")
    b = gale_dual(cayley([segment(2), segment(2), segment(3)]))
    assert find_nonsplitting_flag(b, b.m - 1) is None
    assert calls["echelon_extend"] <= 2 * b.n == 20
    assert calls["walk_covers"] == 176
    calls.clear()
    a = cayley([segment(1)] + [segment(2)] * 3)
    assert dual_variety_dim(a) == 7
    assert not calls
    red = reduce(gale_dual(a)).config
    best = flag_walk(red, red.m - 1, {}, set(), closure(red, ()), (), (-1, ()))
    assert a.n - red.m - 1 + best[0] == 7
    assert calls["echelon_extend"] <= 2 * red.n == 18
    assert calls["walk_covers"] == 209


def test_is_nonsplitting_flag(seven_point_b):
    good = (Flat(indices=(0,), rank=1, sigma=(0, 1)),)
    assert is_nonsplitting_flag(seven_point_b, good)
    # the top flat of a homogeneous configuration always splits
    top = closure(seven_point_b, [0, 4])
    assert not is_nonsplitting_flag(seven_point_b, good + (top,))
    # not closed: rows 4,5 do not exhaust their line
    assert not is_nonsplitting_flag(
        seven_point_b, (Flat(indices=(4, 5), rank=1, sigma=(4, 0)),)
    )
    # wrong sigma
    assert not is_nonsplitting_flag(
        seven_point_b, (Flat(indices=(0,), rank=1, sigma=(1, 1)),)
    )


def test_tampered_flags_are_rejected():
    # rows 0 and 1 are a splitting class (sigma 0) on the line of e1
    b = GaleConfiguration(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [-1, -2, -2]]
    )

    def flat(*indices, rank=None):
        rank = len(indices) if rank is None else rank
        return Flat(indices=indices, rank=rank, sigma=b.sigma(indices))

    line, plane = flat(2), flat(2, 3)
    witness = find_nonsplitting_flag(b, 2)
    assert witness == (line, plane)
    assert is_nonsplitting_flag(b, witness)
    assert oracle_is_nonsplitting_flag(b, witness)
    tampered = [
        (flat(0, 1, rank=1),),  # splitting at the first step: sigma 0
        (line, flat(0, 1, 2, rank=2)),  # splitting: sigma in span(e2)
        (line, flat(0, 2)),  # not closed: row 1 lies in the span
        (flat(3, 2),),  # indices out of order
        (flat(2, 3, rank=1),),  # a rank-2 flat that claims rank 1
        (flat(4), plane),  # not nested: row 4 is outside the plane
        (plane,),  # rank 2 at the first step
        (line, Flat(indices=(2, 3), rank=2, sigma=(0, 1, 2))),  # wrong sigma
    ]
    for flag in tampered:
        assert not is_nonsplitting_flag(b, flag), flag
        assert not oracle_is_nonsplitting_flag(b, flag), flag


def test_find_nonsplitting_flag(seven_point_b):
    assert find_nonsplitting_flag(seven_point_b, 0) == ()
    flag = find_nonsplitting_flag(seven_point_b, 1)
    assert flag == (Flat(indices=(0,), rank=1, sigma=(0, 1)),)
    assert is_nonsplitting_flag(seven_point_b, flag)
    # length 2 would need a non-splitting top flat; impossible here
    assert find_nonsplitting_flag(seven_point_b, 2) is None
