"""Defect classification, dual dimension, support lattices, rho bound."""

import gc
import time

import pytest

import discforge.defect
import discforge.matroid
from discforge.config import (
    DEFAULT_SIZE_BOUND,
    SIZE_BOUND_ENV,
    GaleConfiguration,
    PointConfiguration,
    cayley,
    dual_of,
    gale_dual,
    segment,
    size_bound,
)
from discforge.defect import (
    dirocco_fixtures,
    dual_variety_dim,
    is_dual_defect,
    is_dual_defect_exhaustive,
    rho_bound,
    support_lattice,
)
from discforge.errors import (
    DegenerateDual,
    NotHomogeneous,
    ParseError,
    PyramidInput,
    SizeBound,
)
from discforge.matroid import (
    closure,
    find_nonsplitting_flag,
    flag_walk,
    flats_by_rank,
    reduce,
)

EXPECTED_FIXTURES = {
    "cayley-1-1-1": ("degenerate", 3),
    "cayley-1-1-2": ("degenerate", 4),
    "cayley-1-2-2": ("codim-4-planes", 5),
    "cayley-1-1-3": ("degenerate", 5),
    "cayley-1-1-1-1": ("degenerate", 4),
    "cayley-1-1-1-2": ("degenerate", 5),
    "cayley-1-1-1-1-1": ("degenerate", 5),
}


def test_cayley_fixtures_are_defect():
    fixtures = dirocco_fixtures()
    assert [name for name, _ in fixtures] == list(EXPECTED_FIXTURES)
    for name, cfg in fixtures:
        rep = is_dual_defect(gale_dual(cfg))
        method, dim = EXPECTED_FIXTURES[name]
        assert rep.defect, name
        assert rep.method == method, name
        assert dual_variety_dim(cfg) == dim, name
        assert dim < cfg.n - 2, name


def test_fast_path_matches_exhaustive_search():
    for _, cfg in dirocco_fixtures():
        b = gale_dual(cfg)
        assert is_dual_defect(b).defect == is_dual_defect_exhaustive(b)


def test_complementary_planes_witness():
    cfg = cayley([segment(1), segment(2), segment(2)])
    rep = is_dual_defect(gale_dual(cfg))
    assert rep.method == "codim-4-planes"
    assert rep.witness == {
        "kind": "complementary-planes",
        "parts": [[2, 3, 4], [5, 6, 7]],
    }


def test_codim_one_never_defect(quadratic):
    rep = is_dual_defect(gale_dual(quadratic))
    assert not rep.defect
    assert rep.method == "codim-one"
    assert rep.witness == {"kind": "flag", "flats": []}


def test_twisted_cubic_not_defect(twisted_cubic):
    rep = is_dual_defect(gale_dual(twisted_cubic))
    assert not rep.defect
    assert rep.method == "codim-2"
    assert rep.witness == {"kind": "flag", "flats": [[0]]}
    assert dual_variety_dim(twisted_cubic) == 2


def test_seven_point_not_defect(seven_point_b):
    rep = is_dual_defect(seven_point_b)
    assert not rep.defect
    assert rep.method == "codim-2"
    a = dual_of(seven_point_b)
    assert dual_variety_dim(a) == a.n - 2 == 5


def test_three_squares_flag_search(cay222):
    b = gale_dual(cay222)
    assert b.m == 5
    rep = is_dual_defect(b)
    assert rep.defect
    assert rep.method == "flag-search"
    assert rep.witness == {"kind": "no-nonsplitting-flag", "length": 4}
    assert dual_variety_dim(cay222) == 6


def test_four_squares_flag_search_reach():
    # n = 12, m = 7: the memoized search settles this in well under the
    # tens of seconds an unmemoized search takes
    cfg = cayley([segment(2)] * 4)
    b = gale_dual(cfg)
    assert (cfg.n, b.m) == (12, 7)
    rep = is_dual_defect(b)
    assert rep.defect
    assert rep.method == "flag-search"
    assert rep.witness == {"kind": "no-nonsplitting-flag", "length": 6}
    assert is_dual_defect_exhaustive(b)
    assert dual_variety_dim(cfg) == 8


def _count_searches(monkeypatch) -> list[int]:
    """Row counts of the configurations the classifier searches."""
    searched: list[int] = []
    search = discforge.defect.find_nonsplitting_flag

    def counting(cfg, k):
        searched.append(cfg.n)
        return search(cfg, k)

    monkeypatch.setattr(discforge.defect, "find_nonsplitting_flag", counting)
    return searched


def test_the_rho_bound_settles_a_defect_verdict_with_no_search(monkeypatch):
    # the reduction of cayley(1,2,2,2) keeps rank 6 with 9 of B's 11 rows,
    # and its least rho, 3 <= m - 2, proves defect before any search
    b = gale_dual(cayley([segment(1)] + [segment(2)] * 3))
    red = reduce(b).config
    assert (b.n, red.n, red.rank, b.m) == (11, 9, 6, 6)
    searched = _count_searches(monkeypatch)
    rep = is_dual_defect(b)
    assert rep.defect
    assert rep.method == "flag-search"
    assert rep.witness == {"kind": "no-nonsplitting-flag", "length": 5}
    assert searched == []


@pytest.mark.parametrize("parts", [(2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 6, 7)])
def test_the_rho_bound_settles_the_cayley_ladder(parts, monkeypatch):
    # with no search to fall back on, the rho bound alone settles each
    monkeypatch.setattr(discforge.defect, "find_nonsplitting_flag", None)
    a = cayley([segment(p) for p in parts])
    m = a.n - a.d
    witness = {"kind": "no-nonsplitting-flag", "length": m - 1}
    assert is_dual_defect(a) == (True, "flag-search", witness)


# 7 rows in four line classes: rows 0, 1 parallel, and rows 2, 4, 5 on
# one line with row 4 antiparallel to the others
SEVEN_REDUCIBLE_ROWS = [
    (1, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1), (0, -1, 0), (0, 1, 0), (-3, -1, -1)
]


def test_a_reducible_non_defect_witness_is_a_flag_of_b(monkeypatch):
    b = GaleConfiguration(SEVEN_REDUCIBLE_ROWS)
    red = reduce(b).config
    assert (red.n, red.rank) == (4, 3)
    searched = _count_searches(monkeypatch)
    rep = is_dual_defect(b)
    assert not rep.defect
    assert rep.method == "codim-3"
    flag = find_nonsplitting_flag(b, b.m - 1)
    assert rep.witness == {"kind": "flag", "flats": [list(fl.indices) for fl in flag]}
    assert rep.witness["flats"] == [[0, 1], [0, 1, 2, 4, 5]]
    # B alone is searched, once
    assert searched == [7]


def test_a_reducible_witness_comes_from_the_search_of_b():
    # rows 1 and 4 are a splitting class; the reduction's first flag,
    # mapped back by closure in B, would be [[0], [0, 2]]
    b = GaleConfiguration(
        [[1, 0, 1], [0, -2, -2], [-1, 0, -2], [-1, -1, -1], [0, 2, 2], [1, 1, 2]]
    )
    assert reduce(b).removed_splitting == ((1, 4),)
    rep = is_dual_defect(b)
    assert not rep.defect
    assert rep.method == "codim-3"
    assert rep.witness == {"kind": "flag", "flats": [[0], [0, 1, 4, 5]]}


def test_validation_errors():
    with pytest.raises(NotHomogeneous):
        is_dual_defect(GaleConfiguration([[1, 0], [0, 1]]))
    with pytest.raises(PyramidInput):
        is_dual_defect(GaleConfiguration([[1], [-2], [1], [0]]))
    with pytest.raises(DegenerateDual):
        is_dual_defect(GaleConfiguration([[1, 0], [-1, 0], [2, 0], [-2, 0]]))


def test_support_lattice_quadratic(quadratic):
    lat = support_lattice(quadratic)
    assert lat.n == 3 and lat.m == 1
    assert lat.elements == (frozenset({0, 1, 2}),)
    assert lat.height[frozenset({0, 1, 2})] == 1


def test_support_lattice_cubic(twisted_cubic):
    lat = support_lattice(twisted_cubic)
    full = frozenset(range(4))
    triples = [full - {i} for i in range(4)]
    assert set(lat.elements) == set(triples) | {full}
    assert lat.height[full] == 2
    assert all(lat.height[t] == 1 for t in triples)
    assert all(lat.covers[t] == [full] for t in triples)
    assert lat.covers[full] == []


def test_support_lattice_empty_dual():
    # two independent points: the Gale dual has no columns, so no support
    lat = support_lattice(PointConfiguration([[1, 0], [0, 1]]))
    assert lat.m == 0
    assert lat.elements == () and lat.height == {} and lat.covers == {}


def test_support_lattice_refuses_a_rank_deficient_dual():
    # the empty set supports no nonzero kernel vector, so it must not be
    # listed as a height-1 support of this rank-1 dual of codimension 2
    with pytest.raises(DegenerateDual):
        support_lattice(GaleConfiguration([[1, 0], [-1, 0]]))


def test_support_lattice_size_bound(monkeypatch, twisted_cubic):
    monkeypatch.setenv(SIZE_BOUND_ENV, "3")
    with pytest.raises(SizeBound):
        support_lattice(twisted_cubic)


def test_dual_dim_size_bound_precedes_enumeration(monkeypatch, twisted_cubic):
    def no_enumeration(*args):
        raise AssertionError("flats enumerated before the size check")

    # the dimension walk reaches the flats only through walk_covers
    monkeypatch.setattr(discforge.matroid, "walk_covers", no_enumeration)
    monkeypatch.delenv(SIZE_BOUND_ENV, raising=False)
    start = time.perf_counter()
    with pytest.raises(SizeBound, match="n <= 12"):
        dual_variety_dim(cayley([segment(2), segment(2), segment(3), segment(3)]))
    assert time.perf_counter() - start < 1.0
    monkeypatch.setenv(SIZE_BOUND_ENV, "3")
    with pytest.raises(SizeBound, match="n <= 3"):
        dual_variety_dim(twisted_cubic)


# 13 rows in four line classes: the reduction has 4 rows
THIRTEEN_ROWS = [[1, 0, 0]] * 4 + [[0, 1, 0]] * 4 + [[0, 0, 1]] * 4 + [[-4, -4, -4]]


def test_dual_dim_size_bound_reads_the_unreduced_n(monkeypatch):
    monkeypatch.delenv(SIZE_BOUND_ENV, raising=False)
    b = GaleConfiguration(THIRTEEN_ROWS)
    assert b.n == 13 and reduce(b).config.n == 4
    with pytest.raises(SizeBound, match="n <= 12"):
        dual_variety_dim(b)
    # the reduction is a circuit, so B is not defect: dimension n - 2
    monkeypatch.setenv(SIZE_BOUND_ENV, "13")
    assert dual_variety_dim(b) == 13 - 2


def test_walks_leave_no_reference_cycles():
    # a walk's memo and search state are freed when the call returns,
    # not left for the cyclic collector; so are the part search and the
    # partition table of the certificate that settles dual_variety_dim
    # on these defect inputs
    a = cayley([segment(2), segment(2), segment(3)])
    b = gale_dual(a)
    units = cayley([segment(1)] * 5)
    walks = [
        lambda: dual_variety_dim(a),
        lambda: dual_variety_dim(units),
        lambda: flag_walk(b, b.m - 1, {}, set(), closure(b, ()), (), (-1, ())),
        lambda: is_dual_defect(a),
        lambda: find_nonsplitting_flag(b, b.m - 1),
        lambda: flats_by_rank(b, b.rank),
    ]
    gc.collect()
    gc.disable()
    try:
        for walk in walks:
            walk()
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_size_bound_env(monkeypatch):
    monkeypatch.delenv(SIZE_BOUND_ENV, raising=False)
    assert size_bound() == DEFAULT_SIZE_BOUND == 12
    monkeypatch.setenv(SIZE_BOUND_ENV, "7")
    assert size_bound() == 7
    for bad in ("junk", "-1"):
        monkeypatch.setenv(SIZE_BOUND_ENV, bad)
        with pytest.raises(ParseError):
            size_bound()


def test_dual_dim_errors():
    with pytest.raises(NotHomogeneous):
        dual_variety_dim(PointConfiguration([[0, 1, 2]]))
    with pytest.raises(PyramidInput):
        dual_variety_dim(
            PointConfiguration([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
        )
    # n = d: the Gale dual is empty
    with pytest.raises(PyramidInput):
        dual_variety_dim(PointConfiguration([[1, 0], [0, 1]]))
    # a rank-deficient dual, refused after homogeneity and the pyramid
    # check, as in is_dual_defect
    with pytest.raises(DegenerateDual):
        dual_variety_dim(GaleConfiguration([[1, 0], [1, 0], [-2, 0]]))
    with pytest.raises(NotHomogeneous):
        dual_variety_dim(GaleConfiguration([[1, 0], [1, 0], [-1, 0]]))
    with pytest.raises(PyramidInput):
        dual_variety_dim(GaleConfiguration([[1, 0], [-1, 0], [0, 0]]))


def test_defect_functions_take_either_side(twisted_cubic, cay222):
    for a in (twisted_cubic, cay222):
        b = gale_dual(a)
        assert is_dual_defect(a) == is_dual_defect(b)
        assert is_dual_defect_exhaustive(a) == is_dual_defect_exhaustive(b)
        assert rho_bound(a) == rho_bound(b)
        assert dual_variety_dim(a) == dual_variety_dim(b)
        assert support_lattice(a) == support_lattice(b)
    for fn in (is_dual_defect, rho_bound, dual_variety_dim, support_lattice):
        with pytest.raises(TypeError):
            fn([[1, -2, 1]])


def test_rho_bound_three_squares(cay222):
    rep = rho_bound(gale_dual(cay222))
    assert rep.parts == ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    assert rep.ranks == (2, 2, 2)
    assert rep.rho == 3
    assert rep.m == 5
    assert rep.sufficient_defect


def test_rho_bound_mixed_cayley():
    b = gale_dual(cayley([segment(1), segment(2), segment(2)]))
    rep = rho_bound(b)
    # rows 0,1 form a splitting pair, a rank-1 part of cost 0
    assert rep.parts == ((0, 1), (2, 3, 4), (5, 6, 7))
    assert rep.ranks == (1, 2, 2)
    assert rep.rho == 2
    assert rep.sufficient_defect


def test_rho_bound_not_sufficient(seven_point_b):
    rep = rho_bound(seven_point_b)
    assert rep.rho == 1
    assert rep.m == 2
    assert not rep.sufficient_defect


def test_rho_bound_at_the_part_cap():
    # k unit segments give 2^k + 1 zero-sum parts: 129 for k = 7, and
    # 257 for k = 8, one past MAX_PARTS
    rep = rho_bound(gale_dual(cayley([segment(1)] * 7)))
    assert rep.parts == tuple((2 * i, 2 * i + 1) for i in range(7))
    assert (rep.rho, rep.m, rep.sufficient_defect) == (0, 6, True)
    with pytest.raises(SizeBound):
        rho_bound(gale_dual(cayley([segment(1)] * 8)))


def test_rho_bound_refuses_a_rank_deficient_dual():
    # refused after the homogeneity check, as in dual_variety_dim
    with pytest.raises(DegenerateDual):
        rho_bound(GaleConfiguration([[1, 0], [1, 0], [-2, 0]]))
    with pytest.raises(NotHomogeneous):
        rho_bound(GaleConfiguration([[1, 0], [1, 0], [-1, 0]]))
