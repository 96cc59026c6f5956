"""The memoized flag search, the dual dimension over flags of flats and
its two-sided certificate, the least zero-sum partition, the flat
covers and their level walk, and the flat-based plane split against the
plain exhaustive searches in ``oracles``."""

from itertools import permutations
from math import gcd

import pytest
from conftest import SEVEN_ROWS
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    jacobian_dual_dim,
    oracle_closure,
    oracle_complementary_planes,
    oracle_dual_variety_dim,
    oracle_flag_search,
    oracle_flats_of_rank,
    oracle_is_nonsplitting_flag,
    oracle_jacobian_rank,
    oracle_least_rho,
    oracle_rref,
    oracle_support_lattice,
    unreduced_dual_dim,
)

import discforge.defect
from discforge.config import (
    SIZE_BOUND_ENV,
    GaleConfiguration,
    PointConfiguration,
    cayley,
    dual_of,
    gale_dual,
    is_pyramid,
    segment,
)
from discforge.defect import (
    _complementary_planes,
    _jacobian_rank,
    _lambda0,
    _least_rho,
    _zero_sum_parts,
    dirocco_fixtures,
    dual_variety_dim,
    is_dual_defect,
    rho_bound,
    support_lattice,
)
from discforge.errors import DuplicatePoint
from discforge.lattice import (
    IntMatrix,
    echelon_extend,
    primitive,
    rank,
    rational_nullspace,
)
from discforge.matroid import (
    Flat,
    closure,
    find_nonsplitting_flag,
    flag_walk,
    flats_by_rank,
    flats_of_rank,
    is_nonsplitting_flag,
    reduce,
    walk_covers,
)


def _agree_planes(red: GaleConfiguration) -> None:
    # no two reduced rows are parallel, so any two rows of a rank-2 flat
    # span it and the pair scan first meets the first such flat
    if red.n and rank(red.matrix) == 4:
        assert _complementary_planes(red) == oracle_complementary_planes(red)


def _agree_flats(b: GaleConfiguration) -> None:
    # one walk memo over all ranks: above rank 0 every flat's covers come
    # from the residuals carried up from the flat that first reached it
    memo: dict = {}
    for k in range(rank(b.matrix) + 1):
        flats = flats_of_rank(b, k)
        assert flats == oracle_flats_of_rank(b, k)
        for fl in flats:
            closures = (
                oracle_closure(b, fl.indices + (i,))
                for i in range(b.n)
                if i not in fl.indices
            )
            distinct = {c.indices: c for c in closures}
            covers = [distinct[key] for key in sorted(distinct)]
            assert list(walk_covers(b, memo, fl)) == covers
            assert list(walk_covers(b, {}, fl)) == covers


def _agree_jacobian(a: PointConfiguration) -> None:
    dim = jacobian_dual_dim(a)
    assert dim == dual_variety_dim(a)
    assert (dim < a.n - 2) == is_dual_defect(a).defect


def _agree_flags(b: GaleConfiguration) -> None:
    # below m - 1 the walk stops at a lower rank, with a smaller target
    for k in range(b.m):
        assert find_nonsplitting_flag(b, k) == oracle_flag_search(b, k), k


def _bounds(b: GaleConfiguration) -> tuple[int, int]:
    """The certificate's (L, U) for B: the Jacobian rank at lam0 less
    one, and n - m - 1 plus the least rho over zero-sum partitions."""
    kernel = rational_nullspace(b.matrix.transpose().data)
    parts = _zero_sum_parts(kernel, b.n)
    assert parts is not None
    low = _jacobian_rank(b, kernel) - 1
    return low, b.n - b.m - 1 + _least_rho(parts)[(1 << b.n) - 1]


def _agree_jacobian_rank(b: GaleConfiguration) -> None:
    # the library eliminates the d x d block K D K^T, the oracle all of
    # M(lam0)
    kernel = rational_nullspace(b.matrix.transpose().data)
    assert _jacobian_rank(b, kernel) == oracle_jacobian_rank(b, kernel)


def _check_bounds(b: GaleConfiguration) -> None:
    # the walk alone, which the certificate may skip, lies between them
    _agree_jacobian_rank(b)
    low, up = _bounds(b)
    assert low <= unreduced_dual_dim(b) <= up <= b.n - 2


def _agree_rho(b: GaleConfiguration) -> None:
    # the reported partition is checked with plain sums and oracle ranks
    rep = rho_bound(b)
    if b.n <= 8:
        assert rep.rho == oracle_least_rho(b)
    assert sorted(i for p in rep.parts for i in p) == list(range(b.n))
    for p, r in zip(rep.parts, rep.ranks):
        rows = [b.row(i) for i in p]
        assert not any(map(sum, zip(*rows)))
        assert len(oracle_rref(rows)[1]) == r
    assert rep.rho == sum(rep.ranks) - len(rep.parts)
    assert rep.m == b.m
    assert rep.sufficient_defect == (rep.rho <= b.m - 2)
    if rep.sufficient_defect:
        assert is_dual_defect(b).defect


def _agree(a: PointConfiguration) -> None:
    b = gale_dual(a)
    _agree_flags(b)
    _agree_rho(b)
    assert dual_variety_dim(a) == oracle_dual_variety_dim(a)
    _agree_jacobian(a)
    _check_bounds(b)
    # either side gives the same dimension and the same verdict
    assert dual_variety_dim(b) == dual_variety_dim(a)
    assert is_dual_defect(b) == is_dual_defect(a)
    _agree_flats(b)
    lat = support_lattice(a)
    assert (lat.elements, lat.height, lat.covers) == oracle_support_lattice(a)
    _agree_planes(reduce(b).config)


NAMED = {
    "cayley-2-2-2": cayley([segment(2), segment(2), segment(2)]),
    "seven-point": dual_of(GaleConfiguration(SEVEN_ROWS)),
    "twisted-cubic": PointConfiguration([[1, 1, 1, 1], [0, 1, 2, 3]]),
    # m = 1, where the walk's root already has rank m - 1
    "quadratic": PointConfiguration([[1, 1, 1], [0, 1, 2]]),
    # m = 5 and not defect, so the walk stops once a flag reaches rank m - 1
    "rational-normal-curve-6": PointConfiguration([[1] * 7, list(range(7))]),
    **dict(dirocco_fixtures()),
}


@pytest.mark.parametrize("name", list(NAMED))
def test_named_configurations_match_oracle(name):
    _agree(NAMED[name])


@pytest.mark.parametrize("parts", [(1, 2, 2, 2), (2, 2, 3)])
def test_larger_cayley_dual_dims_match_oracle(parts):
    a = cayley([segment(p) for p in parts])
    assert dual_variety_dim(a) == oracle_dual_variety_dim(a) == 7


def test_larger_cayley_flag_search_matches_oracle():
    for parts in [(1, 2, 2, 2), (2, 2, 3)]:
        b = gale_dual(cayley([segment(p) for p in parts]))
        assert b.m == 6
        _agree_flags(b)


def test_larger_cayley_support_lattice_matches_oracle():
    a = cayley([segment(2), segment(2), segment(3)])
    assert a.n == 10
    lat = support_lattice(a)
    assert sum(map(len, lat.covers.values())) == 1150
    assert (lat.elements, lat.height, lat.covers) == oracle_support_lattice(a)


def test_jacobian_rank_on_four_squares():
    # n = 12, the default size bound, and defect
    a = cayley([segment(2)] * 4)
    assert a.n == 12
    _agree_jacobian(a)
    assert jacobian_dual_dim(a) < a.n - 2


def test_jacobian_rank_on_three_cubes():
    # n = 12, the default size bound, and defect
    a = cayley([segment(3)] * 3)
    assert a.n == 12
    _agree_jacobian(a)
    assert jacobian_dual_dim(a) == 9


def test_jacobian_rank_past_the_default_size_bound(monkeypatch):
    monkeypatch.setenv("DISCFORGE_SIZE_BOUND", "14")
    a = cayley([segment(p) for p in (1, 2, 3, 4)])
    assert a.n == 14
    _agree_jacobian(a)
    assert jacobian_dual_dim(a) == 10


def test_flats_of_a_larger_dual_match_oracle():
    b = gale_dual(cayley([segment(2), segment(2), segment(3)]))
    assert sum(len(level) for level in flats_by_rank(b, 5)) == 287
    _agree_flats(b)


# homogenized planar point sets: columns (1, x, y), n <= 9
planar_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    min_size=4,
    max_size=9,
    unique=True,
).map(lambda pts: [[1] * len(pts), [x for x, _ in pts], [y for _, y in pts]])


@settings(max_examples=20, deadline=None)
@given(planar_rows)
def test_planar_point_sets_match_oracle(rows):
    assume(rank(IntMatrix(rows)) == 3)
    a = PointConfiguration(rows)
    assume(not is_pyramid(a))
    _agree(a)


# rank-4 vector configurations, many of whose rows lie in one of the two
# coordinate planes, so that some have complementary planes and some not
plane_row = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any)
rank4_rows = st.lists(
    st.one_of(
        plane_row.map(lambda v: (*v, 0, 0)),
        plane_row.map(lambda v: (0, 0, *v)),
        st.tuples(*[st.integers(-2, 2)] * 4),
    ),
    min_size=4,
    max_size=9,
)


@settings(max_examples=60, deadline=None)
@given(rank4_rows)
def test_plane_split_matches_pair_scan(rows):
    _agree_planes(reduce(GaleConfiguration(rows)).config)


# zero, repeated and parallel rows, which the planar duals never have
@settings(max_examples=60, deadline=None)
@given(rank4_rows)
def test_flats_and_covers_of_degenerate_rows_match_oracle(rows):
    _agree_flats(GaleConfiguration(rows))


@st.composite
def walk_rows(draw):
    """At most 10 rows of length at most 6, each fresh, zero, or a
    multiple of an earlier row."""
    m = draw(st.integers(1, 6))
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["fresh", "fresh", "zero", "parallel"]))
        if kind == "zero":
            rows.append((0,) * m)
        elif kind == "parallel" and rows:
            row = draw(st.sampled_from(rows))
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            rows.append(tuple(c * x for x in row))
        else:
            rows.append(tuple(draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))))
    return rows


@settings(max_examples=100, deadline=None)
@given(walk_rows())
def test_carried_residuals_match_cold_covers_and_oracle(rows):
    _agree_flats(GaleConfiguration(rows))


def test_a_cover_expansion_keeps_some_residuals_and_moves_others():
    # expanding the cover {0, 5} of the rank-0 flat adds the basis row
    # (1, 1, 0) with pivot 0: the residuals of rows 1 and 3 are zero
    # there and are kept, that of row 2 moves to pivot 1 with its sign
    # flipped, and that of row 4, (1, 1, 2), moves to pivot 2
    rows = [(1, 1, 0), (0, 1, 2), (1, 0, 1), (0, 0, 1), (-1, -1, -2), (2, 2, 0)]
    root = [echelon_extend((), row)[-1] for row in rows]
    new = root[0]
    assert new == (0, (1, 1, 0))
    assert [res[1][0] for res in root[1:5]] == [0, 1, 0, 1]
    assert echelon_extend((new,), root[2][1])[-1] == (1, (0, 1, -1))
    assert echelon_extend((new,), root[4][1])[-1] == (2, (0, 0, 1))
    _agree_flats(GaleConfiguration(rows))


@st.composite
def dual_rows(draw, least_m=1):
    """A homogeneous Gale dual of rank least_m <= m <= 5 with at most 10
    nonzero rows: fresh rows, parallel and antiparallel copies of earlier
    rows, and pairs v, -v, which form a splitting class unless a later
    row joins their line, closed by minus the sum of the rows when that
    is not zero."""
    m = draw(st.integers(least_m, 5))
    fresh = st.tuples(*[st.integers(-2, 2)] * m).filter(any)
    size = draw(st.integers(m, 9))
    rows: list[tuple[int, ...]] = []
    while len(rows) < size:
        kind = draw(st.sampled_from(["fresh", "fresh", "copy", "pair"]))
        if kind == "copy" and rows:
            row = draw(st.sampled_from(rows))
            c = draw(st.sampled_from([-2, -1, 1, 2]))
            rows.append(tuple(c * x for x in row))
        elif kind == "pair" and len(rows) + 2 <= size:
            v = draw(fresh)
            rows += [v, tuple(-x for x in v)]
        else:
            rows.append(draw(fresh))
    total = tuple(map(sum, zip(*rows)))
    if any(total):
        rows.append(tuple(-x for x in total))
    return rows


@settings(max_examples=150, deadline=None)
@given(dual_rows())
def test_a_reduction_without_splitting_classes_carries_its_rank(rows):
    # a rank that B has not worked out is not carried either
    b = GaleConfiguration(rows)
    assert reduce(b).config._rank is None
    known = b.rank
    red = reduce(b)
    if red.removed_splitting:
        assert red.config._rank is None
    else:
        assert red.config._rank == rank(red.config.matrix) == known


@settings(max_examples=150, deadline=None)
@given(dual_rows())
def test_reduced_dimension_walk_matches_unreduced_walk_and_jacobian(rows):
    b = GaleConfiguration(rows)
    assume(b.rank == b.m)
    dim = dual_variety_dim(b)
    assert dim == unreduced_dual_dim(b)
    _check_bounds(b)
    _agree_rho(b)
    try:
        a = dual_of(b)
    except DuplicatePoint:
        return
    assert dim == jacobian_dual_dim(a)


@settings(max_examples=100, deadline=None)
@given(dual_rows())
# d = 2 <= m = 3
@example([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [-2, -2, -2]])
# d = 5 > m = 2, no entry of B lam0 zero
@example([[1, 0], [0, 1], [1, 1], [1, -1], [2, 1], [-1, 2], [-4, -4]])
def test_jacobian_rank_matches_the_whole_matrix(rows):
    b = GaleConfiguration(rows)
    assume(b.rank == b.m)
    _agree_jacobian_rank(b)


def _cayley_rows(*parts):
    return gale_dual(cayley([segment(p) for p in parts])).matrix.to_lists()


@st.composite
def full_rank_reduction_rows(draw, m=5):
    """A homogeneous Gale dual of rank m with at most 10 nonzero rows, in
    random order, whose reduction keeps rank m unless the rows of some
    line happen to sum to zero: a triangular m x m block with nonzero
    diagonal, which spans; up to two more fresh rows; copies of those at
    one or two times, which keep a line's sum off zero; pairs v, -v,
    which the reduction drops; and minus the sum of the rows, when that
    is not zero."""
    entry = st.integers(-2, 2)
    pivot = st.sampled_from([-2, -1, 1, 2])
    fresh = st.tuples(*[entry] * m).filter(any)
    base = [
        tuple(draw(pivot) if j == i else draw(entry) if j > i else 0 for j in range(m))
        for i in range(m)
    ]
    base += draw(st.lists(fresh, max_size=2))
    rows = list(base)
    size = draw(st.integers(len(rows), 9))
    while len(rows) < size:
        if len(rows) + 2 <= size and draw(st.booleans()):
            v = draw(fresh)
            rows += [v, tuple(-x for x in v)]
        else:
            row = draw(st.sampled_from(base))
            rows.append(tuple(draw(st.sampled_from([1, 2])) * x for x in row))
    total = tuple(map(sum, zip(*rows)))
    if any(total):
        rows.append(tuple(-x for x in total))
    return draw(st.permutations(rows))


@st.composite
def cayley_line_rows(draw):
    """The Gale dual of the Cayley configuration of three sets of 2 to 4
    integers in 0..5, 9 points in all, so n = 9 and m = 5.  Each of the
    35,000 possible draws has a full-rank reduction and rho <= m - 2."""
    sizes = draw(st.sampled_from([(3, 3, 3), *permutations((2, 3, 4))]))
    sets = [
        draw(st.lists(st.integers(0, 5), min_size=k, max_size=k, unique=True))
        for k in sizes
    ]
    a = cayley([PointConfiguration([sorted(xs)]) for xs in sets])
    return gale_dual(a).matrix.to_lists()


@settings(max_examples=100, deadline=None)
@given(dual_rows())
# defect duals, whose walks meet many partial spans
@example(_cayley_rows(1, 2, 2, 2))
@example(_cayley_rows(1, 3, 3))
def test_partial_span_keys_are_reduced_echelon_forms(rows):
    # a state is keyed by the id of its flat, which the walk's memo
    # builds once and keeps; a state whose sigmas span less than its
    # flat is keyed by (that id, the basis itself), so that basis must
    # name its span: sorted by pivot, each row primitive, positive at its
    # pivot and zero at the other pivots
    b = GaleConfiguration(rows)
    assume(b.rank == b.m)
    memo: dict = {}
    seen: set = set()
    flag_walk(b, b.m - 1, memo, seen, closure(b, ()), (), (-1, ()))
    flats = {id(node[0]): node[0] for node in memo.values()}
    spans: dict = {}
    for state in seen:
        key, ext = state if isinstance(state, tuple) else (state, None)
        assert closure(b, flats[key].indices) == flats[key]
        if ext is None:
            continue
        pivots = [p for p, _ in ext]
        assert pivots == sorted(set(pivots))
        for p, row in ext:
            assert gcd(*row) == 1 and not any(row[:p]) and row[p] > 0
            assert all(row[q] == 0 for q in pivots if q != p)
        rref = oracle_rref([row for _, row in ext])[0]
        assert rref not in spans.setdefault(key, [])
        spans[key].append(rref)


@settings(max_examples=100, deadline=None)
@given(dual_rows())
def test_covers_come_out_in_index_order(rows):
    # walk_covers does not sort: each class enters at its smallest row,
    # and covers of one flat have disjoint new rows
    b = GaleConfiguration(rows)
    assume(b.rank == b.m)
    memo: dict = {}
    for level in flats_by_rank(b, b.m - 1):
        for fl in level:
            covers = list(walk_covers(b, memo, fl))
            assert covers == sorted(covers, key=lambda cover: cover.indices)


def _tamperings(b: GaleConfiguration, flag):
    """Flags one step away from ``flag``: one flat loses a member, gains
    an outside row, takes another sigma or claims another rank."""
    def at(j, fl):
        return flag[:j] + (fl,) + flag[j + 1:]

    for j, fl in enumerate(flag):
        for i in range(b.n):
            if i in fl.indices:
                indices = tuple(t for t in fl.indices if t != i)
            else:
                indices = tuple(sorted(fl.indices + (i,)))
            yield at(j, Flat(indices, fl.rank, b.sigma(indices)))
        for other in flag + (Flat((), 0, (0,) * b.m),):
            if other.sigma != fl.sigma:
                yield at(j, fl._replace(sigma=other.sigma))
        for rank in (fl.rank - 1, fl.rank + 1):
            yield at(j, fl._replace(rank=rank))


@settings(max_examples=100, deadline=None)
@given(dual_rows())
# reducible and not defect: rows 1 and 4 are a splitting class
@example([[1, 0, 1], [0, -2, -2], [-1, 0, -2], [-1, -1, -1], [0, 2, 2], [1, 1, 2]])
def test_witness_check_matches_the_whole_basis_oracle(rows):
    # the check carries residuals up the flag; the oracle reduces every
    # outside row against the whole basis at every flat
    b = GaleConfiguration(rows)
    for k in range(1, b.m):
        flag = find_nonsplitting_flag(b, k)
        if flag is None:
            continue
        assert is_nonsplitting_flag(b, flag)
        assert oracle_is_nonsplitting_flag(b, flag)
        for tampered in _tamperings(b, flag):
            expected = oracle_is_nonsplitting_flag(b, tampered)
            assert is_nonsplitting_flag(b, tampered) == expected, tampered


@settings(max_examples=150, deadline=None)
@given(dual_rows())
# random draws are rarely defect; these two are, with smaller reductions
@example(_cayley_rows(1, 2, 3))
@example(_cayley_rows(1, 3, 3))
def test_a_full_rank_reduction_has_a_nonsplitting_flag_exactly_when_b_has(rows):
    # the search on a full-rank reduction against the search on B, which
    # is the one ``is_dual_defect`` runs
    b = GaleConfiguration(rows)
    red = reduce(b).config
    assume(red.rank == b.m)
    on_red = find_nonsplitting_flag(red, b.m - 1)
    assert (on_red is None) == (find_nonsplitting_flag(b, b.m - 1) is None)


def _agree_flag_search_report(b: GaleConfiguration) -> None:
    # past the structural tests of a full-rank reduction, the report is
    # the one the exhaustive search of B alone gives
    flag = oracle_flag_search(b, b.m - 1)
    if flag is None:
        witness = {"kind": "no-nonsplitting-flag", "length": b.m - 1}
    else:
        witness = {"kind": "flag", "flats": [list(fl.indices) for fl in flag]}
    assert is_dual_defect(b) == (flag is None, "flag-search", witness)


@settings(max_examples=100, deadline=None)
@given(full_rank_reduction_rows())
# draws at m = 5 are rarely defect; these are, and the rho bound
# settles them with no search
@example(_cayley_rows(2, 2, 2))
@example(_cayley_rows(1, 2, 3))
@example(_cayley_rows(1, 2, 2, 2))
def test_the_rho_bound_gives_the_flag_search_report(rows):
    b = GaleConfiguration(rows)
    assume(reduce(b).config.rank == b.m)
    _agree_flag_search_report(b)


# the exhaustive search takes about 0.4 s on each of these defect duals
@settings(max_examples=20, deadline=None)
@given(cayley_line_rows())
def test_the_rho_bound_gives_the_flag_search_report_on_random_cayley_duals(rows):
    # random draws that reach the rho bound's defect branch
    b = GaleConfiguration(rows)
    assert reduce(b).config.rank == b.m
    assert rho_bound(b).sufficient_defect
    _agree_flag_search_report(b)


@pytest.mark.parametrize(
    "parts, dim, degenerate", [((1, 2, 2, 2), 7, False), ((1, 1, 1, 2), 5, True)]
)
def test_reduced_dimension_walk_on_cayley_fixtures(parts, dim, degenerate):
    # the reduction of cayley(1,1,1,2) loses rank: a walk on it would
    # give 3
    a = cayley([segment(p) for p in parts])
    b = gale_dual(a)
    assert (reduce(b).config.rank < b.m) is degenerate
    assert dual_variety_dim(a) == unreduced_dual_dim(b) == dim


@pytest.mark.parametrize(
    "parts",
    [(2, 2, 2), (1, 2, 2, 2), (2, 2, 3), (3, 3, 3), (2, 3, 4, 5), (3, 4, 5, 6), (4, 5, 6, 7)],
)
def test_cayley_ladder_dimension_matches_jacobian(parts, monkeypatch):
    # past n = 12 only with a raised size bound; the certificate settles
    # each of these with no walk, and the least rho meets the Jacobian
    a = cayley([segment(p) for p in parts])
    monkeypatch.setenv(SIZE_BOUND_ENV, str(a.n))
    monkeypatch.setattr(discforge.defect, "flag_walk", None)
    _agree_jacobian_rank(gale_dual(a))
    dim = jacobian_dual_dim(a)
    assert dual_variety_dim(a) == dim < a.n - 2
    rep = rho_bound(a)
    assert a.n - rep.m - 1 + rep.rho == dim
    assert rep.sufficient_defect


def test_the_walk_decides_when_the_bounds_differ(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args[1])
        return flag_walk(*args)

    monkeypatch.setattr(discforge.defect, "flag_walk", counted)
    # three rows on the line orthogonal to lam0 keep only their B part in
    # M(lam0), whose rank then falls below the generic one
    lam = _lambda0(2)
    v = primitive((lam[1], -lam[0]))
    rows = [v, v, v, (1, 0), (0, 1)]
    b = GaleConfiguration(rows + [tuple(-x for x in map(sum, zip(*rows)))])
    # so D = diag(B lam0) is singular, and with d = 4 > m = 2 the rank
    # is read off K D K^T
    _agree_jacobian_rank(b)
    low, up = _bounds(b)
    assert low < up == b.n - 2
    assert dual_variety_dim(b) == oracle_dual_variety_dim(dual_of(b)) == up
    assert calls == [1]
    # past the cap of the part search the upper bound is n - 2, above
    # the dimension of a defect input
    monkeypatch.setattr(discforge.defect, "MAX_PART_BITS", 0)
    a = cayley([segment(1), segment(2), segment(2), segment(2)])
    assert dual_variety_dim(a) == oracle_dual_variety_dim(a) == 7
    assert calls == [1, 5]
