import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discforge.config import (
    GaleConfiguration,
    PointConfiguration,
    cayley,
    dual_of,
    gale_dual,
    gale_side,
    is_homogeneous,
    is_pyramid,
    segment,
    standard_form,
)
from discforge.errors import (
    DegenerateDual,
    DuplicatePoint,
    NotHomogeneous,
    ParseError,
)
from discforge.lattice import IntMatrix, lattice_index, rank


def test_point_configuration_validation():
    with pytest.raises(DuplicatePoint):
        PointConfiguration([[1, 1], [2, 2]])
    with pytest.raises(DegenerateDual):
        PointConfiguration([[1, 2], [2, 4]])
    cfg = PointConfiguration([[1, 1, 1], [0, 1, 2]])
    assert cfg.d == 2 and cfg.n == 3
    assert cfg.point(2) == (1, 2)
    assert cfg.labels == ("x1", "x2", "x3")


def test_is_homogeneous():
    assert is_homogeneous(PointConfiguration([[1, 1, 1], [0, 1, 2]]))
    # no multiple of (0,1,2) equals (1,1,1)
    assert not is_homogeneous(PointConfiguration([[0, 1, 2]]))
    # homogeneous without an explicit row of ones
    assert is_homogeneous(PointConfiguration([[2, 2, 2], [0, 1, 2]]))
    # full row rank in square shape: row span is everything
    assert is_homogeneous(PointConfiguration([[1, 0], [0, 2]]))


def test_gale_dual_quadratic():
    b = gale_dual(PointConfiguration([[1, 1, 1], [0, 1, 2]]))
    assert b.matrix.to_lists() == [[1], [-2], [1]]
    assert b.index == 1
    assert b.is_homogeneous()


def test_gale_dual_twisted_cubic():
    a = PointConfiguration([[1, 1, 1, 1], [0, 1, 2, 3]])
    b = gale_dual(a)
    assert b.n == 4 and b.m == 2
    assert b.index == 1
    assert b.is_homogeneous()
    # every dual column is killed by A
    for k in range(b.m):
        col = b.matrix.col(k)
        for i in range(a.d):
            assert sum(a.matrix.row(i)[j] * col[j] for j in range(a.n)) == 0


def test_dual_round_trip():
    a = PointConfiguration([[1, 1, 1, 1], [0, 1, 2, 3]])
    back = standard_form(dual_of(gale_dual(a)))
    assert back.matrix.to_lists() == [[1, 1, 1, 1], [0, 1, 2, 3]]


def test_dual_of_a_gale_dual_with_no_columns():
    # a full-rank A has m = 0; the saturated lattice orthogonal to no
    # columns is all of Z^n, so its dual is the identity configuration
    a = PointConfiguration([[1, 1], [0, 1]])
    b = gale_dual(a)
    assert (b.n, b.m) == (2, 0)
    back = dual_of(b)
    assert back.matrix.to_lists() == [[1, 0], [0, 1]]
    assert back.labels == a.labels
    assert gale_dual(back) == b
    assert standard_form(back) == standard_form(a)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-2, 2), min_size=d, max_size=d),
            min_size=d,
            max_size=7,
        )
    )
)
def test_gale_dual_carries_its_rank_and_index(points):
    # B's columns are a Hermite basis of a saturated lattice, so its rank
    # is m and its index 1 with nothing recomputed
    try:
        a = PointConfiguration([list(r) for r in zip(*points)])
    except (DuplicatePoint, DegenerateDual):
        assume(False)
    b = gale_dual(a)
    assert b.rank == rank(b.matrix) == b.m == a.n - a.d
    assert b.index == lattice_index(b.matrix) == 1


def test_standard_form_requires_homogeneous():
    with pytest.raises(NotHomogeneous):
        standard_form(PointConfiguration([[0, 1, 2]]))


def test_standard_form_square_full_rank():
    # empty Gale dual: the saturated row lattice is all of Z^2
    s = standard_form(PointConfiguration([[1, 0], [0, 2]]))
    assert s.matrix.row(0) == (1, 1)
    assert gale_dual(s).m == 0


def test_gale_configuration_basics():
    b = GaleConfiguration([[0, 1], [-3, 1], [2, -3], [-1, 1], [1, 0], [3, 0], [-2, 0]])
    assert b.n == 7 and b.m == 2
    assert b.sigma() == (0, 0)
    assert b.sigma([4, 5, 6]) == (2, 0)
    assert b.is_homogeneous()
    assert b.zero_rows() == ()
    assert b.rank == 2 and b.index == 1


def test_pyramid_detection():
    # apex point over the quadratic: dual vector vanishes at the apex
    a = PointConfiguration([[1, 1, 1, 0], [0, 1, 2, 0], [0, 0, 0, 1]])
    assert is_pyramid(a)
    assert gale_dual(a).zero_rows() == (3,)
    assert not is_pyramid(PointConfiguration([[1, 1, 1], [0, 1, 2]]))
    # n = d has an empty dual
    assert is_pyramid(PointConfiguration([[1, 0], [0, 1]]))


def test_segment():
    assert segment(3).matrix.to_lists() == [[0, 1, 2, 3]]
    with pytest.raises(ParseError):
        segment(0)


def test_cayley_three_segments():
    cfg = cayley([segment(1), segment(1), segment(1)])
    assert cfg.matrix.to_lists() == [
        [1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1],
        [0, 1, 0, 1, 0, 1],
    ]
    assert is_homogeneous(cfg)


def test_cayley_mixed_lengths():
    cfg = cayley([segment(1), segment(2)])
    assert cfg.n == 5 and cfg.d == 3
    with pytest.raises(ValueError):
        cayley([])


def test_labels_flow_through_duality():
    a = PointConfiguration([[1, 1, 1], [0, 1, 2]], labels=("p", "q", "r"))
    b = gale_dual(a)
    assert b.labels == ("p", "q", "r")


def test_gale_side():
    a = PointConfiguration([[1, 1, 1], [0, 1, 2]])
    assert gale_side(a) == gale_dual(a)
    # a Gale configuration passes through, even one with no point dual
    b = GaleConfiguration([[1, 0], [1, 0], [-2, 0]])
    assert gale_side(b) is b
    with pytest.raises(TypeError):
        gale_side([[1, -2, 1]])


def test_matrix_parse_error():
    with pytest.raises(ParseError):
        IntMatrix("nonsense")
