import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    clear_denominators,
    det,
    oracle_lattice_index,
    oracle_nullspace,
    oracle_rref,
)

import discforge.lattice
from discforge.errors import DegenerateDual, DiscforgeError, NotInSpan, ParseError
from discforge.lattice import (
    IntMatrix,
    bareiss,
    echelon_extend,
    eliminate,
    integer_solve,
    kernel_lattice_basis,
    lattice_index,
    primitive,
    rank,
    rational_nullspace,
    row_hermite,
    row_hermite_transform,
    smallest_multiplier,
)


def test_intmatrix_rejects_ragged_and_nonint():
    with pytest.raises(ParseError, match="^matrix rows have unequal lengths$"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ParseError, match=r"^matrix entry 2\.5 is not an integer$"):
        IntMatrix([[1, 2.5]])
    with pytest.raises(ParseError, match="^matrix entry True is not an integer$"):
        IntMatrix([[1, True]])
    with pytest.raises(ParseError, match="^matrix entry '1' is not an integer$"):
        IntMatrix([[2], ["1"]])


def test_rank_and_det():
    assert rank(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])) == 2
    assert rank(IntMatrix([[2, 4], [1, 2]])) == 1
    assert det(IntMatrix([[3, 1], [1, 2]])) == 5
    assert det(IntMatrix([[0, 1], [1, 0]])) == -1
    assert det(IntMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30
    # singular, with the zero pivot in the last column
    assert det(IntMatrix([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 0
    # singular, with no pivot in the first column
    assert det(IntMatrix([[0, 1, 2], [0, 3, 4], [0, 5, 6]])) == 0
    # elimination swaps rows at each of the first three columns
    assert det(IntMatrix([[0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 5], [7, 1, 1, 1]])) == -210
    assert det(IntMatrix([])) == 1
    # a zero pivot forces a swap, and a later column has no pivot
    assert rank(IntMatrix([[0, 2, 4, 1], [3, 1, 2, 0], [6, 2, 4, 0]])) == 2
    assert rank(IntMatrix([[0, 0], [0, 5], [0, 7]])) == 1
    # pivot columns agree with Gauss-Jordan over Fraction, and the rank
    # is their number
    rng = random.Random(5)
    for _ in range(60):
        nr, nc, k = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 3)
        # random; rank-deficient products of an nr x k and a k x nc factor;
        # a zero top-left entry, which forces a row swap
        left = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(nr)]
        right = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(k)]
        swap = [[rng.randint(-3, 3) for _ in range(nc)] for _ in range(nr)]
        swap[0][0] = 0
        for rows in (
            [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)],
            [[sum(x * y for x, y in zip(lr, col)) for col in zip(*right)] for lr in left],
            swap,
        ):
            r, _, _, ech, pivots = bareiss(rows)
            assert pivots == oracle_rref(rows)[1]
            assert r == len(pivots) == len(ech) == rank(IntMatrix(rows))
            for row, c in zip(ech, pivots):
                assert row[c] and not any(row[:c])


@st.composite
def row_sequences(draw, width=None, max_rows=7):
    """Small integer rows, mixing fresh rows with zero rows, repeats and
    integer combinations of earlier rows."""
    if width is None:
        width = draw(st.integers(1, 5))
    entry = st.integers(-3, 3)
    rows: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, max_rows))):
        kind = draw(st.sampled_from(["fresh", "zero", "repeat", "combo"]))
        if kind == "zero" or (kind != "fresh" and not rows):
            rows.append((0,) * width)
        elif kind == "fresh":
            rows.append(tuple(draw(st.lists(entry, min_size=width, max_size=width))))
        elif kind == "repeat":
            rows.append(draw(st.sampled_from(rows)))
        else:
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            p, q = draw(entry), draw(entry)
            rows.append(tuple(p * x + q * y for x, y in zip(u, v)))
    return rows


@given(row_sequences())
def test_echelon_extend_tracks_rank(rows):
    basis = ()
    for j, row in enumerate(rows):
        grown = echelon_extend(basis, row)
        before = rank(IntMatrix(rows[:j])) if j else 0
        after = rank(IntMatrix(rows[: j + 1]))
        assert len(grown) == after
        assert (grown is basis) == (after == before)
        # every row primitive, zero before its pivot and positive there
        for p, r in grown:
            assert gcd(*r) == 1
            assert not any(r[:p]) and r[p] > 0
            assert r == primitive(r)
        basis = grown


def _as_checked(m: IntMatrix) -> None:
    # the matrix the checked constructor builds from the same rows
    assert type(m.data) is tuple
    assert all(type(r) is tuple and all(type(x) is int for x in r) for r in m.data)
    assert IntMatrix(m.data) == m


@given(row_sequences())
def test_computed_matrices_hold_what_the_checked_constructor_would(rows):
    # transpose, the Hermite outputs and the kernel basis wrap the rows
    # they compute with no per-entry check
    m = IntMatrix(rows)
    _as_checked(m.transpose())
    for out in row_hermite_transform(m):
        _as_checked(out)
    _as_checked(row_hermite(m))
    _as_checked(kernel_lattice_basis(m))


@st.composite
def row_steps(draw):
    """A vector v and a nonzero row with its pivot, the row's first
    nonzero entry, as every caller of ``eliminate`` passes them."""
    width = draw(st.integers(1, 5))
    vec = st.lists(st.integers(-6, 6), min_size=width, max_size=width)
    row = draw(vec.filter(any))
    p = next(j for j, x in enumerate(row) if x)
    return draw(vec), p, row


@given(row_steps(), st.integers(-5, 5).filter(bool))
def test_eliminate_is_the_fraction_row_step_in_normal_form(step, c):
    v, p, row = step
    w = eliminate(v, p, row)
    assert w[p] == 0
    # inside span{v, row}, and zero exactly when v lies on the line of row
    span = len(oracle_rref([v, row])[1])
    assert len(oracle_rref([v, row, w])[1]) == span
    assert any(w) == (span == 2)
    # the Fraction residual v - (v[p] / row[p]) * row, in normal form
    t = Fraction(v[p], row[p])
    assert w == primitive(clear_denominators([x - t * y for x, y in zip(v, row)]))
    # content 1 and positive at the first nonzero entry
    if any(w):
        assert gcd(*w) == 1 and next(filter(None, w)) > 0
    # primitive keeps the line of v and forgets its scale
    assert len(oracle_rref([v, primitive(v)])[1]) == len(oracle_rref([v])[1])
    assert primitive([c * x for x in v]) == primitive(v)
    assert primitive([0] * len(v)) == (0,) * len(v)


def test_row_hermite_transform_reconstructs():
    m = IntMatrix([[4, 6, 2], [2, 2, 0], [0, 2, 2]])
    h, u = row_hermite_transform(m)
    # H = U * M exactly
    for i in range(h.rows):
        for j in range(h.cols):
            assert h.row(i)[j] == sum(
                u.row(i)[k] * m.row(k)[j] for k in range(m.rows)
            )
    assert abs(det(u)) == 1


def test_row_hermite_canonical_shape():
    h = row_hermite(IntMatrix([[2, 4, 4], [0, 6, 12], [0, 0, 0]]))
    assert h.to_lists() == [[2, 4, 4], [0, 6, 12]]
    # pivots positive, entries above reduced into [0, pivot)
    h2 = row_hermite(IntMatrix([[1, 5], [0, 3]]))
    assert h2.to_lists() == [[1, 2], [0, 3]]


def test_kernel_lattice_twisted_cubic():
    a = IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
    basis = kernel_lattice_basis(a)
    assert len(basis.data) == 2
    for v in basis.data:
        assert all(
            sum(a.row(i)[j] * v[j] for j in range(4)) == 0 for i in range(2)
        )
    # saturated: the basis generates the full integer kernel
    b = IntMatrix([list(v) for v in basis.data]).transpose()
    assert lattice_index(b) == 1


def test_kernel_respects_known_vector():
    # (1,-2,1) spans the kernel of the quadratic configuration
    a = IntMatrix([[1, 1, 1], [0, 1, 2]])
    basis = kernel_lattice_basis(a)
    assert list(basis.data) == [(1, -2, 1)]


def test_lattice_index():
    assert lattice_index(IntMatrix([[1], [3], [-2], [-2]])) == 1
    assert lattice_index(IntMatrix([[2], [-2]])) == 2
    assert lattice_index(IntMatrix([[1, 0], [0, 1], [1, 1]])) == 1
    assert lattice_index(IntMatrix([[2, 0], [0, 2], [2, 2]])) == 4
    with pytest.raises(DegenerateDual):
        lattice_index(IntMatrix([[1, 2], [2, 4]]))


@st.composite
def tall_matrices(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    entries = st.integers(-6, 6)
    return IntMatrix(
        draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=n, max_size=n))
    )


@given(tall_matrices(), st.integers(2, 5))
def test_lattice_index_is_the_minor_gcd(c, k):
    # scaling a column by k makes an index of at least k
    scaled = IntMatrix([(row[0] * k,) + row[1:] for row in c.data])
    for mat in (c, scaled):
        g = oracle_lattice_index(mat)
        if g == 0:
            with pytest.raises(DegenerateDual):
                lattice_index(mat)
        else:
            assert lattice_index(mat) == g


def test_integer_solve():
    m = IntMatrix([[0, 1], [-3, 1], [2, -3], [-1, 1], [2, 0]])
    gamma = integer_solve(m, (1, 0))
    assert gamma is not None
    assert tuple(
        sum(g * m.row(i)[j] for i, g in enumerate(gamma)) for j in range(2)
    ) == (1, 0)
    # no integer combination of even vectors reaches an odd target
    assert integer_solve(IntMatrix([[2, 0], [0, 2]]), (1, 0)) is None


def test_smallest_multiplier():
    rows = IntMatrix([[0, 1], [-3, 1], [2, -3], [-1, 1], [2, 0]])
    assert smallest_multiplier(rows, (1, 0)) == 1
    assert smallest_multiplier(IntMatrix([[2, 0], [0, 1]]), (1, 0)) == 2
    with pytest.raises(NotInSpan):
        smallest_multiplier(IntMatrix([[1, 0]]), (0, 1))


def test_rational_nullspace_and_clear():
    rows = [[Fraction(1), Fraction(2), Fraction(3)]]
    basis = rational_nullspace(rows)
    assert basis == [(-2, 1, 0), (-3, 0, 1)]
    for v in basis:
        assert sum(r * x for r, x in zip(rows[0], v)) == 0
    # rows are cleared of denominators; the vector is positive at its free
    # column, whatever the sign of the last pivot
    assert rational_nullspace([[Fraction(1, 2), Fraction(-3, 4)]]) == [(3, 2)]
    assert rational_nullspace([[-2, 3], [4, -6]]) == [(3, 2)]
    assert rational_nullspace([[1, 0], [0, 1]]) == []
    assert rational_nullspace([]) == []
    assert clear_denominators([Fraction(1, 2), Fraction(-3, 4)]) == (2, -3)
    assert clear_denominators([Fraction(2), Fraction(4)]) == (1, 2)


def test_rational_nullspace_refuses_an_inexact_back_substitution(monkeypatch):
    # an echelon form whose last pivot is not the pivot minor: 2 v0 + v1 = 0
    # with v1 = 1 has no integer solution
    monkeypatch.setattr(
        discforge.lattice, "bareiss", lambda rows: (1, 1, 1, [[2, 1]], [0])
    )
    with pytest.raises(DiscforgeError, match="not exact"):
        rational_nullspace([[2, 1]])


@st.composite
def nullspace_inputs(draw):
    """Int or Fraction rows: fresh, zero, repeated and dependent rows,
    zero columns, and as many as twice the width, or a single row."""
    width = draw(st.integers(1, 5))
    rows = draw(row_sequences(width, max_rows=2 * width + 1))
    if not rows:
        rows = [tuple(draw(st.lists(st.integers(-3, 3), min_size=width, max_size=width)))]
    zero_col = draw(st.integers(-1, width - 1))
    if zero_col >= 0:
        rows = [r[:zero_col] + (0,) + r[zero_col + 1 :] for r in rows]
    dens = st.integers(1, 4)
    if draw(st.booleans()):
        rows = [tuple(Fraction(x, draw(dens)) for x in r) for r in rows]
    return rows


@settings(max_examples=200)
@given(nullspace_inputs())
def test_rational_nullspace_matches_gauss_jordan(rows):
    basis = rational_nullspace(rows)
    expect = oracle_nullspace(rows)
    assert len(basis) == len(expect)
    for v in basis:
        assert all(isinstance(x, int) for x in v)
        assert any(v) and gcd(*v) == 1
        assert all(sum(a * x for a, x in zip(r, v)) == 0 for r in rows)
    # the same free columns, so each vector is the oracle's, made primitive
    # and positive at its free column; both bases span one space
    _, pivots = oracle_rref(rows)
    free = [c for c in range(len(rows[0])) if c not in pivots]
    cleared = [clear_denominators(w) for w in expect]
    assert basis == [
        tuple(x if w[f] > 0 else -x for x in w) for w, f in zip(cleared, free)
    ]
    if basis:
        assert rank(IntMatrix(basis + cleared)) == len(basis)
