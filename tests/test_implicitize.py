"""Rank-2 implicitization at the a-priori Horn-curve degree.

The degree of the Horn curve is its number of poles, one count per dual
row, so it is known before any sampling; the discriminant built from the
curve must vanish on the Horn-Kapranov uniformization.
"""

from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import horn_kapranov_point, oracle_lattice_index

from discforge.config import GaleConfiguration, dual_of
from discforge.disc import discriminant, horn_implicitize_rank2
from discforge.errors import Unsupported
from discforge.lattice import IntMatrix


def pole_count(rows) -> int:
    return sum(max(0, -b1, -b2) for b1, b2 in rows)


def _line(v) -> tuple[int, int]:
    g = gcd(*v)
    w = (v[0] // g, v[1] // g)
    return w if w > (0, 0) else (-w[0], -w[1])


@st.composite
def irreducible_rank2_rows(draw):
    """Homogeneous rank-2 duals of index 1 with no two rows on one line,
    with curve degree at most 6; at least four rows, so the dual points
    are distinct."""
    n = draw(st.integers(4, 5))
    entry = st.integers(-2, 2)
    vectors = st.tuples(entry, entry).filter(any)
    rows = draw(st.lists(vectors, min_size=n - 1, max_size=n - 1, unique_by=_line))
    rows.append((-sum(r[0] for r in rows), -sum(r[1] for r in rows)))
    assume(any(rows[-1]) and len({_line(r) for r in rows}) == n)
    assume(oracle_lattice_index(IntMatrix(rows)) == 1)
    assume(pole_count(rows) <= 6)
    return rows


nonzero = st.integers(-4, 4).filter(bool)


@settings(max_examples=25, deadline=None)
@given(irreducible_rank2_rows(), st.data())
def test_curve_degree_is_the_pole_count(rows, data):
    b = GaleConfiguration(rows)
    result = discriminant(b)
    assert result.provenance == {"method": "implicitize", "curve_degree": pole_count(rows)}
    a = dual_of(b).matrix
    for _ in range(3):
        lam = data.draw(st.tuples(nonzero, nonzero))
        t = data.draw(st.tuples(*[nonzero] * a.rows))
        c = horn_kapranov_point(a, b.matrix, lam, t)
        # a zero coordinate is off the torus; the discriminant need not vanish
        if all(c):
            assert result.poly.evaluate(c) == 0


def test_horn_kapranov_point_off_the_curve_is_detected():
    # the check above is not vacuous: the discriminant does not vanish
    # once one coordinate leaves the uniformization
    b = GaleConfiguration([[1, 0], [-2, 1], [1, -2], [0, 1]])
    result = discriminant(b)
    a = dual_of(b).matrix
    c = list(horn_kapranov_point(a, b.matrix, (1, 1), (2, 3)))
    assert result.poly.evaluate(c) == 0
    c[0] += Fraction(1, 7)
    assert result.poly.evaluate(c) != 0


def test_oversized_curve_is_refused_at_once():
    b = GaleConfiguration([[1, 0], [0, 1], [-17, -16], [16, 15]])
    assert pole_count(b.rows()) == 17
    for call in (horn_implicitize_rank2, discriminant):
        t0 = perf_counter()
        with pytest.raises(Unsupported, match="degree 17"):
            call(b)
        assert perf_counter() - t0 < 1.0

