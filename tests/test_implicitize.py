"""Rank-2 implicitization at the a-priori Horn-curve degree.

The degree of the Horn curve is its number of poles, one count per dual
row, so it is known before any sampling; the discriminant built from the
curve must vanish on the Horn-Kapranov uniformization.  So must the
glued discriminants of rank-2 duals with one collinear class, whose
inner factor is an implicitized curve.  The implicitizer eliminates only
the first N - 1 sample rows and certifies that kernel on the rest; the
full interpolation of ``oracles`` must give the same polynomial.  The
Horn map itself, in integer linear forms, must agree with the plain
Fraction map of ``oracles``, exceptional locus included.
"""

from fractions import Fraction
from math import gcd
from time import perf_counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from oracles import (
    horn_kapranov_point,
    oracle_horn_curve,
    oracle_horn_map,
    oracle_lattice_index,
)

import discforge.disc
from discforge.config import GaleConfiguration, dual_of
from discforge.defect import is_dual_defect
from discforge.disc import discriminant, horn_eval, horn_implicitize_rank2
from discforge.errors import (
    KernelDimensionNotOne,
    NotHomogeneous,
    OnExceptionalLocus,
    Unsupported,
)
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


@st.composite
def horn_map_inputs(draw):
    """m = 1, 2 or 3 columns with entries in [-2, 2], zero rows mixed in,
    homogeneous in most draws; and a parameter point of Fractions p/q
    with q of either sign and mostly not 1, so the linear forms often
    vanish and the denominators differ between coordinates."""
    m = draw(st.integers(1, 3))
    entry = st.integers(-2, 2)
    rows = draw(st.lists(st.tuples(*[entry] * m), min_size=1, max_size=4))
    rows += [(0,) * m] * draw(st.integers(0, 2))
    last = tuple(-sum(r[k] for r in rows) for k in range(m))
    if draw(st.integers(0, 4)) == 0:
        last = draw(st.tuples(*[entry] * m))
    rows.append(last)
    order = draw(st.permutations(range(len(rows))))
    denominator = st.sampled_from([-6, -4, -3, -2, -1, 1, 2, 3, 5])
    zeta = draw(st.tuples(*[st.builds(Fraction, st.integers(-3, 3), denominator)] * m))
    return GaleConfiguration([rows[i] for i in order]), zeta


def _outcome(horn_map, cfg, zeta):
    try:
        value = horn_map(cfg, zeta)
    except (NotHomogeneous, OnExceptionalLocus) as exc:
        return type(exc), str(exc)
    assert all(type(x) is Fraction for x in value)
    return value


@settings(max_examples=300, deadline=None)
@given(horn_map_inputs())
def test_horn_map_matches_the_fraction_oracle(drawn):
    cfg, zeta = drawn
    assert _outcome(horn_eval, cfg, zeta) == _outcome(oracle_horn_map, cfg, zeta)


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


# D = 3; the linear forms t - 1, t + 2, 1, -2t - 2 vanish at t = 1, -1
# and -2, so the sampler must skip three parameter values
SKIPPED_SAMPLE_ROWS = [(1, -1), (1, 2), (0, 1), (-2, -2)]


@settings(max_examples=25, deadline=None)
@given(irreducible_rank2_rows())
@example(SKIPPED_SAMPLE_ROWS)
def test_leading_rows_give_the_full_interpolation(rows):
    assert horn_implicitize_rank2(GaleConfiguration(rows)) == oracle_horn_curve(rows)


@pytest.mark.parametrize("k", range(2, 7))
def test_leading_rows_on_the_degree_k_family(k):
    rows = [(1, 0), (0, 1), (-k, -(k - 1)), (k - 1, k - 2)]
    assert horn_implicitize_rank2(GaleConfiguration(rows)) == oracle_horn_curve(rows)


# D = 3: ten monomials, so the first nine of the ten sample rows are leading
CUBIC_ROWS = [(1, 0), (0, 1), (-3, -2), (2, 1)]


def _nullspace_calls(monkeypatch, replies):
    """Record the row counts handed to the nullspace; ``replies`` maps a
    row count to a stand-in kernel."""
    real = discforge.disc.rational_nullspace
    calls = []

    def fake(rows):
        calls.append(len(rows))
        return replies[len(rows)] if len(rows) in replies else real(rows)

    monkeypatch.setattr(discforge.disc, "rational_nullspace", fake)
    return calls


def test_a_wide_leading_kernel_falls_through_to_all_rows(monkeypatch):
    expected = horn_implicitize_rank2(GaleConfiguration(CUBIC_ROWS))
    calls = _nullspace_calls(monkeypatch, {9: [(1,) * 10, (2,) * 10]})
    assert horn_implicitize_rank2(GaleConfiguration(CUBIC_ROWS)) == expected
    assert calls == [9, 10]


def test_a_leading_vector_off_a_later_row_is_refused(monkeypatch):
    # z1^3 alone cannot vanish at the tenth curve point
    calls = _nullspace_calls(monkeypatch, {9: [(0,) * 9 + (1,)]})
    with pytest.raises(KernelDimensionNotOne, match="dimension 0 at degree 3"):
        horn_implicitize_rank2(GaleConfiguration(CUBIC_ROWS))
    assert calls == [9]


def _directions():
    return st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(any).map(_line)


@st.composite
def glue_rank2_rows(draw):
    """Rank-2 duals of index 1 with one collinear class, a pair on the
    line of w, among rows on distinct other lines.  The class sum is zero
    (the pair b, -b; route glue-splitting, inner dual the other rows) or
    not (route glue-extended, inner dual the other rows and the class
    sum).  The inner dual has at least four rows, index 1 and curve
    degree at most 6."""
    splitting = draw(st.booleans())
    w = draw(_directions())
    if splitting:
        betas = (1, -1)
    else:
        betas = draw(st.sampled_from([(1, 1), (1, 2), (2, 1), (2, -1), (-1, 2)]))
    pair = [tuple(b * x for x in w) for b in betas]
    sigma = (pair[0][0] + pair[1][0], pair[0][1] + pair[1][1])
    entry = st.integers(-2, 2)
    vectors = st.tuples(entry, entry).filter(lambda v: any(v) and _line(v) != w)
    k = draw(st.integers(3, 4)) if splitting else draw(st.integers(2, 3))
    rest = draw(st.lists(vectors, min_size=k, max_size=k, unique_by=_line))
    # the last other row balances the sum
    rest.append((-sum(r[0] for r in rest) - sigma[0], -sum(r[1] for r in rest) - sigma[1]))
    inner = rest + ([] if splitting else [sigma])
    assume(any(rest[-1]) and len({_line(r) for r in rest + [w]}) == len(rest) + 1)
    assume(oracle_lattice_index(IntMatrix(inner)) == 1)
    assume(pole_count(inner) <= 6)
    rows = rest + pair
    assume(oracle_lattice_index(IntMatrix(rows)) == 1)
    order = draw(st.permutations(range(len(rows))))
    return [rows[i] for i in order], ("glue-splitting" if splitting else "glue-extended")


@settings(max_examples=25, deadline=None)
@given(glue_rank2_rows(), st.data())
def test_glued_discriminant_vanishes_on_the_uniformization(drawn, data):
    rows, route = drawn
    b = GaleConfiguration(rows)
    assume(not is_dual_defect(b).defect)
    result = discriminant(b)
    assert result.provenance["method"] == route
    assert result.provenance["inner"]["method"] == "implicitize"
    a = dual_of(b).matrix
    points = []
    while len(points) < 3:
        lam = data.draw(st.tuples(nonzero, nonzero))
        t = data.draw(st.tuples(*[nonzero] * a.rows))
        c = horn_kapranov_point(a, b.matrix, lam, t)
        # a zero coordinate is off the torus; the discriminant need not vanish
        if all(c):
            points.append(c)
    for c in points:
        assert result.poly.evaluate(c) == 0
    # off the uniformization, in a variable the discriminant involves
    k = next(i for i in range(b.n) if any(e[i] for e in result.poly.terms))
    c = list(points[0])
    c[k] += Fraction(1, 7)
    assert result.poly.evaluate(c) != 0


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

