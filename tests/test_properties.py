"""Property suites: canonical form, reduction, resultants, Horn samples,
extend/contract round trips."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import oracle_resultant

from discforge.config import GaleConfiguration
from discforge.disc import (
    contract,
    discriminant,
    discriminant_codim1,
    extend_plus_minus,
    horn_eval,
    horn_implicitize_rank2,
)
from discforge.errors import OnExceptionalLocus
from discforge.matroid import collinear_classes
from discforge.matroid import reduce as reduce_config
from discforge.poly import (
    SparsePolynomial,
    UniPoly,
    poly_from_json_dict,
    poly_to_json_dict,
    resultant_u,
)

# -- canonical form ------------------------------------------------------

exponents = st.tuples(
    st.integers(-2, 4), st.integers(-2, 4), st.integers(0, 3)
)
coefficients = st.integers(-30, 30).filter(bool)
polys = st.dictionaries(exponents, coefficients, min_size=1, max_size=6).map(
    lambda d: SparsePolynomial(3, d)
)


@given(polys)
def test_normalize_idempotent(f):
    norm = f.normalize()
    assert norm.normalize() == norm
    assert norm.content() == 1
    assert norm.min_exponents() == (0, 0, 0)
    assert norm.leading()[1] > 0


@given(polys, st.integers(-5, 5).filter(bool), st.tuples(
    st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)
))
def test_normalize_mods_out_monomial_scalar_sign(f, c, shift):
    assert (f * c).shift(shift).normalize() == f.normalize()


@given(polys)
def test_json_round_trip(f):
    obj = poly_to_json_dict(f)
    back, names = poly_from_json_dict(obj)
    assert back == f
    assert names == [f"x{i + 1}" for i in range(f.n)]


# -- reduction -----------------------------------------------------------

vectors = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    min_size=1,
    max_size=6,
)


@given(vectors)
def test_reduce_idempotent(rows):
    red = reduce_config(GaleConfiguration(rows)).config
    again = reduce_config(red)
    assert again.config.matrix.to_lists() == red.matrix.to_lists()
    assert red.zero_rows() == ()
    assert all(len(cls) == 1 for cls in collinear_classes(red))


# -- resultant sign symmetry ---------------------------------------------

coeff_polys = st.dictionaries(
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.integers(-9, 9).filter(bool),
    max_size=3,
).map(lambda d: SparsePolynomial(2, d))

unipolys = st.lists(coeff_polys, min_size=1, max_size=4).filter(
    lambda cs: not cs[-1].is_zero()
).map(lambda cs: UniPoly(2, cs))


@settings(max_examples=60, deadline=None)
@given(unipolys, unipolys)
def test_resultant_sign_symmetry(f, g):
    assume(f.degree() + g.degree() > 0)
    sign = -1 if (f.degree() * g.degree()) % 2 else 1
    assert resultant_u(f, g) == sign * resultant_u(g, f)


def unipolys_of_degree(d):
    return st.tuples(
        st.lists(coeff_polys, min_size=d, max_size=d), coeff_polys.filter(bool)
    ).map(lambda t: UniPoly(2, t[0] + [t[1]]))


# every pair of u-degrees 0-3 but two constants: a linear f, a linear g,
# both linear, a constant side, and both >= 2, which alone still take
# the Sylvester elimination
RESULTANT_DEGREES = [(df, dg) for df in range(4) for dg in range(4) if df or dg]


@pytest.mark.parametrize("df, dg", RESULTANT_DEGREES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_resultant_matches_the_laplace_oracle(df, dg, data):
    f = data.draw(unipolys_of_degree(df))
    g = data.draw(unipolys_of_degree(dg))
    assert resultant_u(f, g) == oracle_resultant(f, g)


@settings(max_examples=60, deadline=None)
@given(unipolys_of_degree(1), unipolys, st.booleans(), st.data())
def test_resultant_with_a_linear_side_refuses_laurent_coefficients(
    linear, other, on_linear, data
):
    pair = [linear, other]
    i = 0 if on_linear else 1
    coeffs = list(pair[i].coeffs)
    k = data.draw(st.sampled_from([k for k, c in enumerate(coeffs) if c]))
    # exponents of coeff_polys are at most 2, so this shift makes each
    # term of the chosen coefficient Laurent
    coeffs[k] = coeffs[k].shift((-3, 0))
    pair[i] = UniPoly(2, coeffs)
    for f, g in (pair, pair[::-1]):
        with pytest.raises(ValueError, match="Laurent"):
            resultant_u(f, g)


# -- Horn sample vanishing -----------------------------------------------

HORN_POOL = [
    GaleConfiguration([[1, 0], [0, 1], [-3, -2], [2, 1]]),
    GaleConfiguration([[1, 0], [-2, 1], [1, -2], [0, 1]]),
    GaleConfiguration([[0, 1], [-3, 1], [2, -3], [-1, 1], [2, 0]]),
]


def fresh_parameters():
    # non-integer rationals, disjoint from the integer stream the
    # implicitizer samples internally
    for q in (2, 3, 5, 7, 11):
        for p in range(1, 100):
            if p % q:
                yield Fraction(p, q)


def test_horn_samples_vanish_on_curve():
    for cfg in HORN_POOL:
        f = horn_implicitize_rank2(cfg)
        hits = 0
        for t in fresh_parameters():
            try:
                z = horn_eval(cfg, (t, 1))
            except OnExceptionalLocus:
                continue
            assert f.evaluate(z) == 0
            hits += 1
            if hits == 10:
                break
        assert hits == 10


# -- extend/contract round trip ------------------------------------------

from conftest import random_codim1_vectors

codim1_vectors = st.sampled_from(random_codim1_vectors(40))


@settings(max_examples=40, deadline=None)
@given(codim1_vectors, st.integers(1, 3))
def test_extend_contract_round_trip(b, s):
    base = GaleConfiguration([[x] for x in b])
    ext = discriminant(extend_plus_minus(base, (s,)))
    assert contract(ext.poly) == discriminant_codim1(b)
