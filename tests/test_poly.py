from fractions import Fraction

import pytest

from discforge.errors import NoVariable, ZeroCoordinate, ZeroSubstitution
from discforge.poly import (
    SparsePolynomial,
    UniPoly,
    divides,
    exact_quotient,
    newton_vertices,
    poly_from_json_dict,
    poly_to_json_dict,
    resultant_u,
    scaled_substitute,
)


def cubic_disc() -> SparsePolynomial:
    return SparsePolynomial(
        4,
        {
            (0, 2, 2, 0): 1,
            (1, 0, 3, 0): -4,
            (0, 3, 0, 1): -4,
            (1, 1, 1, 1): 18,
            (2, 0, 0, 2): -27,
        },
    )


def test_constructor_merges_and_strips():
    f = SparsePolynomial(2, {(1, 0): 2, (0, 1): 0})
    assert f.terms == {(1, 0): 2}
    g = SparsePolynomial(1, {(2,): 3}) + SparsePolynomial(1, {(2,): -3})
    assert g.is_zero()


def test_arithmetic_and_powers():
    x = SparsePolynomial.variable(2, 0)
    y = SparsePolynomial.variable(2, 1)
    f = (x + y) ** 3
    assert f.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert (f - f).is_zero()
    assert (2 * x).terms == {(1, 0): 2}


def test_sorted_terms_graded_reverse_lex():
    f = cubic_disc()
    order = [e for e, _ in f.sorted_terms()]
    assert order == [
        (0, 2, 2, 0),
        (1, 0, 3, 0),
        (0, 3, 0, 1),
        (1, 1, 1, 1),
        (2, 0, 0, 2),
    ]
    assert f.leading() == ((0, 2, 2, 0), 1)


def test_format():
    f = cubic_disc()
    assert (
        str(f)
        == "x2^2*x3^2 - 4*x1*x3^3 - 4*x2^3*x4 + 18*x1*x2*x3*x4 - 27*x1^2*x4^2"
    )
    assert str(SparsePolynomial.zero(2)) == "0"
    assert str(SparsePolynomial.constant(2, -7)) == "-7"


def test_normalize():
    # shift Laurent support to zero, divide content, fix leading sign
    f = SparsePolynomial(2, {(-1, 2): -6, (1, 0): 4})
    g = f.normalize()
    assert g.terms == {(0, 2): -3, (2, 0): 2}
    assert g == f.normalize().normalize()
    assert g.min_exponents() == (0, 0)
    assert g.content() == 1
    assert g.leading()[1] > 0


def test_normalize_fixed_point_values():
    f = SparsePolynomial(3, {(1, 2, 0): -8, (0, 0, 2): 12})
    assert f.normalize().terms == {(1, 2, 0): 2, (0, 0, 2): -3}


def test_specialize():
    f = cubic_disc()
    g = f.specialize(0, 0)  # drop x1
    assert g.terms == {(2, 2, 0): 1, (3, 0, 1): -4}
    with pytest.raises(ZeroSubstitution):
        SparsePolynomial(1, {(-1,): 1}).specialize(0, 0)
    h = SparsePolynomial(2, {(2, 1): 1, (0, 1): -4})
    assert h.specialize(0, 2).terms == {(1,): 0} or h.specialize(0, 2).is_zero()


def test_evaluate():
    f = cubic_disc()
    assert f.evaluate([1, 1, 1, 1]) == -16
    assert f.evaluate([-1, 3, -3, 1]) == 0
    assert f.evaluate([Fraction(1, 2), 1, 1, 1]) == Fraction(-11, 4)
    with pytest.raises(ZeroCoordinate):
        SparsePolynomial(1, {(-1,): 1}).evaluate([0])


def test_embed():
    f = SparsePolynomial(2, {(1, 2): 5})
    g = f.embed(4, [0, 3])
    assert g.terms == {(1, 0, 0, 2): 5}


def test_json_round_trip():
    f = cubic_disc()
    d = poly_to_json_dict(f, ["x1", "x2", "x3", "x4"])
    assert d["terms"][0] == {"coeff": "1", "exps": [0, 2, 2, 0]}
    back, names = poly_from_json_dict(d)
    assert back == f
    assert names == ["x1", "x2", "x3", "x4"]


def test_divides():
    x = SparsePolynomial.variable(2, 0)
    y = SparsePolynomial.variable(2, 1)
    f = x + y
    g = (x + y) * (x - y)
    assert divides(f, g)
    assert not divides(x + y, x * x + y * y)
    # acts up to monomial and constant factors
    assert divides(2 * f, g.shift((3, 1)))
    zero = SparsePolynomial.zero(2)
    assert divides(f, zero) and divides(zero, zero)
    assert not divides(zero, f)


def test_exact_quotient():
    x = SparsePolynomial.variable(2, 0)
    y = SparsePolynomial.variable(2, 1)
    prod = (x + y) * (x - y)
    assert exact_quotient(prod, x + y) == x - y
    with pytest.raises(ArithmeticError):
        exact_quotient(x * x + y * y, x + y)
    # the ring operations the shared Bareiss elimination relies on
    assert prod // (x + y) == x - y
    assert (2 * prod) // 2 == prod
    with pytest.raises(ArithmeticError):
        (x + y) // 2
    # quotients that exist over Q but not over Z
    one = SparsePolynomial.constant(2, 1)
    with pytest.raises(ArithmeticError):
        exact_quotient(x + one, 2 * x + 2 * one)
    with pytest.raises(ArithmeticError):
        exact_quotient((x + one) * (2 * x + one), 2 * x + 2 * one)
    assert exact_quotient(2 * x + 2 * one, x + one) == 2 * one
    assert x and not SparsePolynomial.zero(2)


def test_scaled_substitute_auto_shift():
    f = SparsePolynomial(2, {(2, 0): 1, (0, 1): -1})
    u = scaled_substitute(f, (1, -1))
    # weights 2 and -1; auto shift 1 puts the low term in degree 0
    assert u.degree() == 3
    assert u.coeff(0).terms == {(0, 1): -1}
    assert u.coeff(3).terms == {(2, 0): 1}
    assert u.coeff(1).is_zero() and u.coeff(2).is_zero()


def test_resultant_constants_in_x():
    c = SparsePolynomial.constant
    # f = u^2 - 2, g = u - 3 in a 1-variable coefficient ring
    f = UniPoly(1, [c(1, -2), c(1, 0), c(1, 1)])
    g = UniPoly(1, [c(1, -3), c(1, 1)])
    assert resultant_u(f, g) == c(1, 7)
    assert resultant_u(g, f) == c(1, 7)
    with pytest.raises(NoVariable):
        resultant_u(UniPoly(1, [c(1, 2)]), UniPoly(1, [c(1, 5)]))


def test_resultant_refuses_laurent_coefficients():
    x_inv = SparsePolynomial(1, {(-1,): 1})
    one = SparsePolynomial.constant(1, 1)
    g = UniPoly(1, [one, one])
    # a Sylvester matrix of size 2 and one of size 1 are refused alike
    for f in (UniPoly(1, [x_inv, one]), UniPoly(1, [x_inv])):
        with pytest.raises(ValueError, match="Laurent"):
            resultant_u(f, g)
        with pytest.raises(ValueError, match="Laurent"):
            resultant_u(g, f)


def test_resultant_shared_root_vanishes():
    c = SparsePolynomial.constant
    # u^2 - 1 and u - 1 share u = 1
    f = UniPoly(1, [c(1, -1), c(1, 0), c(1, 1)])
    g = UniPoly(1, [c(1, -1), c(1, 1)])
    assert resultant_u(f, g).is_zero()


def test_resultant_eliminates_parameter():
    # x - u^2 and y - u^3 eliminate to the cuspidal cubic x^3 - y^2
    x = SparsePolynomial.variable(2, 0)
    y = SparsePolynomial.variable(2, 1)
    one = SparsePolynomial.constant(2, 1)
    zero = SparsePolynomial.zero(2)
    f = UniPoly(2, [x, zero, -one])
    g = UniPoly(2, [y, zero, zero, -one])
    r = resultant_u(f, g).normalize()
    assert r.terms == {(3, 0): 1, (0, 2): -1}


def test_newton_vertices():
    pts = [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2), (1, 0)]
    assert newton_vertices(pts) == [(0, 0), (0, 2), (2, 0), (2, 2)]
    # collinear middle point is not a vertex
    assert newton_vertices([(0,), (1,), (2,)]) == [(0,), (2,)]
    assert newton_vertices([(5, 7)]) == [(5, 7)]
