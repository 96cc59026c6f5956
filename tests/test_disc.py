"""Discriminant routes: closed form, implicitization, gluing, checkers."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import discforge.config
import discforge.disc
from discforge.cli import main
from discforge.config import (
    GaleConfiguration,
    PointConfiguration,
    cayley,
    dual_of,
    gale_dual,
    segment,
    standard_form,
)
from discforge.disc import (
    _codim1_raw,
    check_restriction_grouping,
    check_specialization,
    contract,
    discriminant,
    discriminant_codim1,
    extend_plus_minus,
    glue_resultant,
    horn_eval,
    horn_implicitize_rank2,
    membership,
    pullback,
)
from discforge.errors import (
    DegenerateDual,
    InconsistentSplit,
    KernelDimensionNotOne,
    NonPrimitive,
    NotHomogeneous,
    NotPositiveMultiple,
    OnExceptionalLocus,
    PyramidInput,
    SplittingLine,
    Unsupported,
    ZeroCoordinate,
    ZeroVector,
)
from discforge.poly import SparsePolynomial, poly_from_json_dict

DATA = Path(__file__).parent / "data"

CUBIC_BASIS = [[1, 0], [-2, 1], [1, -2], [0, 1]]

CUBIC_DISC = SparsePolynomial(
    4,
    {
        (0, 2, 2, 0): 1,
        (1, 0, 3, 0): -4,
        (0, 3, 0, 1): -4,
        (1, 1, 1, 1): 18,
        (2, 0, 0, 2): -27,
    },
)


def test_codim1_raw_quadratic():
    raw = _codim1_raw((1, -2, 1))
    assert raw.terms == {(1, 0, 1): 4, (0, 2, 0): -1}


def test_codim1_normalized():
    d = discriminant_codim1((1, -2, 1))
    assert d.terms == {(0, 2, 0): 1, (1, 0, 1): -4}
    assert d.format(("x1", "x2", "x3")) == "x2^2 - 4*x1*x3"


def test_codim1_sixteen_coefficient():
    # |-2|^2 * |-2|^2 = 16 on the negative side
    raw = _codim1_raw((1, 3, -2, -2))
    assert raw.terms == {(1, 3, 0, 0): 16, (0, 0, 2, 2): -27}


def test_codim1_errors():
    with pytest.raises(PyramidInput):
        discriminant_codim1((1, 0, -1))
    with pytest.raises(NotHomogeneous):
        discriminant_codim1((1, 1, -1))
    with pytest.raises(NonPrimitive):
        discriminant_codim1((2, -4, 2))


def test_horn_eval_cubic_basis():
    cb = GaleConfiguration(CUBIC_BASIS)
    assert horn_eval(cb, (1, 1)) == (Fraction(-1), Fraction(-1))
    with pytest.raises(OnExceptionalLocus):
        horn_eval(cb, (1, 2))
    with pytest.raises(ValueError):
        horn_eval(cb, (1, 1, 1))
    with pytest.raises(NotHomogeneous):
        horn_eval(GaleConfiguration([[1, 0], [0, 1]]), (1, 1))


def test_horn_eval_skips_zero_rows():
    b = GaleConfiguration([[1], [-2], [1], [0]])
    assert horn_eval(b, (3,)) == (Fraction(3 * 3) / Fraction(6) ** 2,)


def test_implicitize_cubic(twisted_cubic):
    b = gale_dual(twisted_cubic)
    f = horn_implicitize_rank2(b)
    assert f.total_degree() == 3
    assert pullback(f, b) == CUBIC_DISC


def test_implicitize_preconditions():
    with pytest.raises(ValueError):
        horn_implicitize_rank2(GaleConfiguration([[1], [-2], [1]]))
    with pytest.raises(NonPrimitive):
        horn_implicitize_rank2(GaleConfiguration([[2, 0], [0, 1], [-2, -1]]))
    with pytest.raises(NonPrimitive, match="pullback"):
        pullback(
            SparsePolynomial.variable(2, 0),
            GaleConfiguration([[2, 0], [0, 1], [-2, -1]]),
        )
    with pytest.raises(NotHomogeneous):
        horn_implicitize_rank2(GaleConfiguration([[1, 0], [0, 1], [-1, -1], [1, 1]]))
    with pytest.raises(PyramidInput):
        horn_implicitize_rank2(GaleConfiguration([[1, 0], [0, 1], [-1, -1], [0, 0]]))
    with pytest.raises(DegenerateDual):
        horn_implicitize_rank2(GaleConfiguration([[1, 0], [2, 0], [-3, 0]]))
    with pytest.raises(KernelDimensionNotOne):
        horn_implicitize_rank2(
            GaleConfiguration([[1, 0], [-1, 0], [0, 1], [0, -1]])
        )


def test_pullback_arity(twisted_cubic):
    with pytest.raises(ValueError):
        pullback(SparsePolynomial(3, {(1, 0, 0): 1}), gale_dual(twisted_cubic))


def test_basis_invariance(twisted_cubic):
    # two bases of the same kernel lattice give the same discriminant
    direct = discriminant(twisted_cubic)
    other = discriminant(GaleConfiguration(CUBIC_BASIS))
    assert direct.poly == other.poly == CUBIC_DISC
    assert direct.provenance["method"] == "implicitize"


def test_extend_plus_minus_labels():
    base = GaleConfiguration([[1], [-2], [1]])
    ext = extend_plus_minus(base, (1,))
    assert ext.labels == ("x1", "x2", "x3", "y+", "y-")
    assert ext.matrix.to_lists() == [[1], [-2], [1], [1], [-1]]
    clash = GaleConfiguration([[1], [-2], [1]], labels=("x1", "y+", "y-"))
    assert extend_plus_minus(clash, (1,)).labels == (
        "x1",
        "y+",
        "y-",
        "y2+",
        "y2-",
    )
    with pytest.raises(ZeroVector):
        extend_plus_minus(base, (0,))
    with pytest.raises(ValueError):
        extend_plus_minus(base, (1, 1))


def test_contract_requires_two_variables():
    with pytest.raises(ValueError):
        contract(SparsePolynomial(1, {(1,): 1}))


def test_extend_contract_round_trip():
    # appending the pair +1, -1 and contracting returns the original
    base = GaleConfiguration([[1], [-2], [1]])
    ext = discriminant(extend_plus_minus(base, (1,)))
    assert ext.provenance["method"] == "codim-1"
    assert contract(ext.poly) == discriminant_codim1((1, -2, 1))


def test_seven_point_matches_golden(seven_point_b):
    result = discriminant(seven_point_b)
    golden, names = poly_from_json_dict(
        json.loads((DATA / "d_b_seven_point.json").read_text())
    )
    assert result.poly == golden
    assert list(result.names) == names
    prov = result.provenance
    assert prov["method"] == "glue-extended"
    assert prov["class"] == [5, 6, 7]
    assert prov["class_direction"] == [1, 0]
    assert prov["betas"] == [1, 3, -2, -2]
    assert prov["inner"]["method"] == "implicitize"
    assert prov["inner_vars"] == ["x1", "x2", "x3", "x4", "y+"]


def test_seven_point_two_paths_agree(seven_point_b):
    # full rank-2 implicitization against the glue pipeline
    f = horn_implicitize_rank2(seven_point_b)
    assert pullback(f, seven_point_b) == discriminant(seven_point_b).poly


def test_glue_split_validation(seven_point_b):
    sharp = extend_plus_minus(seven_point_b, (2, 0))
    one = SparsePolynomial.constant(5, 1)
    two = SparsePolynomial.constant(4, 1)
    with pytest.raises(InconsistentSplit):
        glue_resultant(one, two, sharp, ((0, 1, 2, 3, 7), (4, 5, 6)))
    with pytest.raises(InconsistentSplit):
        # second part not collinear
        glue_resultant(
            SparsePolynomial.constant(4, 1),
            SparsePolynomial.constant(5, 1),
            sharp,
            ((0, 1, 2, 8), (3, 4, 5, 6, 7)),
        )
    with pytest.raises(ValueError):
        glue_resultant(two, two, sharp, ((0, 1, 2, 3, 7), (4, 5, 6, 8)))
    with pytest.raises(InconsistentSplit, match="nonzero rows"):
        glue_resultant(
            two,
            two,
            GaleConfiguration(list(seven_point_b.rows()) + [[0, 0]]),
            ((0, 1, 2, 3), (4, 5, 6, 7)),
        )
    with pytest.raises(InconsistentSplit, match="full codimension"):
        glue_resultant(two, one, sharp, ((4, 5, 6, 8), (0, 1, 2, 3, 7)))
    with pytest.raises(InconsistentSplit, match="homogeneous"):
        glue_resultant(
            two,
            SparsePolynomial.constant(3, 1),
            seven_point_b,
            ((0, 1, 2, 3), (4, 5, 6)),
        )


def test_glue_is_blind_to_monomial_and_constant_factors(seven_point_b):
    # the factors are normalized before the resultant, so a Laurent
    # monomial or a constant on either one leaves the glued polynomial
    sharp = extend_plus_minus(seven_point_b, (2, 0))
    split = ((0, 1, 2, 3, 7), (4, 5, 6, 8))
    inner = discriminant(GaleConfiguration([sharp.row(i) for i in split[0]])).poly
    d2 = _codim1_raw([1, 3, -2, -2])
    plain = glue_resultant(inner, d2, sharp, split)
    scaled = glue_resultant(
        inner.shift((-2, 1, 0, -1, 0)) * 3, d2.shift((0, -1, 0, 0)) * -5, sharp, split
    )
    assert scaled == plain


def test_splitting_line_branch():
    b6 = GaleConfiguration(
        [[1, 0], [-2, 1], [1, -2], [0, 1], [1, -1], [-1, 1]]
    )
    result = discriminant(b6)
    prov = result.provenance
    assert prov["method"] == "glue-splitting"
    assert prov["class"] == [5, 6]
    assert prov["betas"] == [1, -1]
    assert result.poly.total_degree() == 6
    # independent certificate: coefficient vectors built from a singular
    # system witness must lie on the hypersurface
    a6 = standard_form(dual_of(b6)).matrix
    x0 = tuple(range(2, 2 + a6.rows))
    for zeta in [(1, 1), (2, 3), (5, 1), (3, 7), (9, 2)]:
        point = []
        for j in range(b6.n):
            lin = sum(Fraction(c) * z for c, z in zip(b6.row(j), zeta))
            mono = Fraction(1)
            for i in range(a6.rows):
                mono *= Fraction(x0[i]) ** a6.row(i)[j]
            point.append(lin / mono)
        assert result.poly.evaluate(point) == 0


def test_trivial_routes():
    pyramid = discriminant(GaleConfiguration([[1], [-2], [1], [0]]))
    assert pyramid.is_trivial
    assert pyramid.provenance == {"method": "pyramid", "zero_rows": [4]}
    cay = gale_dual(
        PointConfiguration(
            [
                [1, 1, 1, 0, 0, 0, 0, 0, 0],
                [0, 0, 0, 1, 1, 1, 0, 0, 0],
                [0, 0, 0, 0, 0, 0, 1, 1, 1],
                [0, 1, 2, 0, 1, 2, 0, 1, 2],
            ]
        )
    )
    defect = discriminant(cay)
    assert defect.is_trivial
    assert defect.provenance["method"] == "defect"
    assert defect.provenance["defect_method"] == "flag-search"


def test_a_large_cayley_discriminant_is_trivial_with_no_search():
    # n = 22, m = 17: the rho bound settles the verdict with no search
    cay = cayley([segment(p) for p in (3, 4, 5, 6)])
    result = discriminant(cay)
    assert result.is_trivial
    assert result.provenance == {
        "method": "defect",
        "defect_method": "flag-search",
        "witness": {"kind": "no-nonsplitting-flag", "length": 16},
    }


def test_unsupported_routes():
    with pytest.raises(Unsupported):
        discriminant(PointConfiguration([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]))
    with pytest.raises(Unsupported):
        discriminant(GaleConfiguration([[2, 0], [0, 1], [-2, -1]]))
    with pytest.raises(DegenerateDual):
        discriminant(GaleConfiguration([[1, 0], [-1, 0], [2, 0], [-2, 0]]))
    # the two seeded strata the benchmark's rank2 workload counts as refused
    with pytest.raises(Unsupported, match="inner configuration has index 2"):
        discriminant(GaleConfiguration([[2, 3], [-3, -8], [0, 2], [-1, 0], [2, 3]]))
    with pytest.raises(NonPrimitive, match="class content 2"):
        discriminant(GaleConfiguration([[-1, -1], [0, 4], [-1, 0], [0, -2], [2, -1]]))
    with pytest.raises(NotHomogeneous):
        discriminant(GaleConfiguration([[1, 0], [0, 1]]))
    with pytest.raises(NotHomogeneous) as on_a:
        discriminant(PointConfiguration([[0, 1, 2]]))
    # one message for both sides of the same input
    with pytest.raises(NotHomogeneous) as on_b:
        discriminant(gale_dual(PointConfiguration([[0, 1, 2]])))
    assert str(on_a.value) == str(on_b.value)
    with pytest.raises(TypeError):
        discriminant([[1, -2, 1]])


def test_checkers_take_the_gale_dual_once(monkeypatch, seven_point_b):
    a = dual_of(seven_point_b)
    real = discforge.config.gale_dual
    calls = []
    monkeypatch.setattr(
        discforge.config, "gale_dual", lambda cfg: calls.append(cfg) or real(cfg)
    )
    assert check_specialization(a, 0)
    assert len(calls) == 1
    assert check_restriction_grouping(a, 4, 5)
    assert len(calls) == 2


def test_membership(quadratic):
    assert membership(quadratic, (1, 2, 1))
    assert not membership(quadratic, (1, 3, 1))
    assert membership(quadratic, (Fraction(1, 4), 1, 1))
    with pytest.raises(ZeroCoordinate):
        membership(quadratic, (1, 0, 1))
    with pytest.raises(ValueError):
        membership(quadratic, (1, 2))
    # trivial discriminant contains no torus point
    assert not membership(GaleConfiguration([[1], [-2], [1], [0]]), (1, 2, 1, 5))


def test_restriction_grouping(seven_point_b):
    assert check_restriction_grouping(seven_point_b, 4, 5)
    assert check_restriction_grouping(seven_point_b, 2, 2)
    with pytest.raises(NotPositiveMultiple):
        check_restriction_grouping(seven_point_b, 4, 6)
    with pytest.raises(NotPositiveMultiple):
        check_restriction_grouping(seven_point_b, 0, 4)
    with pytest.raises(ValueError):
        check_restriction_grouping(seven_point_b, 0, 9)


def test_specialization(seven_point_b):
    assert check_specialization(seven_point_b, 4)
    assert check_specialization(seven_point_b, 5)
    assert check_specialization(seven_point_b, 0)
    assert check_specialization(seven_point_b, 4, line=(4, 5, 6))
    with pytest.raises(NotPositiveMultiple):
        check_specialization(seven_point_b, 6)
    with pytest.raises(InconsistentSplit):
        check_specialization(seven_point_b, 4, line=(4, 5))
    with pytest.raises(ValueError):
        check_specialization(seven_point_b, 7)


def test_checkers_refuse_before_the_discriminant(monkeypatch, capsys, seven_point_b):
    # indices, lines and sides are checked first, so a refusal computes
    # no discriminant; an accepted input, k == l included, computes it
    def no_discriminant(cfg):
        raise AssertionError("discriminant computed before the refusal")

    monkeypatch.setattr(discforge.disc, "discriminant", no_discriminant)
    small = [[2, 1], [-1, 1], [-1, -1], [0, -1]]
    with pytest.raises(ValueError):
        check_restriction_grouping(GaleConfiguration(small), 0, 9)
    argv = ["check-grouping", "--side", "b", "--matrix", json.dumps(small), "--k", "1", "--l", "2"]
    assert main(argv) == 3
    assert "NotPositiveMultiple" in capsys.readouterr().err
    with pytest.raises(NotPositiveMultiple):
        check_restriction_grouping(seven_point_b, 4, 6)
    with pytest.raises(ValueError):
        check_specialization(seven_point_b, 7)
    with pytest.raises(NotPositiveMultiple):
        check_specialization(seven_point_b, 6)
    with pytest.raises(InconsistentSplit):
        check_specialization(seven_point_b, 4, line=(4, 5))
    b6 = GaleConfiguration([[1, 0], [-2, 1], [1, -2], [0, 1], [1, -1], [-1, 1]])
    with pytest.raises(SplittingLine):
        check_specialization(b6, 4)
    pyramid = GaleConfiguration([[1, 0], [0, 1], [-1, -1], [0, 0]])
    with pytest.raises(SplittingLine, match="zero dual vector"):
        check_specialization(pyramid, 3)
    with pytest.raises(NotPositiveMultiple, match="zero dual vectors"):
        check_restriction_grouping(pyramid, 3, 0)
    with pytest.raises(NotPositiveMultiple, match="zero dual vectors"):
        check_restriction_grouping(pyramid, 0, 3)
    with pytest.raises(AssertionError):
        check_restriction_grouping(seven_point_b, 2, 2)
    with pytest.raises(AssertionError):
        check_specialization(seven_point_b, 4)


def test_specialization_follows_the_class_sum_in_any_basis(seven_point_b):
    # the same configuration in another basis of Q^2, with b_6 on the
    # negative side of its class sum in both
    other = gale_dual(dual_of(seven_point_b))
    assert other.matrix.to_lists() == [
        [1, 0], [1, 3], [-3, -2], [1, 1], [0, -1], [0, -3], [0, 2]
    ]

    def answers(b):
        out = []
        for j in range(b.n):
            try:
                out.append(check_specialization(b, j))
            except NotPositiveMultiple:
                out.append(None)
        return out

    assert answers(other) == answers(seven_point_b) == [True] * 6 + [None]


def test_specialization_rejects_splitting_line():
    b6 = GaleConfiguration(
        [[1, 0], [-2, 1], [1, -2], [0, 1], [1, -1], [-1, 1]]
    )
    with pytest.raises(SplittingLine):
        check_specialization(b6, 4)
