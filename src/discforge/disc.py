"""Sparse discriminant engine.

Routes: codimension 1 uses the closed binomial expression in the single
dual vector; irreducible codimension 2 implicitizes the parametrized dual
curve and pulls it back along the monomial map of the dual columns;
reducible configurations split off a collinear class, recurse, and glue
the two factors with a resultant in an auxiliary variable.  Pyramids and
dual-defect configurations have trivial discriminant 1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, repeat
from math import gcd, lcm
from operator import mul
from typing import NamedTuple

from .config import GaleConfiguration, gale_side
from .defect import is_dual_defect
from .errors import (
    DegenerateDual,
    DiscforgeError,
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
from .lattice import (
    IntMatrix,
    integer_solve,
    primitive,
    rank,
    rational_nullspace,
    row_hermite_transform,
    smallest_multiplier,
)
from .matroid import collinear_classes
from .matroid import reduce as matroid_reduce
from .poly import (
    SparsePolynomial,
    UniPoly,
    divides,
    resultant_u,
    scaled_substitute,
)


class DiscriminantResult(NamedTuple):
    """Normalized discriminant with variable names and a derivation trace."""

    poly: SparsePolynomial
    names: tuple[str, ...]
    provenance: dict

    @property
    def is_trivial(self) -> bool:
        return self.poly.is_one()


# -- codimension one -----------------------------------------------------


def _codim1_raw(beta) -> SparsePolynomial:
    """Binomial expression in one dual vector, not normalized.

    With p the sum of positive entries, the two terms are
    prod |b_j|^|b_j| * prod x_i^{b_i}  and  (-1)^p prod b_i^{b_i} *
    prod x_j^{|b_j|}, products over negative and positive entries
    respectively.
    """
    beta = tuple(beta)
    n = len(beta)
    p = sum(b for b in beta if b > 0)
    coeff_pos = 1
    coeff_neg = 1
    e_pos = [0] * n
    e_neg = [0] * n
    for i, b in enumerate(beta):
        if b > 0:
            coeff_pos *= b**b
            e_pos[i] = b
        elif b < 0:
            coeff_neg *= (-b) ** (-b)
            e_neg[i] = -b
    sign = -1 if p % 2 == 0 else 1
    return SparsePolynomial(
        n, {tuple(e_pos): coeff_neg, tuple(e_neg): sign * coeff_pos}
    )


def discriminant_codim1(beta) -> SparsePolynomial:
    """Normalized discriminant of a configuration with a single dual
    vector; requires entries nonzero, summing to zero, content 1."""
    beta = tuple(beta)
    if any(b == 0 for b in beta):
        raise PyramidInput("zero entry in the dual vector")
    if sum(beta) != 0:
        raise NotHomogeneous("dual vector entries must sum to zero")
    g = 0
    for b in beta:
        g = gcd(g, b)
    if g != 1:
        raise NonPrimitive(f"dual vector has content {g}; saturate first")
    return _codim1_raw(beta).normalize()


# -- Horn map ------------------------------------------------------------


def _horn_pairs(cfg: GaleConfiguration, zeta) -> tuple[tuple[int, int], ...]:
    """The Horn map at an integer parameter point, each coordinate as a
    reduced pair (numerator, denominator) with a positive denominator.

    Each linear form b_i . zeta is an integer, and coordinate k is the
    product of its positive powers over the product of its negative
    ones; a vanishing linear factor under a nonzero row puts zeta on the
    exceptional locus.
    """
    num = [1] * cfg.m
    den = [1] * cfg.m
    for i, row in enumerate(cfg.rows()):
        if not any(row):
            continue
        v = sum(map(mul, row, zeta))
        if v == 0:
            raise OnExceptionalLocus(f"linear factor of row {i} vanishes")
        for k, e in enumerate(row):
            if e > 0:
                num[k] *= v**e
            elif e < 0:
                den[k] *= v**-e
    out = []
    for p, q in zip(num, den):
        g = gcd(p, q) if q > 0 else -gcd(p, q)
        out.append((p // g, q // g))
    return tuple(out)


def horn_eval(cfg: GaleConfiguration, zeta) -> tuple[Fraction, ...]:
    """Exact value of the Horn map at a rational parameter point.

    Coordinate k is prod_i (b_i . zeta)^{b_ik}.  The columns of a
    homogeneous configuration sum to zero, so the map has degree 0 in
    zeta: zeta is scaled by the lcm of its denominators, and the integer
    pairs of ``_horn_pairs`` at that point become Fractions.
    """
    if not cfg.is_homogeneous():
        raise NotHomogeneous("Horn map needs a homogeneous configuration")
    zeta = [Fraction(z) for z in zeta]
    if len(zeta) != cfg.m:
        raise ValueError("parameter arity mismatch")
    scale = lcm(*(z.denominator for z in zeta))
    zeta = [z.numerator * (scale // z.denominator) for z in zeta]
    return tuple(Fraction(p, q) for p, q in _horn_pairs(cfg, zeta))


MAX_CURVE_DEGREE = 16


def horn_implicitize_rank2(cfg: GaleConfiguration) -> SparsePolynomial:
    """Implicit equation of the closure of the Horn map image, m = 2.

    The Horn parametrization is birational (Kapranov), so the curve's
    degree D is its number of poles: each row of the reduced
    configuration contributes max(0, -b_1, -b_2).  The equation spans
    the kernel of the N = (D+1)(D+2)/2 monomials of degree <= D at
    D^2 + 1 distinct curve points, sampled at t = 1, -1, 2, -2, ...: by
    Bezout every kernel vector contains the irreducible curve, so the
    kernel must be one-dimensional.  The samples come from
    ``_horn_pairs`` at (t, 1), after one homogeneity check per curve:
    each coordinate z_k = p_k / q_k is a reduced pair with q_k > 0, so a
    repeated curve point is a repeated key and is dropped.  Each sample
    gives an integer row from the powers of p_1, q_1, p_2, q_2: the entry of
    z_1^a z_2^b is p_1^a p_2^b L / (q_1^a q_2^b), with L the lcm of the
    q_1^a q_2^(D-a), so the row is a positive multiple of the rational
    one.  The kernel lies inside the kernel of the first N - 1 sample
    rows, which is eliminated alone; when it is one vector, integer dot
    products with the other rows certify it, or show the full kernel is
    zero.  Only a wider leading kernel falls back to eliminating all
    D^2 + 1 rows.  Curves of degree above MAX_CURVE_DEGREE raise
    Unsupported before any sampling.
    """
    if cfg.m != 2:
        raise ValueError("implicitization requires codimension 2")
    if not cfg.is_homogeneous():
        raise NotHomogeneous("implicitization needs a homogeneous configuration")
    if cfg.zero_rows():
        raise PyramidInput("zero dual vector; remove the pyramid point first")
    if cfg.rank < 2:
        raise DegenerateDual("dual vectors span a line; not a curve")
    if cfg.index != 1:
        raise NonPrimitive("dual columns must span a saturated lattice")
    red = matroid_reduce(cfg)
    if red.config.rank < 2:
        raise KernelDimensionNotOne(
            "degenerate configuration; the map image is not a curve"
        )
    deg = sum(max(0, -b1, -b2) for b1, b2 in red.config.rows())
    if deg > MAX_CURVE_DEGREE:
        raise Unsupported(
            f"Horn curve of degree {deg}; implicitization stops at degree "
            f"{MAX_CURVE_DEGREE}"
        )
    # a nonconstant rational map takes each value finitely often; t runs
    # 1, -1, 2, -2, ... so the samples stay small
    samples: dict[tuple[tuple[int, int], ...], None] = {}
    t = 0
    while len(samples) < deg * deg + 1:
        t = -t if t > 0 else 1 - t
        try:
            samples[_horn_pairs(cfg, (t, 1))] = None
        except OnExceptionalLocus:
            pass
    monos = [(a, total - a) for total in range(deg + 1) for a in range(total + 1)]
    rows = []
    for (n1, d1), (n2, d2) in samples:
        p1, q1, p2, q2 = (
            list(accumulate(repeat(x, deg), mul, initial=1))
            for x in (n1, d1, n2, d2)
        )
        scale = lcm(*(q1[a] * q2[deg - a] for a in range(deg + 1)))
        rows.append([p1[a] * p2[b] * (scale // (q1[a] * q2[b])) for a, b in monos])
    # the kernel of all rows lies in the kernel of the first N - 1: if
    # that is one vector, it is the answer or the kernel is zero
    lead = len(monos) - 1
    kernel = rational_nullspace(rows[:lead])
    if len(kernel) != 1:
        kernel = rational_nullspace(rows)
    elif any(sum(map(mul, row, kernel[0])) for row in rows[lead:]):
        kernel = []
    if len(kernel) != 1:
        raise KernelDimensionNotOne(
            f"interpolation kernel has dimension {len(kernel)} at degree {deg}"
        )
    return SparsePolynomial(
        2, {monos[i]: c for i, c in enumerate(kernel[0]) if c}
    ).normalize()


def pullback(f: SparsePolynomial, cfg: GaleConfiguration) -> SparsePolynomial:
    """Substitute z_k = x^{xi_k} for the columns xi_k of the dual matrix;
    requires index 1 so the substitution inverts the torus embedding."""
    if f.n != cfg.m:
        raise ValueError("polynomial arity must match the codimension")
    if cfg.index != 1:
        raise NonPrimitive("pullback requires a saturated dual lattice")
    cols = [cfg.matrix.col(k) for k in range(cfg.m)]
    out: dict[tuple[int, ...], int] = {}
    for e, c in f.terms.items():
        vec = [0] * cfg.n
        for k, a in enumerate(e):
            if a:
                for i in range(cfg.n):
                    vec[i] += a * cols[k][i]
        key = tuple(vec)
        out[key] = out.get(key, 0) + c
    return SparsePolynomial(cfg.n, out).normalize()


# -- extension and gluing ------------------------------------------------


def extend_plus_minus(cfg: GaleConfiguration, v) -> GaleConfiguration:
    """Append the pair v, -v as two new rows labelled y+ and y-."""
    v = tuple(v)
    if len(v) != cfg.m:
        raise ValueError("vector arity mismatch")
    if not any(v):
        raise ZeroVector("extension vector must be nonzero")
    plus, minus = "y+", "y-"
    k = 2
    while plus in cfg.labels or minus in cfg.labels:
        plus, minus = f"y{k}+", f"y{k}-"
        k += 1
    rows = list(cfg.rows()) + [v, tuple(-x for x in v)]
    return GaleConfiguration(
        IntMatrix(rows), labels=cfg.labels + (plus, minus)
    )


def contract(f: SparsePolynomial) -> SparsePolynomial:
    """Undo a plus-minus extension: set the last two variables to 1 and
    -1 and renormalize."""
    if f.n < 2:
        raise ValueError("nothing to contract")
    return f.specialize(f.n - 1, -1).specialize(f.n - 2, 1).normalize()


def _class_multiples(rows) -> tuple[tuple[int, ...], list[int]]:
    """The primitive direction w of nonzero collinear rows, and the
    multiple of w that each row is."""
    w = primitive(rows[0])
    pivot = next(k for k, x in enumerate(w) if x)
    return w, [r[pivot] // w[pivot] for r in rows]


def glue_resultant(
    d1: SparsePolynomial,
    d2: SparsePolynomial,
    cfg: GaleConfiguration,
    split,
) -> SparsePolynomial:
    """Merge factor discriminants across a collinear split by a resultant.

    ``split`` is a pair of index tuples partitioning the rows of cfg: the
    first part must span the full codimension, the second must be a
    homogeneous collinear set.  d1 and d2 live on the respective parts'
    variables; they are normalized first, which changes the result by a
    monomial and a constant only, so the resultant's coefficients are
    polynomials.  The auxiliary scaling u^gamma / u^mu is eliminated by a
    resultant in u; shifts are chosen minimal so no extraneous factor
    appears.  The two terms of a binomial d2 differ in u-degree by
    |betas . mu| = q, the least multiple with q*w in the row span of the
    first part.  From ``_disc_b`` that part is an inner dual of index 1,
    whose rows span Z^m, so q = 1: d2 is linear in u and the resultant
    is a substitution.  A direct call whose first part spans a lattice of
    index > 1 may get q > 1 and the Sylvester elimination.
    """
    idx1, idx2 = tuple(split[0]), tuple(split[1])
    n = cfg.n
    if sorted(idx1 + idx2) != list(range(n)):
        raise InconsistentSplit("split must partition the rows")
    if d1.n != len(idx1) or d2.n != len(idx2):
        raise ValueError("factor arity does not match the split")
    rows1 = [cfg.row(i) for i in idx1]
    rows2 = [cfg.row(i) for i in idx2]
    if any(not any(r) for r in rows2) or not rows2:
        raise InconsistentSplit("collinear part must be nonzero rows")
    m1 = IntMatrix(rows1)
    if rank(m1) != cfg.m:
        raise InconsistentSplit("first part must span the full codimension")
    dirs = {primitive(r) for r in rows2}
    if len(dirs) != 1:
        raise InconsistentSplit("second part must be collinear")
    if any(cfg.sigma(idx1)) or any(cfg.sigma(idx2)):
        raise InconsistentSplit("both parts must be homogeneous")
    w, betas = _class_multiples(rows2)
    q, gamma = smallest_multiplier(m1, w)
    mu = integer_solve(IntMatrix([[b] for b in betas]), (-q,))
    if mu is None:
        raise NonPrimitive(
            f"class content {gcd(*betas)} does not divide the required weight {-q}"
        )
    u1 = scaled_substitute(d1.normalize(), gamma)
    u2 = scaled_substitute(d2.normalize(), mu)
    lift1 = UniPoly(n, [c.embed(n, idx1) for c in u1.coeffs])
    lift2 = UniPoly(n, [c.embed(n, idx2) for c in u2.coeffs])
    return resultant_u(lift1, lift2).normalize()


# -- full pipeline -------------------------------------------------------


def discriminant(cfg) -> DiscriminantResult:
    """Normalized discriminant of a point or vector configuration.

    Accepts a homogeneous PointConfiguration (columns are points) or its
    Gale-side matrix directly.  Irreducible configurations of codimension
    3 and higher are out of scope and raise Unsupported.
    """
    b = gale_side(cfg)
    if not b.is_homogeneous():
        raise NotHomogeneous("dual rows must sum to zero: (1,...,1) is not in the row span")
    return _disc_b(b)


def _trivial(b: GaleConfiguration, provenance: dict) -> DiscriminantResult:
    return DiscriminantResult(
        poly=SparsePolynomial.constant(b.n, 1),
        names=b.labels,
        provenance=provenance,
    )


def _disc_b(b: GaleConfiguration) -> DiscriminantResult:
    n, m = b.n, b.m
    if m == 0 or b.zero_rows():
        return _trivial(
            b, {"method": "pyramid", "zero_rows": [i + 1 for i in b.zero_rows()]}
        )
    if b.rank < m:
        raise DegenerateDual("dual vectors must span the full codimension")
    if b.index != 1:
        raise Unsupported(
            f"dual lattice has index {b.index}; only saturated duals are supported"
        )
    report = is_dual_defect(b)
    if report.defect:
        return _trivial(
            b,
            {
                "method": "defect",
                "defect_method": report.method,
                "witness": report.witness,
            },
        )
    if m == 1:
        beta = b.matrix.col(0)
        return DiscriminantResult(
            poly=discriminant_codim1(beta),
            names=b.labels,
            provenance={"method": "codim-1", "beta": list(beta)},
        )
    classes = collinear_classes(b)
    if all(len(c) == 1 for c in classes):
        if m == 2:
            f = horn_implicitize_rank2(b)
            return DiscriminantResult(
                poly=pullback(f, b),
                names=b.labels,
                provenance={
                    "method": "implicitize",
                    "curve_degree": f.total_degree(),
                },
            )
        raise Unsupported(
            f"irreducible configuration of codimension {m}; no route applies"
        )
    cls = sorted(classes, key=lambda c: (-len(c), c))[0]
    sigma = b.sigma(cls)
    complement = tuple(i for i in range(n) if i not in cls)
    if not any(sigma):
        glue_cfg = b
        idx1 = complement
        idx2 = tuple(cls)
        sharp = False
    else:
        glue_cfg = extend_plus_minus(b, sigma)
        idx1 = complement + (n,)
        idx2 = tuple(cls) + (n + 1,)
        sharp = True
    rows1 = [glue_cfg.row(i) for i in idx1]
    c1 = GaleConfiguration(
        IntMatrix(rows1), labels=tuple(glue_cfg.labels[i] for i in idx1)
    )
    if c1.index != 1:
        raise Unsupported(
            f"inner configuration has index {c1.index}; translate duals are out of scope"
        )
    inner = _disc_b(c1)
    if inner.poly.is_one():
        raise DiscforgeError("inner factor of a non-defect configuration is trivial")
    rows2 = [glue_cfg.row(i) for i in idx2]
    w, betas = _class_multiples(rows2)
    d2 = _codim1_raw(betas)
    glued = glue_resultant(inner.poly, d2, glue_cfg, (idx1, idx2))
    if sharp:
        final = contract(glued)
        method = "glue-extended"
    else:
        final = glued
        method = "glue-splitting"
    return DiscriminantResult(
        poly=final,
        names=b.labels,
        provenance={
            "method": method,
            "class": [i + 1 for i in cls],
            "class_direction": list(w),
            "betas": betas,
            "inner": inner.provenance,
            "inner_vars": list(c1.labels),
        },
    )


# -- membership and restriction checks -----------------------------------


def membership(cfg, point) -> bool:
    """Does the point lie on the discriminant hypersurface?

    Trivial discriminants contain no torus point; zero coordinates are
    outside the torus and rejected.
    """
    result = discriminant(cfg)
    pt = [Fraction(x) for x in point]
    if len(pt) != result.poly.n:
        raise ValueError("point arity mismatch")
    if any(x == 0 for x in pt):
        raise ZeroCoordinate("membership is tested inside the torus only")
    if result.is_trivial:
        return False
    return result.poly.evaluate(pt) == 0


def check_restriction_grouping(cfg, k: int, ell: int) -> bool:
    """Equality of the two face restrictions x_k = 0 and x_l = 0 when the
    dual vectors at k and l are positive multiples of each other; the
    indices and the dual vectors are checked before the discriminant."""
    b = gale_side(cfg)
    n = b.n
    if not 0 <= k < n or not 0 <= ell < n:
        raise ValueError("index out of range")
    if k != ell:
        rk, rl = b.row(k), b.row(ell)
        if not any(rk) or not any(rl):
            raise NotPositiveMultiple("zero dual vectors carry no line")
        if primitive(rk) != primitive(rl):
            raise NotPositiveMultiple("dual vectors span different lines")
        piv = next(i for i, x in enumerate(rk) if x)
        if (rk[piv] > 0) != (rl[piv] > 0):
            raise NotPositiveMultiple("dual vectors point in opposite directions")
    result = discriminant(b)
    if k == ell:
        return True
    left = result.poly.specialize(k, 0)
    right = result.poly.specialize(ell, 0)
    pos_k = [i for i in range(n) if i != k]
    pos_l = [i for i in range(n) if i != ell]
    return left.embed(n, pos_k) == right.embed(n, pos_l)


def check_specialization(cfg, j: int, line=None) -> bool:
    """Does the subconfiguration discriminant off the line of b_j divide
    the restriction x_j = 0?

    The line through b_j must be non-splitting and b_j must lie on its
    positive side, where positive means the side of the class sum; the
    index, the line and its side are checked before the discriminant.
    """
    b = gale_side(cfg)
    n = b.n
    if not 0 <= j < n:
        raise ValueError("index out of range")
    if not any(b.row(j)):
        raise SplittingLine("zero dual vector spans no line")
    cls = next(
        c for c in collinear_classes(b) if j in c
    )
    if line is not None and tuple(sorted(line)) != cls:
        raise InconsistentSplit("given line does not match the class of j")
    w, betas = _class_multiples([b.row(i) for i in cls])
    total = sum(betas)
    if not total:
        raise SplittingLine("the line of b_j is splitting")
    if betas[cls.index(j)] * total < 0:
        raise NotPositiveMultiple("b_j lies on the negative side of its line")
    result = discriminant(b)
    # w is primitive, so the Hermite form of its column is (1, 0, ..., 0)
    # and rows 1.. of u project along w
    _, u = row_hermite_transform(IntMatrix([[x] for x in w]))
    proj_rows = []
    keep = [i for i in range(n) if i not in cls]
    for i in keep:
        img = [
            sum(u.row(t)[s] * b.row(i)[s] for s in range(b.m))
            for t in range(1, b.m)
        ]
        proj_rows.append(tuple(img))
    sub = GaleConfiguration(
        IntMatrix(proj_rows), labels=tuple(b.labels[i] for i in keep)
    )
    sub_disc = _disc_b(sub)
    restricted = result.poly.specialize(j, 0)
    pos_rest = [i for i in range(n) if i != j]
    inv = {orig: t for t, orig in enumerate(pos_rest)}
    embedded = sub_disc.poly.embed(n - 1, [inv[i] for i in keep])
    return divides(embedded, restricted)
