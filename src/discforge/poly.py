"""Sparse Laurent polynomials with exact integer coefficients.

Terms are keyed on exponent tuples (negative entries allowed).  The
canonical term order everywhere is graded reverse lexicographic with
x1 > x2 > ... ; canonical normal form for "equal up to monomial, constant
and sign" comparisons shifts per-variable minimal exponents to zero,
divides by the integer content and makes the leading coefficient positive.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    NoVariable,
    ParseError,
    ZeroCoordinate,
    ZeroSubstitution,
)
from .lattice import bareiss


def _dp_key(e: tuple[int, ...]):
    # graded reverse lex: higher total degree wins, ties broken so that the
    # rightmost nonzero entry of the difference is negative for the winner
    return (sum(e), tuple(-x for x in reversed(e)))


class SparsePolynomial:
    """Sparse polynomial in ``n`` variables over the integers.

    ``n`` and ``terms`` are not changed after construction, because
    equality and hash read them.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms=None) -> None:
        clean: dict[tuple[int, ...], int] = {}
        for e, c in (terms or {}).items():
            e = tuple(e)
            if len(e) != n:
                raise ValueError(f"exponent {e} has wrong arity for n={n}")
            if not isinstance(c, int) or isinstance(c, bool):
                raise ValueError(f"coefficient {c!r} is not an integer")
            if c:
                clean[e] = c
        self.n = n
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "SparsePolynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: int) -> "SparsePolynomial":
        return cls(n, {(0,) * n: c})

    @classmethod
    def variable(cls, n: int, i: int) -> "SparsePolynomial":
        e = [0] * n
        e[i] = 1
        return cls(n, {tuple(e): 1})

    # -- basic queries ------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_one(self) -> bool:
        return self.terms == {(0,) * self.n: 1}

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def support(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda t: _dp_key(t[0]), reverse=True)

    def leading(self) -> tuple[tuple[int, ...], int]:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_dp_key)
        return e, self.terms[e]

    def content(self) -> int:
        g = 0
        for c in self.terms.values():
            g = gcd(g, c)
        return g

    def min_exponents(self) -> tuple[int, ...]:
        if not self.terms:
            return (0,) * self.n
        return tuple(min(e[i] for e in self.terms) for i in range(self.n))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePolynomial(self.n, out)

    def __neg__(self) -> "SparsePolynomial":
        return SparsePolynomial(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SparsePolynomial") -> "SparsePolynomial":
        return self + (-other)

    def __mul__(self, other) -> "SparsePolynomial":
        if isinstance(other, int):
            return SparsePolynomial(self.n, {e: c * other for e, c in self.terms.items()})
        if self.n != other.n:
            raise ValueError("ambient mismatch")
        out: dict[tuple[int, ...], int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, 0) + c1 * c2
        return SparsePolynomial(self.n, out)

    __rmul__ = __mul__

    def __floordiv__(self, other) -> "SparsePolynomial":
        """Exact quotient; raises ArithmeticError on a nonzero remainder."""
        if isinstance(other, int):
            other = SparsePolynomial.constant(self.n, other)
        return exact_quotient(self, other)

    def __pow__(self, k: int) -> "SparsePolynomial":
        if k < 0:
            raise ValueError("negative power")
        result = SparsePolynomial.constant(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def shift(self, vec) -> "SparsePolynomial":
        """Multiply by the (Laurent) monomial x^vec."""
        vec = tuple(vec)
        return SparsePolynomial(
            self.n, {tuple(a + b for a, b in zip(e, vec)): c for e, c in self.terms.items()}
        )

    # -- canonical form ----------------------------------------------

    def normalize(self) -> "SparsePolynomial":
        """Canonical representative up to monomial, constant and sign.

        Shifts each variable's minimal exponent to zero, divides by the
        integer content and fixes the sign so the graded-reverse-lex
        leading coefficient is positive.
        """
        if not self.terms:
            return self
        mins = self.min_exponents()
        shifted = self.shift(tuple(-v for v in mins)) if any(mins) else self
        c = shifted.content()
        if c > 1:
            shifted = SparsePolynomial(self.n, {e: v // c for e, v in shifted.terms.items()})
        if shifted.leading()[1] < 0:
            shifted = -shifted
        return shifted

    # -- substitution and evaluation ---------------------------------

    def specialize(self, i: int, v: int) -> "SparsePolynomial":
        """Substitute x_i = v and drop variable i from the ambient list.

        v = 0 requires that x_i never occurs with a negative exponent.
        """
        if not 0 <= i < self.n:
            raise ValueError("variable index out of range")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.terms.items():
            k = e[i]
            if v == 0:
                if k < 0:
                    raise ZeroSubstitution(
                        f"substituting 0 into variable with exponent {k}"
                    )
                if k > 0:
                    continue
                factor = Fraction(1)
            else:
                factor = Fraction(v) ** k
            rest = e[:i] + e[i + 1 :]
            out[rest] = out.get(rest, Fraction(0)) + c * factor
        int_terms: dict[tuple[int, ...], int] = {}
        for e, c in out.items():
            if c.denominator != 1:
                raise ValueError("substitution produced non-integer coefficients")
            int_terms[e] = int(c)
        return SparsePolynomial(self.n - 1, int_terms)

    def evaluate(self, point) -> Fraction:
        """Exact value at a rational point; negative exponents need
        nonzero coordinates."""
        pt = [Fraction(x) for x in point]
        if len(pt) != self.n:
            raise ValueError("point arity mismatch")
        total = Fraction(0)
        for e, c in self.terms.items():
            val = Fraction(c)
            for x, k in zip(pt, e):
                if k == 0:
                    continue
                if x == 0:
                    if k < 0:
                        raise ZeroCoordinate("negative exponent at zero coordinate")
                    val = Fraction(0)
                    break
                val *= x**k
            total += val
        return total

    def embed(self, n_new: int, positions) -> "SparsePolynomial":
        """Reinterpret in a larger ambient; positions[i] is the new index
        of old variable i."""
        positions = list(positions)
        if len(positions) != self.n:
            raise ValueError("positions arity mismatch")
        out = {}
        for e, c in self.terms.items():
            ne = [0] * n_new
            for i, k in enumerate(e):
                ne[positions[i]] = k
            out[tuple(ne)] = c
        return SparsePolynomial(n_new, out)

    # -- comparisons and display -------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def format(self, names=None) -> str:
        if not self.terms:
            return "0"
        if names is None:
            names = [f"x{i + 1}" for i in range(self.n)]
        parts = []
        for e, c in self.sorted_terms():
            factors = [
                f"{names[i]}^{k}" if k != 1 else names[i]
                for i, k in enumerate(e)
                if k
            ]
            mag = abs(c)
            if mag != 1 or not factors:
                factors.insert(0, str(mag))
            body = "*".join(factors)
            parts.append(("- " if c < 0 else "+ ") + body)
        first = parts[0][2:] if parts[0][0] == "+" else "-" + parts[0][2:]
        return " ".join([first] + parts[1:])

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"SparsePolynomial({self.n}, {dict(self.sorted_terms())!r})"


# -- JSON interchange ----------------------------------------------------


def poly_to_json_dict(f: SparsePolynomial, names=None) -> dict:
    """Serializable form: big coefficients as decimal strings, terms in
    canonical order."""
    if names is None:
        names = [f"x{i + 1}" for i in range(f.n)]
    names = list(names)
    if len(names) != f.n:
        raise ValueError("names arity mismatch")
    return {
        "vars": names,
        "terms": [
            {"coeff": str(c), "exps": list(e)} for e, c in f.sorted_terms()
        ],
    }


def poly_from_json_dict(d: dict) -> tuple[SparsePolynomial, list[str]]:
    try:
        names = list(d["vars"])
        n = len(names)
        terms: dict[tuple[int, ...], int] = {}
        for t in d["terms"]:
            e = tuple(int(x) for x in t["exps"])
            c = int(t["coeff"])
            terms[e] = terms.get(e, 0) + c
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed polynomial object: {exc}") from exc
    return SparsePolynomial(n, terms), names


# -- divisibility --------------------------------------------------------


def divides(f: SparsePolynomial, g: SparsePolynomial) -> bool:
    """Does f divide g up to monomial and constant factors?

    Both are normalized first, then tested by exact division.  Normalized
    polynomials are primitive, so by Gauss's lemma a quotient over Q is
    already integral.
    """
    if f.n != g.n:
        raise ValueError("ambient mismatch")
    f = f.normalize()
    g = g.normalize()
    if f.is_zero():
        return g.is_zero()
    try:
        exact_quotient(g, f)
    except ArithmeticError:
        return False
    return True


def exact_quotient(f: SparsePolynomial, g: SparsePolynomial) -> SparsePolynomial:
    """Exact quotient f / g over Z; raises ArithmeticError when g does not
    divide f in Z[x], even if it does over Q.  Inputs must not be Laurent."""
    if f.n != g.n:
        raise ValueError("ambient mismatch")
    if g.is_zero():
        raise ArithmeticError("division by zero polynomial")
    if f.is_zero():
        return f
    if any(k < 0 for e in list(f.terms) + list(g.terms) for k in e):
        raise ArithmeticError("exact division requires non-Laurent operands")
    lead_e, lead_c = g.leading()
    rem = dict(f.terms)
    quo: dict[tuple[int, ...], int] = {}
    while rem:
        # leading exponents strictly decrease, so each quotient term is final
        re = max(rem, key=_dp_key)
        diff = tuple(a - b for a, b in zip(re, lead_e))
        coeff, r = divmod(rem[re], lead_c)
        if r or any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division")
        quo[diff] = coeff
        for e, c in g.terms.items():
            tgt = tuple(a + b for a, b in zip(e, diff))
            val = rem.get(tgt, 0) - coeff * c
            if val:
                rem[tgt] = val
            else:
                rem.pop(tgt, None)
    return SparsePolynomial(f.n, quo)


# -- univariate wrapper and resultants -----------------------------------


class UniPoly:
    """Polynomial in one distinguished variable u whose coefficients are
    SparsePolynomial values in the remaining variables."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs) -> None:
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, SparsePolynomial) or c.n != n:
                raise ValueError("coefficients must share the ambient")
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.n = n
        self.coeffs = tuple(coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> SparsePolynomial:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return SparsePolynomial.zero(self.n)

    def __repr__(self) -> str:
        return f"UniPoly({self.n}, {list(self.coeffs)!r})"


def scaled_substitute(f: SparsePolynomial, gamma) -> UniPoly:
    """Collect f(u^gamma * x) * u^delta by powers of u.

    gamma assigns an integer u-weight to each variable; a term with
    exponent e lands in u-degree <gamma, e> + delta, where delta is the
    minimal shift making the u-constant term nonzero.
    """
    gamma = tuple(gamma)
    if len(gamma) != f.n:
        raise ValueError("gamma arity mismatch")
    if f.is_zero():
        return UniPoly(f.n, [])
    weights = {e: sum(g * k for g, k in zip(gamma, e)) for e in f.terms}
    delta = -min(weights.values())
    buckets: dict[int, dict[tuple[int, ...], int]] = {}
    for e, c in f.terms.items():
        buckets.setdefault(weights[e] + delta, {})[e] = c
    top = max(buckets)
    return UniPoly(
        f.n,
        [
            SparsePolynomial(f.n, buckets.get(k, {}))
            for k in range(top + 1)
        ],
    )


def resultant_u(f: UniPoly, g: UniPoly) -> SparsePolynomial:
    """Resultant eliminating u: the determinant of the Sylvester matrix.

    The coefficients must be polynomials, not Laurent polynomials, and a
    coefficient with a negative exponent raises ValueError at entry
    whatever the degrees.  Both inputs constant in u raises NoVariable.

    A side a*u + b of degree 1 in u needs no matrix (Poisson formula):
    Res(a*u + b, h) = a^dh * h(-b/a) = sum_k h_k * (-b)^k * a^(dh - k),
    and Res(h, a*u + b) is (-1)^dh times that, so only polynomial
    products are taken.  Otherwise the determinant comes from a
    fraction-free elimination of the Sylvester matrix, whose exact
    divisions need non-Laurent entries; a side of degree 0 needs no
    special case there, since its block is c*I.
    """
    if f.n != g.n:
        raise ValueError("ambient mismatch")
    if any(k < 0 for c in f.coeffs + g.coeffs for e in c.terms for k in e):
        raise ValueError("resultant coefficients must not be Laurent")
    n = f.n
    if f.is_zero() or g.is_zero():
        return SparsePolynomial.zero(n)
    df, dg = f.degree(), g.degree()
    if df == 0 and dg == 0:
        raise NoVariable("both resultant arguments are constant in u")
    if df == 1 or dg == 1:
        if df == 1:
            linear, h, flip = f, g, False
        else:
            linear, h, flip = g, f, df % 2 == 1
        a, minus_b = linear.coeffs[1], -linear.coeffs[0]
        # Horner in (-b, a): acc = sum_{j >= k} h_j (-b)^(j-k) a^(dh-j)
        acc = h.coeffs[-1]
        a_power = a
        for k in range(len(h.coeffs) - 2, -1, -1):
            acc = acc * minus_b + h.coeffs[k] * a_power
            if k:
                a_power = a_power * a
        return -acc if flip else acc
    size = df + dg
    zero = SparsePolynomial.zero(n)
    rows = []
    for i in range(dg):
        row = [zero] * size
        for k in range(df + 1):
            row[i + k] = f.coeff(df - k)
        rows.append(row)
    for i in range(df):
        row = [zero] * size
        for k in range(dg + 1):
            row[i + k] = g.coeff(dg - k)
        rows.append(row)
    r, sign, last, _, _ = bareiss(rows)
    if r < size:
        return zero
    return -last if sign < 0 else last


# -- Newton polytope vertices --------------------------------------------


def _in_hull(p, pts) -> bool:
    """Exact feasibility of p in conv(pts) via phase-1 simplex with
    Bland's rule."""
    if not pts:
        return False
    npts = len(pts)
    k = len(p) + 1
    a = [[Fraction(pts[j][i]) for j in range(npts)] for i in range(len(p))]
    a.append([Fraction(1)] * npts)
    b = [Fraction(x) for x in p] + [Fraction(1)]
    for i in range(k):
        if b[i] < 0:
            b[i] = -b[i]
            a[i] = [-x for x in a[i]]
    # tableau columns: structural vars then artificial identity
    tab = [a[i] + [Fraction(1) if t == i else Fraction(0) for t in range(k)] + [b[i]] for i in range(k)]
    basis = list(range(npts, npts + k))
    while True:
        # reduced cost of structural column j for minimizing artificial sum
        enter = None
        for j in range(npts):
            s = sum(tab[i][j] for i in range(k) if basis[i] >= npts)
            if s > 0:
                enter = j
                break
        if enter is None:
            break
        leave = None
        best = None
        for i in range(k):
            if tab[i][enter] > 0:
                ratio = tab[i][-1] / tab[i][enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            break
        pivval = tab[leave][enter]
        tab[leave] = [x / pivval for x in tab[leave]]
        for i in range(k):
            if i != leave and tab[i][enter]:
                fct = tab[i][enter]
                tab[i] = [x - fct * y for x, y in zip(tab[i], tab[leave])]
        basis[leave] = enter
    infeas = sum(tab[i][-1] for i in range(k) if basis[i] >= npts)
    return infeas == 0


def newton_vertices(points) -> list[tuple[int, ...]]:
    """Vertices of the convex hull of a finite set of lattice points,
    decided exactly; output sorted lexicographically."""
    pts = sorted({tuple(p) for p in points})
    out = []
    for p in pts:
        others = [q for q in pts if q != p]
        if not _in_hull(p, others):
            out.append(p)
    return out
