"""Exact integer and rational linear algebra.

Everything here runs over Python ints and ``fractions.Fraction``; no floats
anywhere.  Determinants, ranks and rational nullspaces use one
fraction-free Bareiss elimination, every other elimination is one row
step (``eliminate``) into one normal form (``primitive``), lattice
computations use row-style Hermite normal form with unimodular
transforms, and canonical bases make equal lattices compare equal.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .errors import DegenerateDual, DiscforgeError, NotInSpan, ParseError


class IntMatrix:
    """Rectangular integer matrix.

    ``data`` is not changed after construction, because equality and hash
    read it.  ``IntMatrix(rows)`` is the input boundary and checks every
    entry and row length; ``IntMatrix._of`` wraps rows computed here
    unchecked.
    """

    __slots__ = ("data",)

    def __init__(self, rows) -> None:
        data = []
        width = None
        for row in rows:
            tup = tuple(row)
            for v in tup:
                if not isinstance(v, int) or isinstance(v, bool):
                    raise ParseError(f"matrix entry {v!r} is not an integer")
            if width is None:
                width = len(tup)
            elif len(tup) != width:
                raise ParseError("matrix rows have unequal lengths")
            data.append(tup)
        self.data = tuple(data)

    @classmethod
    def _of(cls, data: tuple) -> "IntMatrix":
        """The matrix on ``data``, a tuple of equal-length tuples of ints,
        taken as it is."""
        m = object.__new__(cls)
        m.data = data
        return m

    @property
    def rows(self) -> int:
        return len(self.data)

    @property
    def cols(self) -> int:
        return len(self.data[0]) if self.data else 0

    def row(self, i: int) -> tuple[int, ...]:
        return self.data[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def transpose(self) -> "IntMatrix":
        return IntMatrix._of(tuple(zip(*self.data)))

    def to_lists(self) -> list[list[int]]:
        return [list(r) for r in self.data]

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __repr__(self) -> str:
        return f"IntMatrix({self.to_lists()!r})"


def bareiss(rows) -> tuple[int, int, object, list, list[int]]:
    """Fraction-free Gaussian elimination over an exact integral domain.

    Works on ints, and on any ring element type with ``*``, ``-``, an
    exact ``//`` and truth testing for nonzero.  Pivots are the first
    nonzero entry of each column at or below the current row.  Returns
    (rank, sign, last pivot, echelon rows, pivot columns): sign is
    (-1)^(row swaps), and the last pivot is the minor on the pivot rows
    and columns, 1 when the rank is 0.  For a square matrix of full rank,
    sign * last pivot is the determinant.  Echelon row k holds, in column
    j, the minor on the first k + 1 pivot rows and the columns of the
    first k pivots and j; the eliminated columns hold int 0.
    """
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    r = 0
    sign = 1
    prev = 1
    pivots: list[int] = []
    for c in range(nc):
        if r == nr:
            break
        piv = next((i for i in range(r, nr) if a[i][c]), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            sign = -sign
        top = a[r]
        p = top[c]
        # new rows, so no eliminated entry keeps its old value alive
        zeros = [0] * (c + 1)
        tail = top[c + 1 :]
        for i in range(r + 1, nr):
            row = a[i]
            f = row[c]
            a[i] = zeros + [
                (p * x - f * y) // prev for x, y in zip(row[c + 1 :], tail)
            ]
        pivots.append(c)
        prev = p
        r += 1
    return r, sign, prev, a[:r], pivots


def rank(m: IntMatrix) -> int:
    """Rank via fraction-free Bareiss elimination."""
    return bareiss(m.data)[0]


def primitive(v) -> tuple[int, ...]:
    """v divided by its content, positive at its first nonzero entry, the
    one normal form of an echelon row; a zero vector stays zero."""
    g = gcd(*v) or 1
    if next(filter(None, v), 0) < 0:
        g = -g
    return tuple(v) if g == 1 else tuple([x // g for x in v])


def eliminate(v, p, row) -> tuple[int, ...]:
    """The one row step: the ``primitive`` of row[p]*v - v[p]*row, zero at
    p.  Every caller's pivot p is the first nonzero entry of row, so the
    result is also zero wherever v is zero before p."""
    a, f = row[p], v[p]
    return primitive([a * x - f * y for x, y in zip(v, row)])


def echelon_extend(basis: tuple, vec) -> tuple:
    """Grow a fraction-free echelon basis of a rational span by one vector.

    ``basis`` is a tuple of (pivot, row) pairs, each row zero at the
    pivots of the rows before it.  ``vec`` is reduced against the rows
    (``eliminate``); if it lies in their span the same basis object is
    returned, else a new basis with the ``primitive`` residual appended,
    pivoted at its first nonzero entry, so ``len`` is the rank of the span.
    """
    for p, row in basis:
        if vec[p]:
            vec = eliminate(vec, p, row)
    piv = next((j for j, x in enumerate(vec) if x), None)
    if piv is None:
        return basis
    return basis + ((piv, primitive(vec)),)


def row_hermite_transform(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row Hermite normal form with transform: returns (H, U), H = U*M.

    H is in row echelon form with positive pivots and entries above each
    pivot reduced into [0, pivot); U is unimodular.  Zero rows of H sit at
    the bottom.
    """
    nr, nc = m.rows, m.cols
    a = [list(r) for r in m.data]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        if r == nr:
            break
        while True:
            nz = [i for i in range(r, nr) if a[i][c] != 0]
            if not nz:
                break
            best = min(nz, key=lambda i: (abs(a[i][c]), i))
            if best != r:
                a[r], a[best] = a[best], a[r]
                u[r], u[best] = u[best], u[r]
            clean = True
            for i in range(r + 1, nr):
                if a[i][c] != 0:
                    q = a[i][c] // a[r][c]
                    for j in range(nc):
                        a[i][j] -= q * a[r][j]
                    for j in range(nr):
                        u[i][j] -= q * u[r][j]
                    if a[i][c] != 0:
                        clean = False
            if clean:
                break
        if a[r][c] == 0:
            continue
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        for i in range(r):
            q = a[i][c] // a[r][c]
            if q:
                for j in range(nc):
                    a[i][j] -= q * a[r][j]
                for j in range(nr):
                    u[i][j] -= q * u[r][j]
        r += 1
    return IntMatrix._of(tuple(map(tuple, a))), IntMatrix._of(tuple(map(tuple, u)))


def row_hermite(m: IntMatrix) -> IntMatrix:
    """Row Hermite normal form with zero rows removed."""
    h, _ = row_hermite_transform(m)
    return IntMatrix._of(tuple(row for row in h.data if any(row)))


def _pivot_columns(h: IntMatrix) -> list[int]:
    cols = []
    for row in h.data:
        if not any(row):
            break
        cols.append(next(j for j, v in enumerate(row) if v))
    return cols


def kernel_lattice_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the saturated integer kernel {v : M v = 0}, as
    the rows of its Hermite normal form, so equal kernels compare equal.

    Computed through the unimodular transform of the Hermite form of M^T:
    the transform rows aligned with zero rows of the echelon form span all
    integer solutions, hence the kernel comes out saturated by construction.
    """
    h, u = row_hermite_transform(m.transpose())
    vecs = tuple(u.row(i) for i in range(h.rows) if not any(h.row(i)))
    return row_hermite(IntMatrix._of(vecs))


def lattice_index(c: IntMatrix) -> int:
    """Index in its saturation of the lattice spanned by the columns of c.

    The product of the Hermite pivots, which equals the gcd of all
    maximal minors; requires full column rank.
    """
    h = row_hermite(c)
    if h.rows < c.cols:
        raise DegenerateDual("columns are rank deficient, index undefined")
    return prod(row[j] for j, row in enumerate(h.data))


def smallest_multiplier(rows: IntMatrix, w) -> tuple[int, tuple[int, ...]]:
    """Least q >= 1 with q*w in the integer row span of ``rows``, and the
    integer row combination x with x*rows = q*w.

    One Hermite solve: the nonzero rows of H = U*rows are independent, so
    w has unique rational coordinates y in them, q is the lcm of their
    denominators and x = (q*y)*U.  Any other integer solution differs from
    x by an element of the left kernel of ``rows``.  Raises NotInSpan when
    w is outside the rational row span.
    """
    t = [Fraction(x) for x in w]
    if len(t) != rows.cols:
        raise ValueError("target length does not match matrix width")
    h, u = row_hermite_transform(rows)
    y = []
    for j, c in enumerate(_pivot_columns(h)):
        coord = t[c] / h.row(j)[c]
        y.append(coord)
        if coord:
            t = [x - coord * v for x, v in zip(t, h.row(j))]
    if any(t):
        raise NotInSpan("vector lies outside the rational row span")
    q = lcm(*(coord.denominator for coord in y))
    x = tuple(
        sum(int(q * coord) * u.row(j)[k] for j, coord in enumerate(y))
        for k in range(rows.rows)
    )
    return q, x


def integer_solve(m: IntMatrix, target) -> tuple[int, ...] | None:
    """Integer row combination x with x*M = target, or None: the q == 1
    case of ``smallest_multiplier``."""
    try:
        q, x = smallest_multiplier(m, target)
    except NotInSpan:
        return None
    return x if q == 1 else None


def rational_nullspace(rows) -> list[tuple[int, ...]]:
    """Basis of the rational nullspace {v : M v = 0} of a matrix.

    Accepts any nested iterable of ints or Fractions; a row of ints is
    taken as it is, and any other row is scaled to integers by the lcm
    of its denominators.  The rows are eliminated by ``bareiss``.  For
    each free column f, v[f] is the last pivot d, the other free
    coordinates are 0, and back-substitution fills the pivot coordinates
    from the last row up: by Cramer's rule each is a minor of the integer
    matrix, so every division is exact.  Each row's sum runs over the
    coordinates already nonzero, which gives the full sum because an
    echelon row is zero left of its pivot.  Returned vectors are
    primitive integer vectors, positive in their free coordinate.
    """
    a = []
    for row in rows:
        row = list(row)
        if not all(type(x) is int for x in row):
            mult = lcm(*(x.denominator for x in row))
            row = [x.numerator * (mult // x.denominator) for x in row]
        a.append(row)
    if not a:
        return []
    nc = len(a[0])
    r, _, d, ech, pivots = bareiss(a)
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        v = [0] * nc
        v[f] = d
        nonzero = [f]
        for k in range(r - 1, -1, -1):
            row = ech[k]
            c = pivots[k]
            q, rem = divmod(-sum(row[j] * v[j] for j in nonzero), row[c])
            if rem:
                raise DiscforgeError("nullspace back-substitution is not exact")
            if q:
                v[c] = q
                nonzero.append(c)
        g = gcd(*v) if d > 0 else -gcd(*v)
        basis.append(tuple(x // g for x in v))
    return basis
