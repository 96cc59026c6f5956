"""Point configurations, Gale duality and Cayley constructions.

Columns of a point configuration matrix are the points; rows of a Gale
configuration matrix are the dual vectors.  Duality is always computed
through saturated kernel lattices so a Gale dual has index 1 and, for a
homogeneous input, rows summing to zero; only ``gale_pair`` gives a
rational basis, for callers that read the span alone.  The size bound
on support enumeration lives here too, so the CLI can check it without
loading the enumeration.
"""

from __future__ import annotations

import os

from .errors import (
    DegenerateDual,
    DuplicatePoint,
    NotHomogeneous,
    ParseError,
)
from .lattice import (
    IntMatrix,
    integer_solve,
    kernel_lattice_basis,
    lattice_index,
    rank,
    rational_nullspace,
)

SIZE_BOUND_ENV = "DISCFORGE_SIZE_BOUND"
DEFAULT_SIZE_BOUND = 12


def size_bound() -> int:
    """The largest n that the dimension walk and the support lattice
    accept: DISCFORGE_SIZE_BOUND, default 12.

    A value that is not a non-negative integer raises ParseError.
    """
    raw = os.environ.get(SIZE_BOUND_ENV)
    if raw is None:
        return DEFAULT_SIZE_BOUND
    try:
        bound = int(raw)
        if bound < 0:
            raise ValueError
    except ValueError:
        raise ParseError(
            f"{SIZE_BOUND_ENV} must be a non-negative integer, got {raw!r}"
        ) from None
    return bound


class PointConfiguration:
    """A finite set of distinct lattice points, stored as matrix columns."""

    __slots__ = ("matrix", "labels")

    def __init__(self, matrix, labels=None) -> None:
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        cols = [matrix.col(j) for j in range(matrix.cols)]
        if len(set(cols)) != len(cols):
            raise DuplicatePoint("configuration has repeated points")
        if matrix.cols and rank(matrix) < matrix.rows:
            raise DegenerateDual("configuration matrix must have full row rank")
        if labels is None:
            labels = tuple(f"x{j + 1}" for j in range(matrix.cols))
        else:
            labels = tuple(labels)
            if len(labels) != matrix.cols:
                raise ValueError("one label per point required")
        self.matrix = matrix
        self.labels = labels

    @property
    def d(self) -> int:
        return self.matrix.rows

    @property
    def n(self) -> int:
        return self.matrix.cols

    def point(self, j: int) -> tuple[int, ...]:
        return self.matrix.col(j)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointConfiguration)
            and self.matrix == other.matrix
        )

    def __hash__(self) -> int:
        return hash(self.matrix)

    def __repr__(self) -> str:
        return f"PointConfiguration({self.matrix.to_lists()!r})"


class GaleConfiguration:
    """Vector configuration dual to a point configuration; rows are the
    dual vectors.

    The ambient codimension is the column count m; the actual rank may be
    smaller for degenerate inputs such as reduced configurations.
    ``matrix`` and ``labels`` are not changed after construction, because
    equality and hash read them; rank and index are cached on first use.
    """

    __slots__ = ("matrix", "labels", "_rank", "_index")

    def __init__(self, matrix, labels=None) -> None:
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix)
        if labels is None:
            labels = tuple(f"x{i + 1}" for i in range(matrix.rows))
        else:
            labels = tuple(labels)
            if len(labels) != matrix.rows:
                raise ValueError("one label per row required")
        self.matrix = matrix
        self.labels = labels
        self._rank = None
        self._index = None

    @property
    def n(self) -> int:
        return self.matrix.rows

    @property
    def m(self) -> int:
        return self.matrix.cols

    @property
    def rank(self) -> int:
        if self._rank is None:
            self._rank = rank(self.matrix)
        return self._rank

    @property
    def index(self) -> int:
        """gcd of the maximal minors; requires full column rank."""
        if self._index is None:
            self._index = lattice_index(self.matrix)
        return self._index

    def row(self, i: int) -> tuple[int, ...]:
        return self.matrix.row(i)

    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self.matrix.data

    def zero_rows(self) -> tuple[int, ...]:
        return tuple(i for i, r in enumerate(self.matrix.data) if not any(r))

    def sigma(self, indices=None) -> tuple[int, ...]:
        """Sum of the selected rows (all rows when indices is None)."""
        idx = range(self.n) if indices is None else indices
        out = [0] * self.m
        for i in idx:
            for j, v in enumerate(self.matrix.row(i)):
                out[j] += v
        return tuple(out)

    def is_homogeneous(self) -> bool:
        return not any(self.sigma())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GaleConfiguration)
            and self.matrix == other.matrix
            and self.labels == other.labels
        )

    def __hash__(self) -> int:
        return hash((self.matrix, self.labels))

    def __repr__(self) -> str:
        return f"GaleConfiguration({self.matrix.to_lists()!r})"


def is_homogeneous(cfg: PointConfiguration) -> bool:
    """Does the rational row span of the configuration contain (1,...,1)?"""
    ones = (1,) * cfg.n
    extended = IntMatrix(list(cfg.matrix.data) + [ones])
    return rank(extended) == rank(cfg.matrix)


def gale_dual(cfg: PointConfiguration) -> GaleConfiguration:
    """Gale dual: kernel lattice basis vectors as columns.

    The columns are a Hermite basis of a saturated lattice, so B comes
    with its rank m and index 1 already known.
    """
    cols = kernel_lattice_basis(cfg.matrix).data
    rows = tuple(tuple(v[i] for v in cols) for i in range(cfg.n))
    b = GaleConfiguration(IntMatrix._of(rows), labels=cfg.labels)
    b._rank = len(cols)
    b._index = 1
    return b


def gale_side(cfg) -> GaleConfiguration:
    """The Gale side of either kind of configuration: a point
    configuration's Gale dual, or a Gale configuration unchanged."""
    if isinstance(cfg, PointConfiguration):
        return gale_dual(cfg)
    if isinstance(cfg, GaleConfiguration):
        return cfg
    raise TypeError("expected a point or Gale configuration")


def gale_pair(cfg) -> tuple[GaleConfiguration, list]:
    """A Gale side B of either kind of configuration, and the rows of a
    basis K of ker B^T, the rational row span of A.

    For a point configuration both come from one elimination: the
    columns of B are ``rational_nullspace(A)``, of rank m, and K is A
    itself, which has full row rank.  This B spans ker A over Q but is
    not the canonical ``gale_dual``; it is for callers whose answers
    depend only on the column span of B.  A Gale configuration is B
    itself, and K is ``rational_nullspace(B^T)``.
    """
    if isinstance(cfg, PointConfiguration):
        cols = rational_nullspace(cfg.matrix.data)
        rows = tuple(tuple(v[i] for v in cols) for i in range(cfg.n))
        b = GaleConfiguration(IntMatrix._of(rows), labels=cfg.labels)
        b._rank = len(cols)
        return b, list(cfg.matrix.data)
    b = gale_side(cfg)
    return b, rational_nullspace(zip(*b.rows()))


def _orthogonal_basis(b: GaleConfiguration) -> IntMatrix:
    """Canonical basis of the saturated lattice orthogonal to the columns
    of B: all of Z^n, as the identity, when B has no columns."""
    if b.m == 0:
        n = b.n
        return IntMatrix._of(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        )
    return kernel_lattice_basis(b.matrix.transpose())


def dual_of(cfg: GaleConfiguration) -> PointConfiguration:
    """Point configuration dual to a vector configuration.

    Rows of the result form the canonical basis of the saturated lattice
    orthogonal to the columns of B; a zero row of B makes the result a
    pyramid, which callers may report.
    """
    return PointConfiguration(_orthogonal_basis(cfg), labels=cfg.labels)


def saturated_row_basis(cfg: PointConfiguration) -> IntMatrix:
    """Hermite basis of (rational row span of A) intersected with Z^n."""
    return _orthogonal_basis(gale_dual(cfg))


def standard_form(cfg: PointConfiguration) -> PointConfiguration:
    """Equivalent configuration whose first row is all ones.

    Requires homogeneity.  The remaining rows are the trailing rows of the
    Hermite basis H of the saturated row lattice, so the output is canonical
    for the rational row span.  H is saturated, so (1,...,1) is an integer
    combination of its rows exactly when it is in that span; only H's first
    row is nonzero in column 0, with a pivot dividing 1, so it is taken once.
    """
    h = saturated_row_basis(cfg)
    ones = (1,) * cfg.n
    if integer_solve(h, ones) is None:
        raise NotHomogeneous("(1,...,1) is not in the rational row span")
    rows = [ones] + [h.row(i) for i in range(1, h.rows)]
    return PointConfiguration(IntMatrix(rows), labels=cfg.labels)


def is_pyramid(cfg: PointConfiguration) -> bool:
    """True when every kernel vector avoids some coordinate.

    Equivalent to the Gale dual having a zero row; a configuration with
    n = d has an empty dual and is a pyramid by convention.
    """
    if cfg.n == cfg.d:
        return True
    b = gale_dual(cfg)
    return bool(b.zero_rows())


def segment(p: int) -> PointConfiguration:
    """The one-dimensional configuration {0, 1, ..., p}."""
    if not isinstance(p, int) or p < 1:
        raise ParseError("segment length must be a positive integer")
    return PointConfiguration(IntMatrix([list(range(p + 1))]))


def cayley(parts) -> PointConfiguration:
    """Cayley configuration of k+1 configurations sharing an ambient.

    Each point a of part i becomes the column e_i + a in Z^(k+1) x Z^r.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("cayley needs at least one configuration")
    r = parts[0].d
    if any(p.d != r for p in parts):
        raise ValueError("cayley parts must share the ambient dimension")
    k1 = len(parts)
    cols = []
    for i, part in enumerate(parts):
        for j in range(part.n):
            e = [0] * k1
            e[i] = 1
            cols.append(tuple(e) + part.point(j))
    rows = [tuple(c[i] for c in cols) for i in range(k1 + r)]
    return PointConfiguration(IntMatrix(rows))


__all__ = [
    "PointConfiguration",
    "GaleConfiguration",
    "is_homogeneous",
    "gale_dual",
    "gale_side",
    "gale_pair",
    "dual_of",
    "saturated_row_basis",
    "standard_form",
    "is_pyramid",
    "segment",
    "cayley",
    "size_bound",
    "SIZE_BOUND_ENV",
    "DEFAULT_SIZE_BOUND",
    "IntMatrix",
]
