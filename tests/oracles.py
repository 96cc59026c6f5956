"""Independent oracles: codimension-one discriminants, and the plain
exhaustive searches behind dual-defect verdicts and dual dimensions.

Reconstructs the discriminant of a single dual vector b from first
principles, bypassing the closed binomial expression, the Horn map and
the gluing machinery entirely.  Its kernels come from a plain Fraction
Gauss-Jordan elimination kept here, so it shares no elimination code
with the library.

Derivation: build an explicit point configuration A dual to b.  For any
torus point x and the coefficient choice c_j = b_j / x^{a_j}, the vector
(c_j x^{a_j})_j = b lies in ker A, which says exactly that x is a
singular point of sum c_j x^{a_j} (the row of ones gives vanishing of the
function itself).  Such coefficient vectors therefore lie on the
discriminant hypersurface.  Since the discriminant is homogeneous for the
A-grading, its support sits inside a single grading fiber; scanning
fibers by increasing total degree and interpolating over the certified
samples recovers the polynomial as the unique kernel vector, confirmed on
a batch of fresh samples.

The search oracles run the flag and support-chain searches without any
memo, pruning or incremental basis: every span question is a fresh
Bareiss rank, every flat is re-expanded on every path that reaches it,
and every saturated support chain is ranked in full.  Flats of a given
rank come from closing every subset of that size, and complementary
planes from a scan over row pairs.

The lattice index is the gcd of every maximal minor (determinants from
the shared Bareiss elimination), the Horn map is a product of Fraction
powers of the linear forms, and Horn-Kapranov points
(B lam) * t^A give coefficient vectors on the discriminant of any
non-defect configuration, whichever route computed it.  The Jacobian of
that parametrization gives the dual dimension with no flat or flag at
all.  ``unreduced_dual_dim`` is the one exception: it is the library's
own walk on the Gale dual, with no certificate, kept to check the
certificate's answers.
``oracle_jacobian_rank`` ranks the whole n x n matrix of that
Jacobian at the library's fixed point with ``oracle_rref``, where the
library reads the rank off a smaller block.
``oracle_least_rho`` ranks the zero-sum parts of every set partition of
the rows with ``oracle_rref``, with no part search or cover recursion.
``oracle_resultant`` expands the Sylvester determinant along its first
row, with no elimination, no exact division and no substitution formula.
``oracle_is_nonsplitting_flag`` checks a witness flag against one
echelon basis grown up the flag, with every outside row reduced against
the whole basis at every flat, so that the library's check, which
carries residuals, has a plain reference.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import gcd, lcm

from discforge.config import (
    GaleConfiguration,
    PointConfiguration,
    dual_of,
    gale_dual,
    standard_form,
)
from discforge.errors import NotHomogeneous, OnExceptionalLocus
from discforge.lattice import IntMatrix, bareiss, echelon_extend, rank
from discforge.matroid import Flat, closure, flag_walk
from discforge.poly import SparsePolynomial, UniPoly

MAX_DEGREE = 12
VERIFY_SAMPLES = 40


def explicit_dual(b) -> IntMatrix:
    """A point configuration matrix with kernel lattice spanned by b,
    first row all ones."""
    cfg = GaleConfiguration(IntMatrix([[x] for x in b]))
    return standard_form(dual_of(cfg)).matrix


def critical_samples(a: IntMatrix, b, count: int) -> list[tuple[Fraction, ...]]:
    """Coefficient vectors certified to admit a singular torus zero."""
    d, n = a.rows, a.cols
    out: list[tuple[Fraction, ...]] = []
    seen = set()
    s = 2
    while len(out) < count:
        x = [Fraction(s + i) for i in range(d)]
        s += 1
        c = []
        for j in range(n):
            mono = Fraction(1)
            for i in range(d):
                mono *= x[i] ** a.row(i)[j]
            c.append(Fraction(b[j]) / mono)
        c = tuple(c)
        if c not in seen:
            seen.add(c)
            out.append(c)
    return out


def _monomials(n: int, degree: int):
    for bars in combinations_with_replacement(range(n), degree):
        e = [0] * n
        for i in bars:
            e[i] += 1
        yield tuple(e)


def _fibers(a: IntMatrix, degree: int) -> list[list[tuple[int, ...]]]:
    """Degree-d monomial exponents grouped by their A-grading value."""
    groups: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    for e in _monomials(a.cols, degree):
        grade = tuple(
            sum(a.row(i)[j] * e[j] for j in range(a.cols)) for i in range(a.rows)
        )
        groups.setdefault(grade, []).append(e)
    return [groups[g] for g in sorted(groups)]


def _evaluate_monomial(e, c) -> Fraction:
    v = Fraction(1)
    for x, k in zip(c, e):
        v *= x**k
    return v


def oracle_rref(rows) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction by plain Gauss-Jordan: the
    nonzero rows, each with a 1 at its pivot, and the pivot columns."""
    a = [[Fraction(x) for x in row] for row in rows]
    nc = len(a[0]) if a else 0
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, len(a)) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return a[:r], pivots


def oracle_nullspace(rows) -> list[tuple[Fraction, ...]]:
    """Basis of {v : M v = 0} from the reduced row echelon form: one
    vector per free column, with a 1 there and 0 at the other free
    columns.  An empty matrix has an empty basis."""
    rows = [list(row) for row in rows]
    if not rows:
        return []
    nc = len(rows[0])
    red, pivots = oracle_rref(rows)
    basis = []
    for f in range(nc):
        if f in pivots:
            continue
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for j, c in enumerate(pivots):
            v[c] = -red[j][f]
        basis.append(tuple(v))
    return basis


def clear_denominators(vec) -> tuple[int, ...]:
    """Scale a rational vector to a primitive integer vector, keeping the
    sign of its first nonzero coordinate."""
    fracs = [Fraction(x) for x in vec]
    mult = lcm(*[f.denominator for f in fracs])
    ints = [int(f * mult) for f in fracs]
    g = gcd(*ints)
    return tuple(v // g for v in ints) if g > 1 else tuple(ints)


def codim1_oracle(b) -> SparsePolynomial:
    """Discriminant of the dual vector b, from critical samples alone."""
    b = tuple(b)
    n = len(b)
    if any(x == 0 for x in b) or sum(b) != 0:
        raise ValueError("oracle needs a homogeneous vector without zeros")
    a = explicit_dual(b)
    for degree in range(1, MAX_DEGREE + 1):
        for fiber in _fibers(a, degree):
            if len(fiber) < 2:
                continue
            need = len(fiber) + 10
            attempts = 0
            while True:
                samples = critical_samples(a, b, need)
                rows = [
                    [_evaluate_monomial(e, c) for e in fiber] for c in samples
                ]
                kernel = oracle_nullspace(rows)
                if not kernel:
                    break
                if len(kernel) > 1:
                    attempts += 1
                    if attempts > 3:
                        break
                    need += len(fiber)
                    continue
                coeffs = clear_denominators(kernel[0])
                cand = SparsePolynomial(
                    n, {fiber[i]: c for i, c in enumerate(coeffs) if c}
                )
                fresh = critical_samples(a, b, need + VERIFY_SAMPLES)[need:]
                if all(cand.evaluate(c) == 0 for c in fresh):
                    return cand.normalize()
                break
    raise RuntimeError(f"no discriminant of degree <= {MAX_DEGREE} found for {b}")


def det(m: IntMatrix) -> int:
    """Determinant of a square matrix, fraction-free."""
    if m.rows != m.cols:
        raise ValueError("determinant requires a square matrix")
    r, sign, last, _, _ = bareiss(m.data)
    return sign * last if r == m.rows else 0


def oracle_lattice_index(c: IntMatrix) -> int:
    """gcd of all maximal minors of c: 0 when the columns are dependent."""
    g = 0
    for sub in combinations(range(c.rows), c.cols):
        g = gcd(g, det(IntMatrix([c.row(i) for i in sub])))
    return g


def horn_kapranov_point(a: IntMatrix, b: IntMatrix, lam, t) -> tuple[Fraction, ...]:
    """c_j = (B lam)_j * prod_i t_i^(a_ij): the Horn-Kapranov
    uniformization, moved along the torus orbit of the A-grading."""
    out = []
    for j in range(b.rows):
        v = Fraction(sum(x * y for x, y in zip(b.row(j), lam)))
        for i in range(a.rows):
            v *= Fraction(t[i]) ** a.row(i)[j]
        out.append(v)
    return tuple(out)


def oracle_horn_map(cfg: GaleConfiguration, zeta) -> tuple[Fraction, ...]:
    """The Horn map prod_i (b_i . zeta)^{b_ik} in plain Fraction
    arithmetic: every linear form and every power is a Fraction, zero
    rows are skipped, and a vanishing form under a nonzero row raises
    ``OnExceptionalLocus``."""
    if not cfg.is_homogeneous():
        raise NotHomogeneous("Horn map needs a homogeneous configuration")
    zeta = [Fraction(z) for z in zeta]
    if len(zeta) != cfg.m:
        raise ValueError("parameter arity mismatch")
    vals = []
    for i in range(cfg.n):
        row = cfg.row(i)
        if not any(row):
            vals.append(None)
            continue
        v = sum(Fraction(c) * z for c, z in zip(row, zeta))
        if v == 0:
            raise OnExceptionalLocus(f"linear factor of row {i} vanishes")
        vals.append(v)
    out = []
    for k in range(cfg.m):
        acc = Fraction(1)
        for i in range(cfg.n):
            e = cfg.row(i)[k]
            if e and vals[i] is not None:
                acc *= vals[i] ** e
        out.append(acc)
    return tuple(out)


def oracle_horn_curve(rows) -> SparsePolynomial:
    """Implicit equation of the Horn curve of a rank-2 dual by the full
    interpolation: D is the pole count of the rows summed per line, and
    the monomials of degree <= D at D^2 + 1 distinct curve points, taken
    at t = 1, -1, 2, -2, ..., all go through ``oracle_nullspace``, whose
    kernel must be one vector."""
    rows = [tuple(r) for r in rows]
    sums: dict[tuple[int, int], tuple[int, int]] = {}
    for b1, b2 in rows:
        g = gcd(b1, b2)
        line = max((b1 // g, b2 // g), (-b1 // g, -b2 // g))
        s1, s2 = sums.get(line, (0, 0))
        sums[line] = (s1 + b1, s2 + b2)
    deg = sum(max(0, -s1, -s2) for s1, s2 in sums.values())
    samples: dict[tuple[Fraction, Fraction], None] = {}
    t = 0
    while len(samples) < deg * deg + 1:
        t = -t if t > 0 else 1 - t
        lin = [Fraction(b1 * t + b2) for b1, b2 in rows]
        if all(lin):
            z = [_evaluate_monomial([r[k] for r in rows], lin) for k in (0, 1)]
            samples[tuple(z)] = None
    monos = [(a, d - a) for d in range(deg + 1) for a in range(d + 1)]
    kernel = oracle_nullspace(
        [[z1**a * z2**b for a, b in monos] for z1, z2 in samples]
    )
    if len(kernel) != 1:
        raise ValueError(f"interpolation kernel has dimension {len(kernel)}")
    coeffs = clear_denominators(kernel[0])
    return SparsePolynomial(
        2, {monos[i]: c for i, c in enumerate(coeffs) if c}
    ).normalize()


def _laplace_det(rows, n: int) -> SparsePolynomial:
    if not rows:
        return SparsePolynomial.constant(n, 1)
    total = SparsePolynomial.zero(n)
    for j, entry in enumerate(rows[0]):
        if entry.is_zero():
            continue
        term = entry * _laplace_det([r[:j] + r[j + 1 :] for r in rows[1:]], n)
        total = total - term if j % 2 else total + term
    return total


def oracle_resultant(f: UniPoly, g: UniPoly) -> SparsePolynomial:
    """Res_u(f, g) as the determinant of the (df + dg)-square Sylvester
    matrix (dg shifted rows of f's coefficients, then df of g's, highest
    power first), expanded by minors along the first row."""
    df, dg = len(f.coeffs) - 1, len(g.coeffs) - 1
    zero = SparsePolynomial.zero(f.n)
    top_f, top_g = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = [[zero] * i + top_f + [zero] * (dg - 1 - i) for i in range(dg)]
    rows += [[zero] * i + top_g + [zero] * (df - 1 - i) for i in range(df)]
    return _laplace_det(rows, f.n)


# -- flag and support-chain searches ---------------------------------------


def _span_rank(cfg: GaleConfiguration, indices) -> int:
    rows = [cfg.row(i) for i in indices]
    return rank(IntMatrix(rows)) if rows else 0


def _in_span(cfg: GaleConfiguration, indices, vec) -> bool:
    rows = [cfg.row(i) for i in indices]
    return _span_rank(cfg, indices) == rank(IntMatrix(rows + [tuple(vec)]))


def oracle_closure(cfg: GaleConfiguration, indices) -> Flat:
    """Every row in the rational span of the given rows."""
    core = sorted(set(indices))
    members = [i for i in range(cfg.n) if _in_span(cfg, core, cfg.row(i))]
    return Flat(
        indices=tuple(members),
        rank=_span_rank(cfg, members),
        sigma=cfg.sigma(members),
    )


def oracle_flag_search(cfg: GaleConfiguration, k: int):
    """First non-splitting flag of length k in the depth-first order of
    ``matroid.find_nonsplitting_flag`` (extensions by one row, candidate
    flats in index order), or None."""
    if k == 0:
        return ()

    def extensions(fl_indices):
        cands: dict[tuple[int, ...], Flat] = {}
        for i in range(cfg.n):
            if i not in fl_indices:
                nxt = oracle_closure(cfg, tuple(fl_indices) + (i,))
                cands.setdefault(nxt.indices, nxt)
        return [cands[key] for key in sorted(cands)]

    def dfs(chain):
        depth = len(chain)
        if depth == k:
            return tuple(chain)
        base = chain[-1].indices if chain else ()
        for cand in extensions(base):
            if cand.rank != depth + 1 or _in_span(cfg, base, cand.sigma):
                continue
            found = dfs(chain + [cand])
            if found is not None:
                return found
        return None

    return dfs([])


def oracle_is_nonsplitting_flag(cfg: GaleConfiguration, flats) -> bool:
    """The witness check of ``matroid.is_nonsplitting_flag`` with no
    carried residuals: one echelon basis (``lattice.echelon_extend``) is
    grown up the flag, and each flat is closed when no row outside it
    lies in the span of that whole basis."""
    basis: tuple = ()
    prev: set[int] = set()
    for j, fl in enumerate(flats):
        inside = set(fl.indices)
        if fl.rank != j + 1 or not prev <= inside:
            return False
        if fl.indices != tuple(i for i in range(cfg.n) if i in inside):
            return False
        if fl.sigma != cfg.sigma(fl.indices):
            return False
        if echelon_extend(basis, fl.sigma) is basis:
            return False
        for i in fl.indices:
            if i not in prev:
                basis = echelon_extend(basis, cfg.row(i))
        if len(basis) != fl.rank:
            return False
        for i in range(cfg.n):
            if i not in inside and echelon_extend(basis, cfg.row(i)) is basis:
                return False
        prev = inside
    return True


def oracle_flats_of_rank(cfg: GaleConfiguration, k: int) -> list[Flat]:
    """Rank-k flats, ordered by index tuple: the closures of all k-subsets
    of rank k."""
    seen: dict[tuple[int, ...], Flat] = {}
    for sub in combinations(range(cfg.n), k):
        if _span_rank(cfg, sub) == k:
            fl = oracle_closure(cfg, sub)
            seen.setdefault(fl.indices, fl)
    return [seen[key] for key in sorted(seen)]


def oracle_support_lattice(a: PointConfiguration):
    """(elements, height, covers) of the support lattice: complements of
    the rank < m flats of the Gale dual at height m - rank, ordered by
    size then members, each covered by the supports one height up that
    contain it."""
    b = gale_dual(a)
    n, m = a.n, b.m
    height: dict[frozenset, int] = {}
    for k in range(m):
        for fl in oracle_flats_of_rank(b, k):
            height[frozenset(range(n)) - set(fl.indices)] = m - k
    elements = tuple(sorted(height, key=lambda s: (len(s), sorted(s))))
    covers = {
        s: [t for t in elements if height[t] == height[s] + 1 and s < t]
        for s in elements
    }
    return elements, height, covers


def oracle_complementary_planes(red: GaleConfiguration):
    """Scan the independent row pairs in lexicographic order; return the
    rows in the first pair's span and the other rows once those have rank
    2 and all rows rank 4, or None."""
    n = red.n
    for i, j in combinations(range(n), 2):
        if _span_rank(red, (i, j)) != 2:
            continue
        part1 = [t for t in range(n) if _span_rank(red, (i, j, t)) == 2]
        part2 = [t for t in range(n) if t not in part1]
        if part2 and _span_rank(red, part2) == 2 and _span_rank(red, range(n)) == 4:
            return tuple(part1), tuple(part2)
    return None


def oracle_dual_variety_dim(a: PointConfiguration) -> int:
    """max rank(A^T | 1_s1 | ... | 1_s(m-1)) - 1 over all saturated chains
    of proper supports in ``oracle_support_lattice``."""
    b = gale_dual(a)
    n, m = a.n, b.m
    if m == 1:
        return rank(a.matrix) - 1
    elements, height, covers = oracle_support_lattice(a)
    at = a.matrix.transpose()

    def chain_rank(chain) -> int:
        rows = [
            at.row(i) + tuple(1 if i in s else 0 for s in chain)
            for i in range(n)
        ]
        return rank(IntMatrix(rows))

    def chains(chain):
        if len(chain) == m - 1:
            yield chain
            return
        for t in covers[chain[-1]]:
            yield from chains(chain + [t])

    starts = [s for s in elements if height[s] == 1]
    return max(chain_rank(c) for s in starts for c in chains([s])) - 1


def unreduced_dual_dim(b: GaleConfiguration) -> int:
    """The dimension walk of ``defect.dual_variety_dim`` run on B with
    no certificate first: n - m - 1 plus the best rank of the sigmas of
    a complete flag of flats of B.  It shares the walk with the library
    and checks only the certificate that settles most inputs before it."""
    best = flag_walk(b, b.m - 1, {}, set(), closure(b, ()), (), (-1, ()))
    return b.n - b.m - 1 + best[0]


def jacobian_dual_dim(a: PointConfiguration) -> int:
    """rank M(lam) - 1 for M(lam) = [B | diag(B lam) A^T], maximized over
    three seeded integer lam.

    M(lam) is the Jacobian of the Horn-Kapranov map (lam, t) -> (B lam) * t^A
    at t = 1, after scaling its rows by t^-A, so its generic rank is the
    dimension of the affine cone over the dual variety.  The rank at any
    one lam is at most the generic rank; ranks come from ``oracle_rref``.
    """
    b = gale_dual(a).matrix
    at = a.matrix.transpose()
    rng = random.Random(a.n)
    best = 0
    for _ in range(3):
        lam = [rng.randint(-50, 50) for _ in range(b.cols)]
        rows = []
        for i in range(a.n):
            bl = sum(x * y for x, y in zip(b.row(i), lam))
            rows.append(list(b.row(i)) + [bl * x for x in at.row(i)])
        best = max(best, len(oracle_rref(rows)[1]))
    return best - 1


def oracle_jacobian_rank(b: GaleConfiguration, kernel) -> int:
    """rank [B | diag(B lam0) K^T], K the rows of ``kernel``, from
    ``oracle_rref`` on the whole n x n matrix; lam0 is recomputed from
    the formula of ``defect._lambda0``."""
    lam = [
        pow(48271, j, 2**31 - 1) % 1_000_001 - 500_000 for j in range(1, b.m + 1)
    ]
    rows = []
    for i, row in enumerate(b.rows()):
        s = sum(x * y for x, y in zip(row, lam))
        rows.append(list(row) + [s * v[i] for v in kernel])
    return len(oracle_rref(rows)[1])


def _set_partitions(items):
    """Every partition of the list ``items`` into nonempty blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for blocks in _set_partitions(items[1:]):
        yield [[first]] + blocks
        for i in range(len(blocks)):
            yield blocks[:i] + [[first] + blocks[i]] + blocks[i + 1 :]


def oracle_least_rho(b: GaleConfiguration) -> int:
    """The least sum of (rank P - 1) over the set partitions of the n <= 8
    rows of B whose parts P each sum to zero, found by listing every set
    partition."""
    if b.n > 8:
        raise ValueError("oracle_least_rho enumerates partitions of n <= 8 rows only")
    ranks: dict[tuple[int, ...], int] = {}
    best = None
    for blocks in _set_partitions(list(range(b.n))):
        rows = [[b.row(i) for i in p] for p in blocks]
        if any(any(map(sum, zip(*r))) for r in rows):
            continue
        for p, r in zip(blocks, rows):
            if tuple(p) not in ranks:
                ranks[tuple(p)] = len(oracle_rref(r)[1])
        rho = sum(ranks[tuple(p)] - 1 for p in blocks)
        best = rho if best is None else min(best, rho)
    return best
