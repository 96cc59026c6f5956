"""Exact rational helpers for the benchmark's own checks.

These share no code with discforge, so a check built on them does not
depend on the code it checks: a rational kernel, a rank, Horn-Kapranov
points and polynomial evaluation from the polynomial JSON form.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm


def _echelon(rows) -> tuple[list[list[Fraction]], list[int]]:
    a = [[Fraction(x) for x in r] for r in rows]
    pivots: list[int] = []
    r = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
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
    return a, pivots


def rank(rows) -> int:
    return len(_echelon(rows)[1]) if rows else 0


def kernel(rows, ncols: int) -> list[list[int]]:
    """Integer basis of the rational kernel {v : M v = 0} of an r x ncols matrix."""
    a, pivots = _echelon(rows) if rows else ([], [])
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for j, c in enumerate(pivots):
            v[c] = -a[j][f]
        scale = lcm(*(x.denominator for x in v))
        out.append([int(x * scale) for x in v])
    return out


def other_side(side: str, matrix) -> tuple[list[list[int]], list[list[int]]]:
    """(A, B) for a point matrix A (side "a", d x n) or a dual matrix B
    (side "b", n x m): the columns of B span ker A."""
    if side == "a":
        a = [list(r) for r in matrix]
        cols = kernel(a, len(a[0]))
        b = [list(r) for r in zip(*cols)]
    else:
        b = [list(r) for r in matrix]
        bt = [list(c) for c in zip(*b)]
        a = kernel(bt, len(b))
    return a, b


def _draw(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([x for x in range(-5, 6) if x]), rng.randint(1, 4))


def hk_point(rng: random.Random, side: str, matrix) -> list[Fraction]:
    """A seeded Horn-Kapranov point c_j = (B lam)_j * t^(-a_j).

    Every nontrivial discriminant of the configuration vanishes there
    (Kapranov 1991), whichever route computed it.
    """
    a, b = other_side(side, matrix)
    m = len(b[0])
    while True:
        lam = [_draw(rng) for _ in range(m)]
        blam = [sum(x * y for x, y in zip(row, lam)) for row in b]
        if all(blam):
            break
    t = [_draw(rng) for _ in range(len(a))]
    out = []
    for j, v in enumerate(blam):
        for i, ti in enumerate(t):
            v *= ti ** -a[i][j]
        out.append(v)
    return out


def evaluate(poly: dict, point) -> Fraction:
    """Value of a polynomial in discforge's JSON form at a rational point."""
    total = Fraction(0)
    for term in poly["terms"]:
        v = Fraction(int(term["coeff"]))
        for x, k in zip(point, term["exps"]):
            if k:
                v *= Fraction(x) ** k
        total += v
    return total


def fmt(point) -> list[str]:
    return [str(Fraction(x)) for x in point]
