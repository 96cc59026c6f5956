"""The memoized flag search and the incremental support-chain search
against the plain exhaustive searches in ``oracles``."""

import pytest
from conftest import SEVEN_ROWS
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import oracle_dual_variety_dim, oracle_flag_search

from discforge.config import (
    GaleConfiguration,
    PointConfiguration,
    cayley,
    dual_of,
    gale_dual,
    is_pyramid,
    segment,
)
from discforge.defect import dirocco_fixtures, dual_variety_dim
from discforge.lattice import IntMatrix, rank
from discforge.matroid import find_nonsplitting_flag


def _agree(a: PointConfiguration) -> None:
    b = gale_dual(a)
    assert find_nonsplitting_flag(b, b.m - 1) == oracle_flag_search(b, b.m - 1)
    assert dual_variety_dim(a) == oracle_dual_variety_dim(a)


NAMED = {
    "cayley-2-2-2": cayley([segment(2), segment(2), segment(2)]),
    "seven-point": dual_of(GaleConfiguration(SEVEN_ROWS)),
    "twisted-cubic": PointConfiguration([[1, 1, 1, 1], [0, 1, 2, 3]]),
    **dict(dirocco_fixtures()),
}


@pytest.mark.parametrize("name", list(NAMED))
def test_named_configurations_match_oracle(name):
    _agree(NAMED[name])


# homogenized planar point sets: columns (1, x, y), n <= 9
planar_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    min_size=4,
    max_size=9,
    unique=True,
).map(lambda pts: [[1] * len(pts), [x for x, _ in pts], [y for _, y in pts]])


@settings(max_examples=20, deadline=None)
@given(planar_rows)
def test_planar_point_sets_match_oracle(rows):
    assume(rank(IntMatrix(rows)) == 3)
    a = PointConfiguration(rows)
    assume(not is_pyramid(a))
    _agree(a)
