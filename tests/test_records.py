"""Result records: immutable named tuples."""

import pytest

from discforge.defect import is_dual_defect
from discforge.disc import discriminant
from discforge.matroid import Decomposition, closure


def test_records_are_immutable(seven_point_b, twisted_cubic):
    records = [
        (closure(seven_point_b, (4,)), "rank"),
        (is_dual_defect(twisted_cubic), "defect"),
        (discriminant(twisted_cubic), "poly"),
    ]
    for record, field in records:
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def test_record_equals_the_tuple_of_its_fields():
    dec = Decomposition(parts=((0, 1),), ranks=(1,))
    assert dec == (((0, 1),), (1,))
