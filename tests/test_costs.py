import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorefair.costs import (
    Additive,
    CappedAdditive,
    Cardinality,
    PartitionMatroidRank,
    ResidualView,
    Table,
    Threshold,
    evaluate,
    marginal,
    residual,
    value_table,
)
from chorefair.errors import InvalidInputError, UnsupportedSizeError
from chorefair.itemset import full_set, iter_items, size


def test_additive_values():
    fn = Additive((1, 0, 1, 1))
    assert fn.m == 4
    assert evaluate(fn, 0) == 0
    assert evaluate(fn, 0b1111) == 3
    assert evaluate(fn, 0b0010) == 0
    assert marginal(fn, 1, 0b0001) == 0
    assert marginal(fn, 3, 0b0001) == 1


def test_additive_rejects_non_binary_costs():
    with pytest.raises(InvalidInputError):
        Additive((1, 2, 0))
    with pytest.raises(InvalidInputError):
        Additive((-1,))


def test_capped_additive_values():
    fn = CappedAdditive(costs=(1, 1, 1, 0, 1), cap=2)
    assert evaluate(fn, 0b11111) == 2
    assert evaluate(fn, 0b00011) == 2
    assert evaluate(fn, 0b01000) == 0
    assert marginal(fn, 4, 0b00011) == 0
    with pytest.raises(InvalidInputError):
        CappedAdditive(costs=(1,), cap=-1)


def test_cardinality_values():
    fn = Cardinality(cap=5, m=8)
    assert evaluate(fn, full_set(5)) == 5
    assert evaluate(fn, full_set(7)) == 5
    assert evaluate(fn, 0b11) == 2
    assert marginal(fn, 7, full_set(5)) == 0
    assert marginal(fn, 7, 0b11) == 1


def test_partition_matroid_values():
    fn = PartitionMatroidRank(groups=((0, 1), (2, 3, 4)), capacities=(1, 2))
    assert fn.m == 5
    # the cached size stays out of equality, hashing and repr
    same = PartitionMatroidRank(groups=((1, 0), (2, 3, 4)), capacities=(1, 2))
    assert fn == same and hash(fn) == hash(same)
    assert repr(fn) == "PartitionMatroidRank(groups=((0, 1), (2, 3, 4)), capacities=(1, 2))"
    assert evaluate(fn, 0b00011) == 1
    assert evaluate(fn, 0b11100) == 2
    assert evaluate(fn, full_set(5)) == 3
    assert marginal(fn, 1, 0b00001) == 0
    assert marginal(fn, 4, 0b01100) == 0
    assert marginal(fn, 4, 0b00011) == 1


def test_partition_matroid_validation():
    with pytest.raises(InvalidInputError):
        PartitionMatroidRank(groups=((0, 1), (1, 2)), capacities=(1, 1))
    with pytest.raises(InvalidInputError):
        PartitionMatroidRank(groups=((0, 2),), capacities=(1,))
    with pytest.raises(InvalidInputError):
        PartitionMatroidRank(groups=((0, 1),), capacities=(1, 2))
    with pytest.raises(InvalidInputError):
        PartitionMatroidRank(groups=((0, 1),), capacities=(-1,))


def test_threshold_values():
    fn = Threshold(k=1, m=3)
    assert [evaluate(fn, s) for s in (0, 0b1, 0b11, 0b111)] == [0, 0, 1, 2]
    assert marginal(fn, 2, 0) == 0
    assert marginal(fn, 2, 0b11) == 1
    free = Threshold(k=10, m=4)
    assert evaluate(free, full_set(4)) == 0


def test_table_values_and_flags():
    fn = Table(m=2, values=(0, 1, 1, 2))
    assert evaluate(fn, 0b11) == 2
    assert fn.binary_marginal
    wide = Table(m=1, values=(0, 2))
    assert not wide.binary_marginal


def test_table_validation():
    with pytest.raises(InvalidInputError):
        Table(m=2, values=(0, 1, 1))
    with pytest.raises(InvalidInputError):
        Table(m=1, values=(1, 1))
    with pytest.raises(InvalidInputError):
        Table(m=1, values=(0, -1))
    with pytest.raises(InvalidInputError):
        Table(m=2, values=(0, 1, 1, 0))
    with pytest.raises(InvalidInputError):
        Table(m=1, values=(0, 1.5))
    with pytest.raises(UnsupportedSizeError):
        Table(m=21, values=(0,) * (1 << 21))


def test_evaluate_validates_range():
    fn = Additive((1, 1))
    with pytest.raises(InvalidInputError):
        evaluate(fn, 0b100)
    with pytest.raises(InvalidInputError):
        evaluate(fn, -1)


def test_residual_view():
    fn = Cardinality(cap=2, m=4)
    view = residual(fn, 0b0001)
    assert isinstance(view, ResidualView)
    assert view.m == 4
    assert evaluate(view, 0) == 0
    assert evaluate(view, 0b0010) == 1
    assert evaluate(view, 0b0110) == 1
    with pytest.raises(InvalidInputError):
        evaluate(view, 0b0001)
    # the range is checked once, by evaluate, against the view's own m
    with pytest.raises(InvalidInputError):
        evaluate(view, 0b10000)


@given(st.integers(min_value=0, max_value=(1 << 6) - 1), st.integers(0, (1 << 6) - 1))
def test_residual_matches_definition(base, mask):
    fn = PartitionMatroidRank(groups=((0, 1, 2), (3, 4, 5)), capacities=(2, 1))
    mask &= ~base
    view = residual(fn, base)
    assert evaluate(view, mask) == evaluate(fn, mask | base) - evaluate(fn, base)


@pytest.mark.parametrize(
    "fn",
    [
        Additive((1, 0, 1, 1, 0, 1)),
        CappedAdditive(costs=(1, 1, 0, 1, 1, 1), cap=3),
        Cardinality(cap=4, m=6),
        PartitionMatroidRank(groups=((0, 3), (1, 2, 5), (4,)), capacities=(1, 2, 1)),
        Threshold(k=2, m=6),
        Table(m=4, values=(0, 1, 1, 1, 1, 2, 2, 2, 0, 1, 1, 1, 1, 2, 2, 2)),
    ],
)
def test_value_table_matches_pointwise_evaluation(fn):
    table = value_table(fn)
    assert table.shape == (1 << fn.m,)
    naive = np.array([fn.value(s) for s in range(1 << fn.m)], dtype=np.int64)
    assert np.array_equal(table, naive)


def test_value_table_on_residual_views():
    fn = Cardinality(cap=3, m=5)
    view = residual(fn, 0b00101)
    with pytest.raises(InvalidInputError):
        value_table(view)


def test_binary_marginal_descriptors_have_unit_steps():
    fns = [
        Additive((1, 1, 0, 1)),
        CappedAdditive(costs=(1, 1, 1, 1), cap=2),
        Cardinality(cap=3, m=4),
        PartitionMatroidRank(groups=((0, 1), (2, 3)), capacities=(1, 1)),
        Threshold(k=1, m=4),
    ]
    for fn in fns:
        for mask in range(1 << fn.m):
            for e in iter_items(full_set(fn.m) & ~mask):
                assert marginal(fn, e, mask) in (0, 1)


def test_marginal_matches_difference():
    fn = Threshold(k=2, m=5)
    for mask in range(1 << 5):
        for e in iter_items(full_set(5) & ~mask):
            assert marginal(fn, e, mask) == evaluate(fn, mask | (1 << e)) - evaluate(
                fn, mask
            )
