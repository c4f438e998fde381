import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorefair.costs import (
    COST_MAX,
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
from helpers import random_monotone_table


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
    # the cached size and item -> group index stay out of equality,
    # hashing and repr
    assert fn._group_of == (0, 0, 1, 1, 1)
    same = PartitionMatroidRank(groups=((1, 0), (2, 3, 4)), capacities=(1, 2))
    assert fn == same and hash(fn) == hash(same)
    assert hash(fn) == hash((fn.groups, fn.capacities))
    assert repr(fn) == "PartitionMatroidRank(groups=((0, 1), (2, 3, 4)), capacities=(1, 2))"
    assert fn != PartitionMatroidRank(groups=((0, 1), (2, 3, 4)), capacities=(1, 1))
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


def _loop_verdict(values):
    """What a Table on ``values`` must report, by a plain walk over every
    (mask, item) pair in ascending order: its error message, or its
    binary-marginal flag."""
    for mask, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            return f"table value at mask {mask} is not an integer: {v!r}"
    if values[0] != 0:
        return f"table value for the empty set must be 0, got {values[0]}"
    for mask, v in enumerate(values):
        if not -COST_MAX <= v <= COST_MAX:
            return f"table value at mask {mask} lies outside ±{COST_MAX}: {v}"
    binary = True
    for mask in range(len(values)):
        for e in iter_items(mask):
            step = values[mask] - values[mask ^ (1 << e)]
            if step < 0:
                return f"table is not monotone: value({mask ^ (1 << e)}) > value({mask})"
            binary = binary and step <= 1
    return binary


def _table_verdict(m, values):
    try:
        return Table(m=m, values=values).binary_marginal
    except InvalidInputError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "m, values",
    [
        # dropping item 1 from 0b110 raises the value, a lower mask than
        # item 0's first such mask, 0b111
        (3, (0, 1, 1, 1, 2, 2, 1, 0)),
        # both items of the first bad mask 0b11 qualify: the lower is named
        (2, (0, 2, 2, 1)),
        (3, (0, 1, 1, 0, 1, 0, 1, 2)),
        (1, (0, -1)),
        (2, (0, 1, 3, 5)),
        # values past the int64 range
        (2, (0, 10**30, 1, 10**30 - 1)),
        (2, (0, 10**30, 1, 10**30 + 1)),
        # either side of +-2^62 and of the int64 range: all past COST_MAX
        (2, (0, 2**62 - 1, 1, 2**62 - 2)),
        (2, (0, 2**62, 1, 2**62 - 1)),
        (2, (0, 2**62 - 1, 2**62 - 1, 2**62)),
        (2, (0, 2**63 - 1, 1, 2**63)),
        (2, (0, 2**63, 2**63, 2**63 + 1)),
        (1, (0, -(2**62))),
        (1, (0, -(2**62) - 1)),
        (1, (0, -(2**63))),
        (1, (0, -(2**63) - 1)),
        (2, (0, 1, -(2**62), 2)),
        (2, (0, 1, 2, 1.0)),
        (2, (0, 1, True, 1)),
        (1, (3, 4)),
        # either side of +-COST_MAX; the range test runs before monotonicity
        (2, (0, COST_MAX, COST_MAX, COST_MAX)),
        (2, (0, COST_MAX, 1, COST_MAX + 1)),
        (1, (0, -COST_MAX)),
        (1, (0, -COST_MAX - 1)),
        (2, (0, 5, -1, COST_MAX + 1)),
    ],
)
def test_table_validation_messages_follow_mask_order(m, values):
    assert _table_verdict(m, values) == _loop_verdict(values)


@given(
    st.integers(min_value=0, max_value=5).flatmap(
        lambda m: st.lists(
            st.integers(min_value=-1, max_value=4), min_size=1 << m, max_size=1 << m
        ).map(lambda v: (m, (0, *v[1:])))
    )
)
def test_table_validation_matches_the_loop_on_random_values(case):
    m, values = case
    assert _table_verdict(m, values) == _loop_verdict(values)


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
        # a cap-0 group, one group over every item, every item alone
        PartitionMatroidRank(groups=((0, 2), (1, 3, 4)), capacities=(0, 2)),
        PartitionMatroidRank(groups=((3, 0, 5, 1, 4, 2),), capacities=(4,)),
        PartitionMatroidRank(groups=((0,), (1,), (2,), (3,), (4,)), capacities=(1, 0, 1, 1, 0)),
        # parameters past int64, clamped at the most items each can count
        CappedAdditive(costs=(1, 0, 1, 1), cap=2**70),
        Cardinality(cap=2**70, m=4),
        Threshold(k=2**70, m=4),
        PartitionMatroidRank(groups=((0, 1), (2, 3)), capacities=(2**70, 1)),
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


@st.composite
def _descriptors(draw):
    """Any descriptor kind on 1-8 items; partition matroids may have
    empty groups and zero capacities, tables non-binary marginals."""
    m = draw(st.integers(1, 8))
    kind = draw(
        st.sampled_from(["additive", "capped", "cardinality", "matroid", "threshold", "table"])
    )
    costs = tuple(draw(st.lists(st.integers(0, 1), min_size=m, max_size=m)))
    cap = draw(st.integers(0, m + 1))
    if kind == "additive":
        return Additive(costs)
    if kind == "capped":
        return CappedAdditive(costs, cap=cap)
    if kind == "cardinality":
        return Cardinality(cap=cap, m=m)
    if kind == "threshold":
        return Threshold(k=cap, m=m)
    if kind == "matroid":
        n_groups = draw(st.integers(1, m + 2))
        owner = draw(st.lists(st.integers(0, n_groups - 1), min_size=m, max_size=m))
        groups = tuple(tuple(i for i in range(m) if owner[i] == g) for g in range(n_groups))
        caps = draw(st.lists(st.integers(0, 3), min_size=n_groups, max_size=n_groups))
        return PartitionMatroidRank(groups, tuple(caps))
    return random_monotone_table(m, random.Random(draw(st.integers(0, 2**32))))


@settings(max_examples=300)
@given(_descriptors(), st.data())
def test_closed_form_marginal_matches_value_difference(fn, data):
    item = data.draw(st.integers(0, fn.m - 1))
    bit = 1 << item
    mask = data.draw(st.integers(0, full_set(fn.m))) & ~bit
    assert fn.marginal(item, mask) == fn.value(mask | bit) - fn.value(mask)
    assert marginal(fn, item, mask) == fn.value(mask | bit) - fn.value(mask)
    # a residual view answers on top of a base disjoint from S + e
    base = data.draw(st.integers(0, full_set(fn.m))) & ~(mask | bit)
    view = residual(fn, base)
    assert view.marginal(item, mask) == view.value(mask | bit) - view.value(mask)
    assert marginal(view, item, mask) == view.value(mask | bit) - view.value(mask)


def test_partition_matroid_marginal_with_empty_group_and_zero_capacity():
    fn = PartitionMatroidRank(groups=((), (0, 2), (1,), ()), capacities=(5, 1, 0, 2))
    assert fn._group_of == (1, 2, 1)
    assert [fn.marginal(0, s) for s in (0b000, 0b010, 0b100)] == [1, 1, 0]
    assert [fn.marginal(1, s) for s in (0b000, 0b101)] == [0, 0]


class _PlainCount:
    """A user-defined cost function with no ``marginal`` method."""

    m = 3

    def value(self, mask):
        return min(mask.bit_count(), 2)


def test_marginal_falls_back_to_the_difference_for_protocol_objects():
    fn = _PlainCount()
    assert [marginal(fn, 2, s) for s in (0b00, 0b01, 0b11)] == [1, 1, 0]
    view = residual(fn, 0b001)
    assert [marginal(view, 2, s) for s in (0b00, 0b10)] == [1, 0]


def test_residual_marginal_keeps_the_checks():
    view = residual(Cardinality(cap=2, m=4), 0b0001)
    # the item itself, or the set it joins, may not overlap the base
    with pytest.raises(InvalidInputError, match="overlaps the base bundle 0b1"):
        marginal(view, 0, 0b0010)
    with pytest.raises(InvalidInputError, match="residual query 0b111 overlaps"):
        marginal(view, 2, 0b0011)
    with pytest.raises(InvalidInputError, match="out of range"):
        marginal(view, 4, 0)
    with pytest.raises(InvalidInputError, match="already in the set"):
        marginal(view, 1, 0b0010)


class _Int(int):
    pass


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_table_refuses_non_integers_at_their_first_index(bad):
    values = [0, 1, 1, 2]
    values[2] = bad
    with pytest.raises(InvalidInputError, match=f"value at mask 2 is not an integer: {bad!r}"):
        Table(m=2, values=tuple(values))


def test_table_accepts_int_subclasses_other_than_bool():
    assert Table(m=1, values=(0, _Int(1))).value(1) == 1
