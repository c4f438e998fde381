import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorefair.errors import InvalidInputError
from chorefair.itemset import from_indices, full_set, iter_items, lowest, size

masks = st.integers(min_value=0, max_value=(1 << 12) - 1)


def test_full_set():
    assert full_set(0) == 0
    assert full_set(3) == 0b111
    assert full_set(10) == (1 << 10) - 1
    with pytest.raises(InvalidInputError):
        full_set(-1)


def test_from_indices_roundtrip():
    assert from_indices([], 4) == 0
    assert from_indices([0, 2], 4) == 0b101
    with pytest.raises(InvalidInputError):
        from_indices([4], 4)
    with pytest.raises(InvalidInputError):
        from_indices([1, 1], 4)
    with pytest.raises(InvalidInputError):
        from_indices([-1], None)


@given(masks)
def test_iter_items_sorted_and_sized(mask):
    items = list(iter_items(mask))
    assert items == sorted(items)
    assert len(items) == size(mask)
    assert from_indices(items, 12) == mask


def test_lowest():
    assert lowest(0b1000) == 3
    assert lowest(0b0110) == 1
    with pytest.raises(InvalidInputError):
        lowest(0)

