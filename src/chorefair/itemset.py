"""Item sets as integer bitmasks.

Items are indexed 0..m-1 and a set of items is an ``int`` whose bit ``i``
is set iff item ``i`` is a member.  Plain ints keep set algebra exact and
cheap (``&``, ``|``, ``^``), support the full solver range of m, and make
exhaustive enumeration over all 2^m subsets a simple ``range``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .errors import InvalidInputError

ItemSet = int


def full_set(m: int) -> ItemSet:
    """The set {0, ..., m-1}."""
    if m < 0:
        raise InvalidInputError(f"item count must be non-negative, got {m}")
    return (1 << m) - 1


def from_indices(indices: Iterable[int], m: int | None = None) -> ItemSet:
    """Build a set from item indices, validating range and duplicates."""
    mask = 0
    for i in indices:
        if i < 0 or (m is not None and i >= m):
            raise InvalidInputError(f"item index {i} out of range for m={m}")
        bit = 1 << i
        if mask & bit:
            raise InvalidInputError(f"duplicate item index {i}")
        mask |= bit
    return mask


def iter_items(mask: ItemSet) -> Iterator[int]:
    """Yield member indices in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def size(mask: ItemSet) -> int:
    return mask.bit_count()


def lowest(mask: ItemSet) -> int:
    """Smallest member index; the set must be non-empty."""
    if not mask:
        raise InvalidInputError("empty item set has no lowest member")
    return (mask & -mask).bit_length() - 1

