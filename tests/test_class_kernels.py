"""The strided class kernels against the mask-and-gather loops they replaced.

``tests/helpers.py`` keeps the old loops verbatim.  On every drawn value
array both must give the same verdict and the same witness triple, so a
kernel change can never move a class report or a class-gate message.
"""

import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorefair.costs import (
    Additive,
    CappedAdditive,
    Cardinality,
    PartitionMatroidRank,
    Threshold,
    _check_cancelable,
    _check_marginals,
    _check_submodular,
    value_table,
)
from chorefair.instances import builtin
from helpers import (
    gather_check_cancelable,
    gather_check_marginals,
    gather_check_submodular,
    random_binary_table,
    random_monotone_table,
)

KERNELS = (
    (_check_marginals, gather_check_marginals),
    (_check_cancelable, gather_check_cancelable),
    (_check_submodular, gather_check_submodular),
)


def _closed_form(m: int, rng: random.Random):
    ones = tuple(rng.randint(0, 1) for _ in range(m))
    cut = rng.randint(0, m)
    return rng.choice(
        [
            Additive(ones),
            CappedAdditive(ones, rng.randint(0, m)),
            Cardinality(rng.randint(0, m), m),
            Threshold(rng.randint(0, m), m),
            PartitionMatroidRank(
                tuple(g for g in (tuple(range(cut)), tuple(range(cut, m))) if g),
                tuple(rng.randint(0, 3) for g in (cut, m - cut) if g),
            ),
        ]
    )


def _values(kind: str, m: int, seed: int) -> np.ndarray:
    rng = random.Random(seed)
    size = 1 << m
    if kind == "binary":
        return np.array(random_binary_table(m, rng).values, dtype=np.int64)
    if kind == "monotone":
        return np.array(random_monotone_table(m, rng).values, dtype=np.int64)
    if kind == "closed-form":
        return value_table(_closed_form(m, rng))
    if kind == "non-monotone":
        return np.array([0] + [rng.randint(-1, 3) for _ in range(size - 1)], dtype=np.int64)
    if kind == "non-binary":
        return np.array(random_monotone_table(m, rng, steps=(0, 2, 3)).values, dtype=np.int64)
    if kind == "negative":
        return -np.array(random_binary_table(m, rng).values, dtype=np.int64)
    if kind == "edge":
        # the lowest value the counting path refuses, and sums that still fit
        return np.array(random_binary_table(m, rng).values, dtype=np.int64) - (1 << 62)
    if kind == "object":
        shift = rng.choice((0, 1 << 70))
        return np.array(
            [x + shift for x in random_binary_table(m, rng).values], dtype=object
        )
    raise AssertionError(kind)


KINDS = (
    "binary",
    "monotone",
    "closed-form",
    "non-monotone",
    "non-binary",
    "negative",
    "edge",
    "object",
)


def _same_answers(m: int, v: np.ndarray) -> None:
    for kernel, reference in KERNELS:
        got: dict = {}
        want: dict = {}
        assert kernel(m, v, got) == reference(m, v, want), kernel.__name__
        assert got == want, kernel.__name__


@given(
    kind=st.sampled_from(KINDS),
    m=st.integers(min_value=0, max_value=10),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_kernels_match_the_gather_loops(kind, m, seed):
    _same_answers(m, _values(kind, m, seed))


@pytest.mark.parametrize("kind", KINDS)
def test_kernels_match_the_gather_loops_on_every_size(kind):
    for m in range(11):
        for seed in range(3):
            _same_answers(m, _values(kind, m, seed))


def test_binary_cancelable_failures_take_the_sort_for_their_witness():
    # binary steps throughout, so the count finds the failing item and the
    # sort then names the same (S, T, e) as the reference loop
    fn = builtin("appendixA-submodular-4").agents[0]
    v = value_table(fn)
    got: dict = {}
    assert not _check_cancelable(fn.m, v, got)
    want: dict = {}
    gather_check_cancelable(fn.m, v, want)
    assert got == want and set(got) == {"cancelable"}
