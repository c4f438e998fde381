import random

import numpy as np
import pytest

from chorefair.costs import (
    Additive,
    CappedAdditive,
    Cardinality,
    PartitionMatroidRank,
    Table,
    Threshold,
    check_class,
    evaluate,
    is_binary_marginal,
    sample_class,
)
from chorefair.costs import _random_subset
from chorefair.errors import UnsupportedSizeError, WrongClassError
from chorefair.instances import CLASSES, Instance, builtin, kind_guarantees
from chorefair.itemset import size
from chorefair.solvers import ensure_class, solve_auto
from helpers import random_binary_table, random_monotone_table


def test_additive_function_has_every_structure_flag():
    report = check_class(Additive((1, 0, 1, 1)))
    assert report.flags() == {
        "binary_marginal": True,
        "monotone": True,
        "additive": True,
        "cancelable": True,
        "submodular": True,
    }
    assert report.witnesses == {}
    assert report.witness is None
    assert report.method == "exhaustive"


def test_capped_function_is_cancelable_not_additive():
    report = check_class(Cardinality(cap=5, m=8))
    assert report.binary_marginal and report.monotone
    assert report.cancelable and report.submodular
    assert not report.additive
    s, t, e = report.witnesses["additive"]
    assert t == 0
    fn = Cardinality(cap=5, m=8)
    m_s = evaluate(fn, s | (1 << e)) - evaluate(fn, s)
    m_0 = evaluate(fn, 1 << e)
    assert m_s != m_0


def test_four_item_function_is_submodular_not_cancelable():
    fn = builtin("appendixA-submodular-4").agents[0]
    report = check_class(fn)
    assert report.submodular
    assert not report.cancelable and not report.additive
    s, t, e = report.witnesses["cancelable"]
    assert not (s | t) >> fn.m and not (s | t) & (1 << e)
    assert evaluate(fn, s) <= evaluate(fn, t)
    assert evaluate(fn, s | (1 << e)) > evaluate(fn, t | (1 << e))
    assert report.witness_class == "cancelable"


def test_threshold_is_general_only():
    report = check_class(Threshold(k=1, m=4))
    assert report.binary_marginal and report.monotone
    assert not report.additive and not report.cancelable and not report.submodular
    s, t, e = report.witnesses["submodular"]
    fn = Threshold(k=1, m=4)
    assert s & t == s and s != t and not (s | t) & (1 << e)
    assert (
        evaluate(fn, s | (1 << e)) - evaluate(fn, s)
        < evaluate(fn, t | (1 << e)) - evaluate(fn, t)
    )


def test_threshold_zero_is_additive():
    assert check_class(Threshold(k=0, m=5)).additive


def test_non_binary_table_flags():
    fn = builtin("ternary-no-efxpo").agents[0]
    report = check_class(fn)
    assert not report.binary_marginal
    assert report.monotone
    assert not is_binary_marginal(fn)
    s, t, e = report.witnesses["binary_marginal"]
    assert t == s | (1 << e)
    assert evaluate(fn, t) - evaluate(fn, s) not in (0, 1)


def test_partition_matroid_is_submodular():
    fn = PartitionMatroidRank(groups=((0, 2), (1, 3, 4)), capacities=(1, 2))
    report = check_class(fn)
    assert report.submodular and report.binary_marginal
    assert not report.additive


def test_witness_replay_for_every_failed_class():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        fn = random_binary_table(5, rng)
        report = check_class(fn)
        for name, (s, t, e) in report.witnesses.items():
            checked += 1
            bit = 1 << e
            if name == "additive":
                assert t == 0
                assert (
                    evaluate(fn, s | bit) - evaluate(fn, s) != evaluate(fn, bit)
                )
            elif name == "cancelable":
                assert evaluate(fn, s) <= evaluate(fn, t)
                assert evaluate(fn, s | bit) > evaluate(fn, t | bit)
            elif name == "submodular":
                assert s & t == s and s != t
                assert (
                    evaluate(fn, s | bit) - evaluate(fn, s)
                    < evaluate(fn, t | bit) - evaluate(fn, t)
                )
            else:
                raise AssertionError(f"unexpected witness class {name}")
    assert checked > 0


def test_containments_on_random_binary_tables():
    rng = random.Random(23)
    for _ in range(150):
        m = rng.randint(1, 8)
        report = check_class(random_binary_table(m, rng))
        assert report.binary_marginal and report.monotone
        if report.additive:
            assert report.cancelable
        if report.cancelable:
            assert report.submodular


def test_sampled_reports_never_contradict_exhaustive_passes():
    rng = random.Random(5)
    for _ in range(20):
        fn = random_binary_table(4, rng)
        exhaustive = check_class(fn)
        sampled = sample_class(fn, trials=3000, seed=1)
        assert sampled.method == "sampled"
        for name, flag in exhaustive.flags().items():
            if flag:
                assert sampled.flags()[name], name


def test_sampling_finds_dense_witnesses():
    sampled = sample_class(Cardinality(cap=1, m=6), trials=5000, seed=0)
    assert not sampled.additive
    assert sampled.cancelable and sampled.submodular


def test_sampled_subsets_span_any_ground_set():
    # up to 62 items a subset is one draw, as it always was
    old, new = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(5):
        assert _random_subset(new, 40) == int(old.integers(0, 1 << 40))
    rng = np.random.default_rng(0)
    masks = [_random_subset(rng, 200) for _ in range(20)]
    assert all(0 <= s < 1 << 200 for s in masks)
    assert any(s >> 124 for s in masks)
    sampled = sample_class(Cardinality(cap=3, m=200), trials=200)
    assert sampled.cancelable and not sampled.additive


def _gate_by_full_report(inst, required):
    """The class gate's refusal as a full ``check_class`` report words it,
    or None; the gate itself decides only what it reads."""
    for i, fn in enumerate(inst.agents):
        if kind_guarantees(fn, required):
            continue
        report = check_class(fn)
        if not report.binary_marginal:
            return f"agents[{i}] has marginals outside {{0, 1}}"
        if required != "general" and not report.flags()[required]:
            return (
                f"agents[{i}] is declared {inst.declared_class!r} but is not "
                f"{required} (witness: {report.witnesses.get(required)})"
            )
    return None


def test_class_gate_matches_full_reports():
    rng = random.Random(11)
    refused = set()
    for trial in range(120):
        m = 1 + trial % 6
        make = random_binary_table if trial % 3 else random_monotone_table
        additive = Additive(tuple(rng.randint(0, 1) for _ in range(m)))
        agents = (make(m, rng), make(m, rng), additive)
        inst = Instance(n=3, m=m, agents=agents, declared_class="additive")
        for required in CLASSES:
            try:
                ensure_class(inst, required)
                got = None
            except WrongClassError as exc:
                got = str(exc)
                refused.add(required)
            assert got == _gate_by_full_report(inst, required)
    assert refused == set(CLASSES)


def doubled_table_pair(m: int, declared: str) -> Instance:
    """Every item costs 2 to agent 0; agent 1 is a unit-cost cardinality table."""
    doubled = Table(m=m, values=tuple(2 * s.bit_count() for s in range(1 << m)))
    unit = Table(m=m, values=tuple(min(s.bit_count(), 3) for s in range(1 << m)))
    return Instance(n=2, m=m, agents=(doubled, unit), declared_class=declared)


@pytest.mark.parametrize("declared", ["general", "cancelable", "submodular"])
@pytest.mark.parametrize("m", [12, 13])
def test_gate_refuses_non_binary_tables_at_every_size(declared, m):
    inst = doubled_table_pair(m, declared)
    with pytest.raises(WrongClassError, match=r"^agents\[0\] has marginals outside \{0, 1\}$"):
        solve_auto(inst)


def test_check_class_size_cap():
    with pytest.raises(UnsupportedSizeError):
        check_class(Cardinality(cap=2, m=21))


def test_is_binary_marginal_matches_report():
    rng = random.Random(7)
    fns = [
        Additive((1, 0, 1)),
        CappedAdditive(costs=(1, 1, 1), cap=1),
        Cardinality(cap=2, m=4),
        Threshold(k=2, m=4),
        Table(m=2, values=(0, 2, 1, 2)),
        random_binary_table(4, rng),
    ]
    for fn in fns:
        assert is_binary_marginal(fn) == check_class(fn).binary_marginal


def test_size_helper_counts_bits():
    assert size(0) == 0 and size(0b1011) == 3
