import random

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
)
from chorefair.errors import InvalidInputError, UnsupportedSizeError, WrongClassError
from chorefair.instances import (
    CLASS_RANK,
    CLASSES,
    Instance,
    builtin,
    declaration_bound,
    kind_class,
    kind_report,
    proves,
)
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
    assert not proves(fn, "general")
    s, t, e = report.witnesses["binary_marginal"]
    assert t == s | (1 << e)
    assert evaluate(fn, t) - evaluate(fn, s) not in (0, 1)


def test_partition_matroid_is_submodular():
    fn = PartitionMatroidRank(groups=((0, 2), (1, 3, 4)), capacities=(1, 2))
    report = check_class(fn)
    assert report.submodular and report.binary_marginal
    assert not report.additive


def assert_falsifies(fn, name, witness):
    """The witness (S, T, e) meets the violation condition of class ``name``."""
    s, t, e = witness
    bit = 1 << e
    assert not (s | t) & bit
    if name == "additive":
        assert t == 0
        assert evaluate(fn, s | bit) - evaluate(fn, s) != evaluate(fn, bit)
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


def test_witness_replay_for_every_failed_class():
    rng = random.Random(11)
    checked = 0
    for _ in range(60):
        fn = random_binary_table(5, rng)
        report = check_class(fn)
        for name, witness in report.witnesses.items():
            checked += 1
            assert_falsifies(fn, name, witness)
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


def _random_matroids(rng, count):
    """Random partitions of up to 8 items, with caps from 0 to one past
    each group's size."""
    for _ in range(count):
        m = rng.randint(1, 8)
        groups = [[] for _ in range(rng.randint(1, m))]
        for item in range(m):
            rng.choice(groups).append(item)
        groups = [tuple(g) for g in groups if g]
        yield PartitionMatroidRank(tuple(groups), tuple(rng.randint(0, len(g) + 1) for g in groups))


def _closed_form_kinds():
    rng = random.Random(17)
    for m in range(11):
        for k in range(m + 2):
            yield Threshold(k=k, m=m)
            yield Cardinality(cap=k, m=m)
    for m in range(9):
        for ones in range(1 << m):
            unit = tuple(ones >> i & 1 for i in range(m))
            for cap in range(m + 2):
                yield CappedAdditive(unit, cap=cap)
    for m in (9, 10) * 20:
        yield CappedAdditive(tuple(rng.randint(0, 1) for _ in range(m)), cap=rng.randint(0, m + 1))
    yield PartitionMatroidRank(((),), (0,))
    # a cap-0 group beside a binding and a free one
    yield PartitionMatroidRank(((0, 1, 2), (3, 4, 5), (6, 7)), (0, 1, 2))
    for m in range(1, 9):
        for cap in range(m + 2):
            yield PartitionMatroidRank((tuple(range(m)),), (cap,))
        yield PartitionMatroidRank(tuple((i,) for i in range(m)), tuple(i % 3 for i in range(m)))
    yield from _random_matroids(rng, 400)


def test_kind_report_matches_the_exhaustive_check():
    """The closed-form rules agree with ``check_class`` on every flag, each
    witness falsifies its class, ``proves`` answers each class as the
    exhaustive check does, and the declaration bound is the narrowest
    class the exhaustive check flags."""
    matroid_verdicts = set()
    for fn in _closed_form_kinds():
        report = kind_report(fn)
        flags = check_class(fn).flags()
        assert report.flags() == flags, fn
        for name, witness in report.witnesses.items():
            assert_falsifies(fn, name, witness)
        for cls in ("additive", "cancelable", "submodular"):
            assert proves(fn, cls) == flags[cls], (fn, cls)
        narrowest = next(cls for cls in CLASSES if cls == "general" or flags[cls])
        assert declaration_bound(fn) == narrowest, fn
        if isinstance(fn, PartitionMatroidRank):
            matroid_verdicts.add((report.additive, report.cancelable))
    assert matroid_verdicts == {(True, True), (False, True), (False, False)}
    with pytest.raises(InvalidInputError):
        kind_report(random_binary_table(2, random.Random(0)))


def _gate_by_full_report(inst, required):
    """The class gate's refusal as a full ``check_class`` report words it,
    or None; the gate itself decides only what it reads."""
    for i, fn in enumerate(inst.agents):
        narrowest = kind_class(fn)
        if narrowest is not None and CLASS_RANK[narrowest] <= CLASS_RANK[required]:
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


class _CappedCount:
    """``weight * min(|S|, 2)`` as a protocol object of no descriptor kind."""

    def __init__(self, m: int, weight: int = 1) -> None:
        self.m, self.weight = m, weight

    def value(self, mask: int) -> int:
        return self.weight * min(mask.bit_count(), 2)


def test_gate_tests_protocol_objects_like_tables():
    # a kind the gate does not know proves nothing, so its marginals are read
    # through value_table
    good = Instance(n=2, m=3, agents=(_CappedCount(3),) * 2, declared_class="general")
    assert solve_auto(good, verify=True).verification.passed
    doubled = Instance(n=2, m=3, agents=(_CappedCount(3, 2),) * 2, declared_class="general")
    with pytest.raises(WrongClassError, match=r"^agents\[0\] has marginals outside \{0, 1\}$"):
        solve_auto(doubled, verify=True)


def test_check_class_size_cap():
    with pytest.raises(UnsupportedSizeError):
        check_class(Cardinality(cap=2, m=21))


def test_proves_general_matches_report():
    rng = random.Random(7)
    fns = [
        Additive((1, 0, 1)),
        CappedAdditive(costs=(1, 1, 1), cap=1),
        Cardinality(cap=2, m=4),
        Threshold(k=2, m=4),
        Table(m=2, values=(0, 2, 1, 2)),
        random_binary_table(4, rng),
        _CappedCount(3),
        _CappedCount(3, 2),
    ]
    for fn in fns:
        assert proves(fn, "general") == check_class(fn).binary_marginal


def test_size_helper_counts_bits():
    assert size(0) == 0 and size(0b1011) == 3
