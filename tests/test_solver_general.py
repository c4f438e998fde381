import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorefair.costs import Table, Threshold, evaluate, marginal
from chorefair.errors import InternalInvariantError, InvalidInputError, WrongClassError
from chorefair.fairness import is_alpha_ef
from chorefair.instances import Instance, generate
from chorefair.itemset import full_set, iter_items, size
from chorefair.reports import GuaranteeTag
from chorefair.solvers import run_envy_loop, solve_auto, solve_general
from chorefair.solvers import general
from chorefair.solvers.common import OpCounter
from helpers import random_binary_table


def thresholds(n, m, k):
    return Instance(
        n=n,
        m=m,
        agents=tuple(Threshold(k=k, m=m) for _ in range(n)),
        declared_class="general",
    )


def test_worked_example_leaves_one_item():
    report = solve_general(thresholds(2, 3, k=1), debug=True, trace=True)
    alloc = report.allocation
    assert alloc.bundles == (0b001, 0b010)
    assert alloc.unallocated == 0b100
    assert report.guarantee is GuaranteeTag.PARTIAL_EF
    assert is_alpha_ef(thresholds(2, 3, k=1), alloc, 1)[0]


def test_free_items_all_placed():
    report = solve_general(thresholds(2, 4, k=4))
    assert report.allocation.complete
    assert report.allocation.bundles[0] == 0b1111
    assert any("complete" in note for note in report.notes)


def test_batch_rule_spreads_unit_items():
    # k=0 makes every marginal 1, so only the component batch rule fires
    report = solve_general(thresholds(3, 7, k=0), debug=True, trace=True)
    alloc = report.allocation
    assert size(alloc.unallocated) <= 2
    assert report.counters["batches"] >= 1
    assert report.counters["zero_placements"] == 0
    assert is_alpha_ef(thresholds(3, 7, k=0), alloc, 1)[0]


def test_rotation_rule_regression():
    # all singletons cost 1, so the first round is a batch giving item 0
    # to agent 0 and item 1 to agent 1.  item 2 is then free for agent 0
    # only on top of agent 1's bundle: the zero rule stalls and the
    # equality cycle [0, 1] must rotate bundles before adding it
    a = Table(m=3, values=(0, 1, 1, 2, 1, 2, 1, 2))
    b = Table(m=3, values=(0, 1, 1, 2, 1, 2, 2, 3))
    inst = Instance(n=2, m=3, agents=(a, b), declared_class="general")
    report = solve_general(inst, debug=True, trace=True)
    assert report.allocation.bundles == (0b110, 0b001)
    assert report.allocation.complete
    assert report.counters["rotations"] == 1
    assert report.counters["zero_placements"] == 0
    assert "rotate" in {ev["event"] for ev in report.trace}
    assert is_alpha_ef(inst, report.allocation, 1)[0]


def test_seeded_sweep_is_envy_free_with_small_leftover():
    for i in range(200):
        family = "threshold" if i % 2 else "table"
        n = 2 + i % 3
        m = 1 + i % 12
        inst = generate(family, n, m, seed=1000 + i)
        report = solve_general(inst, debug=(m <= 8))
        alloc = report.allocation
        assert size(alloc.unallocated) <= n - 1
        assert is_alpha_ef(inst, alloc, 1)[0]
        assert report.counters["iterations"] <= m + 1


def test_gate_rejects_non_binary_costs():
    wide = Table(m=2, values=(0, 2, 1, 2))
    inst = Instance(n=2, m=2, agents=(wide, wide), declared_class="general")
    with pytest.raises(WrongClassError):
        solve_general(inst)


def test_trace_names_the_rules():
    report = solve_general(thresholds(2, 5, k=1), trace=True)
    events = {ev["event"] for ev in report.trace}
    assert {"zero-marginal", "batch-placement", "stop"} <= events


def test_determinism():
    inst = generate("table", 3, 9, seed=77)
    assert solve_general(inst).allocation == solve_general(inst).allocation


def spread_thresholds(n, m, seed):
    rng = random.Random(seed)
    agents = tuple(Threshold(k=rng.randint(5, 40), m=m) for _ in range(n))
    return Instance(n=n, m=m, agents=agents, declared_class="general")


@pytest.mark.parametrize(
    "make, head_evals",
    [
        (lambda: spread_thresholds(8, 240, seed=2), 1_704),
        (lambda: generate("partition_matroid", 5, 100, seed=3, params={"groups": 20}), 3_534),
        (lambda: generate("table", 3, 10, seed=113), 98),  # rotates twice
    ],
    ids=["threshold", "partition_matroid", "table"],
)
def test_envy_loop_asks_each_marginal_once(make, head_evals, monkeypatch):
    inst = make()
    assert len({id(fn) for fn in inst.agents}) == inst.n  # id(fn) names the agent
    asked: list[tuple[int, int, int]] = []

    def recording(fn, item, mask):
        asked.append((id(fn), mask, item))
        return marginal(fn, item, mask)

    # with debug, every set-level read is replayed item by item through
    # this name: the replay asks exactly what the scalar scan asks
    monkeypatch.setattr(general, "marginal", recording)
    ops = OpCounter()
    counters: dict[str, int] = {}
    run_envy_loop(inst, [0] * inst.n, full_set(inst.m), ops=ops, counters=counters, debug=True)
    assert counters["zero_placements"] and counters["batches"]
    assert asked and len(asked) == len(set(asked))
    # the item-by-item count the scalar loop reported, less the n^2 prices
    # of the empty bundles it starts from, which are 0 unasked
    assert ops.evals == head_evals - inst.n**2


def test_debug_solve_of_a_large_general_instance():
    inst = spread_thresholds(10, 300, seed=4)
    report = solve_auto(inst, debug=True)
    assert report.counters["zero_placements"] and report.counters["batches"]
    assert size(report.allocation.unallocated) <= inst.n - 1


@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=0, max_value=(1 << 8) - 1),
)
def test_unit_pool_lemma_on_binary_tables(m, seed, base):
    # c(B u R) - c(B) = |R| forces every single marginal c(B + e) - c(B) in
    # R to be 1 when no marginal exceeds 1; checked for every R outside B
    fn = random_binary_table(m, random.Random(seed))
    base &= full_set(m)
    price = evaluate(fn, base)
    outside = full_set(m) & ~base
    rest = outside
    while True:
        if evaluate(fn, base | rest) - price == size(rest):
            assert all(marginal(fn, e, base) == 1 for e in iter_items(rest))
        if rest == 0:
            break
        rest = (rest - 1) & outside


def test_threshold_query_budget():
    inst = thresholds(8, 300, k=20)
    report = solve_auto(inst)
    assert report.counters["evals"] < 6_000
    assert size(report.allocation.unallocated) <= inst.n - 1


def test_debug_catches_a_certificate_fooled_by_a_non_binary_cost():
    # item 1 costs 2 and item 2 is free, so the pool {1, 2} prices at 2 on
    # the empty bundle as if both were unit; the gate refuses this cost
    # before a solver runs, the loop itself does not check it
    fooled = Table(m=3, values=tuple((s & 1) + 2 * (s >> 1 & 1) for s in range(8)))
    inst = Instance(n=1, m=3, agents=(fooled,), declared_class="general")
    with pytest.raises(WrongClassError):
        solve_general(inst)
    with pytest.raises(InternalInvariantError, match="unit-pool certificate"):
        run_envy_loop(inst, [0], full_set(3), debug=True)


@pytest.mark.parametrize(
    "bundles, pool, message",
    [
        ([0b10000, 0], 0b0001, "out of range for ground set of size 4"),
        ([0, 0], 0b11111, "out of range for ground set of size 4"),
        ([0b0011, 0b0010], 0b0100, "overlaps"),
        ([0b0001, 0], 0b0011, "overlaps"),
    ],
    ids=["bundle-out-of-range", "pool-out-of-range", "bundles-overlap", "pool-overlaps"],
)
def test_run_envy_loop_refuses_bad_item_sets(bundles, pool, message):
    # the loop's queries go unchecked, so the entry point checks the sets
    with pytest.raises(InvalidInputError, match=message):
        run_envy_loop(thresholds(2, 4, k=1), bundles, pool)
