import pytest

from chorefair.costs import Table, Threshold
from chorefair.errors import WrongClassError
from chorefair.fairness import is_alpha_ef
from chorefair.instances import Instance, generate
from chorefair.itemset import size
from chorefair.reports import GuaranteeTag
from chorefair.solvers import solve_general


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
