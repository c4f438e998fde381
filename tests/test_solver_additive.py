import pytest

from chorefair.costs import Additive, Cardinality, Table, value_table
from chorefair.errors import InternalInvariantError, WrongClassError
from chorefair.fairness import is_alpha_efx, is_po_bruteforce, social_cost
from chorefair.instances import Instance, builtin, generate
from chorefair.itemset import size
from chorefair.reports import GuaranteeTag, certify
from chorefair.solvers import additive, partition_items, solve_additive, solve_auto
from chorefair.solvers.additive import ItemPartition
from helpers import cap7_pair


def pair(costs_a, costs_b):
    return Instance(
        n=2,
        m=len(costs_a),
        agents=(Additive(costs_a), Additive(costs_b)),
        declared_class="additive",
    )


def test_item_partition():
    part = partition_items(pair((1, 1, 0), (1, 0, 1)))
    assert part.m_zero == 0b110
    assert part.m_plus == 0b001
    all_costly = partition_items(pair((1, 1), (1, 1)))
    assert all_costly.m_zero == 0 and all_costly.m_plus == 0b11


def test_worked_example():
    report = solve_additive(pair((1, 1, 0), (1, 0, 1)), debug=True, verify=True)
    assert report.allocation.bundles == (0b101, 0b010)
    assert report.guarantee is GuaranteeTag.EFX_AND_PO
    assert report.allocation.complete
    assert report.verification is not None
    assert report.verification.passed
    assert report.verification.checks == {
        "complete": True,
        "efx": True,
        "minimal-social-cost": True,
        "po": True,
    }


def test_table_declared_additive_past_the_exhaustive_gate_is_refused():
    # a 7/6 split would be tagged efx+po although handing everything to
    # one agent costs 7 in total against 13
    with pytest.raises(WrongClassError, match="is not additive"):
        solve_additive(cap7_pair(), verify=True)
    ones = Table(m=13, values=tuple(s.bit_count() for s in range(1 << 13)))
    inst = Instance(n=2, m=13, agents=(ones, ones), declared_class="additive")
    assert solve_additive(inst).guarantee is GuaranteeTag.EFX_AND_PO
    doubled = Table(m=13, values=tuple(2 * s.bit_count() for s in range(1 << 13)))
    inst = Instance(n=2, m=13, agents=(doubled, ones), declared_class="additive")
    with pytest.raises(WrongClassError, match=r"agents\[0\] has marginals outside \{0, 1\}"):
        solve_additive(inst)


def test_cardinality_that_never_binds_solves_as_additive():
    # min(|S|, 3) on three items is |S|: proved additive by its cap
    card = Cardinality(cap=3, m=3)
    inst = Instance(n=2, m=3, agents=(card, card), declared_class="additive")
    report = solve_auto(inst, verify=True)
    assert report.algorithm == "additive"
    assert report.guarantee is GuaranteeTag.EFX_AND_PO
    assert report.verification.passed
    assert certify(inst, report).passed


def test_reassignment_regression():
    # identical agents with one shared free item force the violation branch
    # twice on the way to an alternating split
    inst = pair((0, 1, 1, 1), (0, 1, 1, 1))
    report = solve_additive(inst, debug=True, trace=True)
    assert report.allocation.bundles == (0b0101, 0b1010)
    assert report.counters["reassignments"] == 2
    assert social_cost(inst, report.allocation) == 3
    events = {ev["event"] for ev in report.trace}
    assert "reassign" in events


def test_single_agent_takes_everything():
    inst = Instance(n=1, m=3, agents=(Additive((1, 0, 1)),), declared_class="additive")
    report = solve_additive(inst)
    assert report.allocation.bundles == (0b111,)
    assert report.allocation.complete


def test_no_items():
    inst = Instance(n=2, m=0, agents=(Additive(()), Additive(())), declared_class="additive")
    report = solve_additive(inst)
    assert report.allocation.bundles == (0, 0)
    assert report.allocation.complete


def test_social_cost_floor_claim_in_notes():
    report = solve_additive(pair((1, 1, 0), (1, 0, 1)))
    assert any("Pareto" in note for note in report.notes)


def test_declared_class_gate():
    with pytest.raises(WrongClassError):
        solve_additive(builtin("cancelable-cap5-n2"))
    with pytest.raises(WrongClassError):
        solve_additive(builtin("ternary-no-efxpo"))


def test_gate_catches_mis_declared_table():
    cap1 = Table(m=3, values=(0, 1, 1, 1, 1, 1, 1, 1))
    inst = Instance(n=2, m=3, agents=(cap1, cap1), declared_class="additive")
    with pytest.raises(WrongClassError):
        solve_additive(inst)


def test_seeded_sweep_is_stable_and_cost_minimal():
    for i in range(200):
        n = 2 + i % 4
        m = 1 + i % 12
        inst = generate("binary_additive", n, m, seed=i)
        report = solve_additive(inst, debug=True)
        alloc = report.allocation
        assert alloc.complete
        assert is_alpha_efx(inst, alloc, 1)[0]
        part = partition_items(inst)
        assert social_cost(inst, alloc) == size(part.m_plus)
        if n**m <= 10_000:
            assert is_po_bruteforce(inst, alloc)[0]


def test_trace_and_counters_shape():
    report = solve_additive(pair((1, 1, 0), (1, 0, 1)), trace=True)
    assert report.trace, "trace requested but empty"
    assert {"rounds", "reassignments", "dragged_items", "evals"} <= set(report.counters)
    for event in report.trace:
        assert isinstance(event.pop("event"), str)


def test_determinism():
    inst = generate("binary_additive", 4, 9, seed=99)
    a = solve_additive(inst).allocation
    b = solve_additive(inst).allocation
    assert a == b


def test_debug_cross_checks_derived_drops_through_reassignments(monkeypatch):
    # the worst drop after each placement is derived from the price, and
    # debug compares it (and every re-price) with uncounted fresh queries
    inst = generate("binary_additive", 2, 12, seed=2)
    report = solve_additive(inst, debug=True)
    assert report.counters["reassignments"] > 0
    assert report.allocation == solve_additive(inst).allocation
    # a derivation blind to the free items is caught
    split = additive._partition

    def blind(inst, ops):
        part, holder = split(inst, ops)
        return ItemPartition(m_zero=0, m_plus=part.m_plus), holder

    monkeypatch.setattr(additive, "_partition", blind)
    with pytest.raises(InternalInvariantError, match="worst drop"):
        solve_additive(inst, debug=True)


@pytest.mark.parametrize(
    "n, m, seed, evals",
    [(2, 12, 2, 50), (3, 10, 0, 35), (4, 9, 99, 27), (3, 40, 1, 74), (5, 30, 3, 97)],
)
def test_evals_count_the_item_by_item_scans(n, m, seed, evals):
    # the split and the pull-back read whole free sets and charge what the
    # item-by-item scans ask (their counts, less the n prices of each bundle
    # the split leaves empty); three of these instances reassign, and the
    # small ones are solved as tables too
    inst = generate("binary_additive", n, m, seed=seed)
    assert solve_additive(inst).counters["evals"] == evals
    if m <= 12:
        tables = tuple(Table(m, value_table(fn).tolist()) for fn in inst.agents)
        copy = Instance(n=n, m=m, agents=tables, declared_class="additive")
        assert solve_additive(copy).counters["evals"] == evals


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_large_instance_query_budget(seed):
    # O(1) worst drops and one singleton query per free item: a few
    # queries per item, where re-pricing every drop took about 8k here
    inst = generate("binary_additive", 3, 400, seed=seed)
    report = solve_additive(inst)
    assert report.counters["evals"] <= 2 * inst.n * inst.m
