import pytest

from chorefair.costs import Additive, Cardinality, Table, residual
from chorefair.errors import InternalInvariantError, InvalidInputError, WrongClassError
from chorefair.fairness import CostMatrix, is_alpha_efx, is_po_bruteforce
from chorefair.instances import Instance, builtin, generate
from chorefair.reports import GuaranteeTag
from chorefair.solvers import common, phase1, phase2, solve_cancelable


def test_phase1_worked_example():
    inst = Instance(
        n=2,
        m=4,
        agents=(Additive((1, 1, 0, 0)), Additive((1, 1, 0, 0))),
        declared_class="cancelable",
    )
    result = phase1(inst)
    assert result.base_bundles == (0b01, 0b10)
    assert result.w == 1
    assert result.remaining == 0b1100


def test_solve_worked_example():
    inst = Instance(
        n=2,
        m=4,
        agents=(Additive((1, 1, 0, 0)), Additive((1, 1, 0, 0))),
        declared_class="cancelable",
    )
    report = solve_cancelable(inst, trace=True)
    assert report.allocation.bundles == (0b1101, 0b0010)
    assert report.guarantee is GuaranteeTag.EFX
    assert report.allocation.complete
    assert report.counters["phase1_rounds"] == 1


def test_cap5_builtin_even_split():
    inst = builtin("cancelable-cap5-n2")
    report = solve_cancelable(inst)
    sizes = sorted(b.bit_count() for b in report.allocation.bundles)
    assert sizes == [5, 5]
    assert is_alpha_efx(inst, report.allocation, 1)[0]
    assert not is_po_bruteforce(inst, report.allocation)[0]


def test_phase1_detects_mis_declared_input():
    # binary-marginal but not cancelable: the two batches end up priced
    # differently across agents, which the equal-price invariant rejects
    a = Table(m=4, values=(0, 1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 2, 2))
    b = Table(m=4, values=(0, 1, 1, 1, 1, 2, 2, 2, 1, 1, 2, 2, 2, 2, 3, 3))
    inst = Instance(n=2, m=4, agents=(a, b), declared_class="cancelable")
    with pytest.raises(InternalInvariantError, match="not cancelable"):
        phase1(inst)


def test_gate_rejects_mis_declared_table_before_phase1():
    a = Table(m=4, values=(0, 1, 1, 1, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 2, 2))
    b = Table(m=4, values=(0, 1, 1, 1, 1, 2, 2, 2, 1, 1, 2, 2, 2, 2, 3, 3))
    inst = Instance(n=2, m=4, agents=(a, b), declared_class="cancelable")
    with pytest.raises(WrongClassError):
        solve_cancelable(inst)


def test_declared_class_gate():
    with pytest.raises(WrongClassError):
        solve_cancelable(builtin("ternary-no-efxpo"))


def test_swap_branch_regression():
    # one agent with two free items among unit-cost rivals walks the
    # reshuffle through take, swap, then a zero-marginal add; debug
    # compares every attach decision, refusals included, with a fresh check
    inst = Instance(
        n=3,
        m=4,
        agents=(Additive((1, 1, 0, 0)), Additive((1, 1, 1, 1)), Additive((1, 1, 1, 1))),
        declared_class="cancelable",
    )
    report = solve_cancelable(inst, debug=True, trace=True)
    branches = [ev["event"] for ev in report.trace if ev["event"] in ("add", "merge", "take", "swap")]
    assert branches == ["take", "swap", "add"]
    assert report.allocation.bundles == (0b1100, 0b0010, 0b0001)
    assert report.counters["swaps"] == 1


def test_merge_branch_regression():
    inst = Instance(
        n=4,
        m=4,
        agents=(
            Additive((1, 1, 0, 0)),
            Additive((1, 1, 0, 1)),
            Additive((1, 1, 0, 1)),
            Additive((1, 1, 1, 1)),
        ),
        declared_class="cancelable",
    )
    report = solve_cancelable(inst, debug=True, trace=True)
    branches = [ev["event"] for ev in report.trace if ev["event"] in ("add", "merge", "take", "swap")]
    assert branches == ["add", "merge"]
    assert report.allocation.bundles == (0b0001, 0b0010, 0b0100, 0b1000)
    assert report.counters["merges"] == 1


def test_seeded_sweep_is_removal_stable():
    for i in range(200):
        family = "capped_additive" if i % 2 else "cardinality"
        n = 2 + i % 3
        m = 1 + i % 12
        inst = generate(family, n, m, seed=i)
        report = solve_cancelable(inst)
        assert report.allocation.complete
        assert is_alpha_efx(inst, report.allocation, 1)[0]
        assert report.counters["iterations"] <= 2 * m


def test_identical_cardinality_agents_split_evenly():
    inst = Instance(
        n=2,
        m=6,
        agents=(Cardinality(cap=6, m=6), Cardinality(cap=6, m=6)),
        declared_class="cancelable",
    )
    report = solve_cancelable(inst)
    assert sorted(b.bit_count() for b in report.allocation.bundles) == [3, 3]


def test_determinism():
    inst = generate("cardinality", 3, 10, seed=41)
    assert solve_cancelable(inst).allocation == solve_cancelable(inst).allocation


def test_phase2_queries_no_drop_after_a_zero_marginal_add(monkeypatch):
    # every phase-2 step here attaches a free item, and a free item leaves
    # the owner's worst drop equal to her unchanged bundle price
    inst = generate("cardinality", 8, 120, seed=1, params={"cap": 10})
    p1 = phase1(inst)
    views = [residual(fn, base) for fn, base in zip(inst.agents, p1.base_bundles)]
    asked: list = []
    # the worst drop is read through the counter's set-level least_drop,
    # and item by item only by the EFX re-check on a failure
    least_drop = common._least_drop
    monkeypatch.setattr(
        common, "_least_drop", lambda fn, mask: asked.append(mask) or least_drop(fn, mask)
    )
    item_drops = CostMatrix._item_drops
    monkeypatch.setattr(
        CostMatrix, "_item_drops", lambda self, i: asked.append(i) or item_drops(self, i)
    )
    counters: dict[str, int] = {}
    phase2(views, p1.remaining, inst.n, counters=counters)
    assert counters["adds"] == counters["iterations"] > 0
    assert asked == []


def test_capped_additive_query_budget():
    report = solve_cancelable(generate("capped_additive", 10, 300, 5))
    assert report.counters["adds"] == 299
    assert report.counters["evals"] < 6_000


@pytest.mark.parametrize("remaining", [0b10000, -1])
def test_phase2_refuses_a_remaining_set_out_of_range(remaining):
    # the loop's queries go unchecked, so the entry point checks the set
    views = [Cardinality(cap=2, m=4), Cardinality(cap=3, m=4)]
    with pytest.raises(InvalidInputError, match="out of range for ground set of size 4"):
        phase2(views, remaining, 2)
