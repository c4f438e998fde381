import pytest

from chorefair.costs import Additive, Cardinality, Table, evaluate
from chorefair.errors import WrongClassError
from chorefair.fairness import is_alpha_ef, is_alpha_efx
from chorefair.instances import Instance, builtin, generate
from chorefair.reports import GuaranteeTag
from chorefair.solvers import compute_m1, solve_auto, solve_submodular


def capped(n, m, cap):
    return Instance(
        n=n,
        m=m,
        agents=tuple(Cardinality(cap=cap, m=m) for _ in range(n)),
        declared_class="cancelable",
    )


def test_compute_m1_unit_singletons():
    assert compute_m1(capped(2, 5, cap=5)) == 0b11111
    assert compute_m1(builtin("appendixA-submodular-4")) == 0b1111
    mixed = Instance(
        n=3,
        m=4,
        agents=(
            Additive(costs=(1, 1, 0, 0)),
            Additive(costs=(1, 1, 1, 1)),
            Additive(costs=(1, 1, 1, 1)),
        ),
        declared_class="additive",
    )
    assert compute_m1(mixed) == 0b0011


def test_compute_m1_rejects_non_binary_costs():
    with pytest.raises(WrongClassError):
        compute_m1(builtin("ternary-no-efxpo"))


def test_case_two_worked_example():
    inst = capped(2, 5, cap=5)
    report = solve_submodular(inst, debug=True, trace=True)
    alloc = report.allocation
    assert report.counters["case"] == 2
    assert alloc.bundles == (0b10101, 0b01010)
    assert alloc.complete
    assert report.guarantee is GuaranteeTag.TWO_EF
    assert sorted(evaluate(inst.agents[0], b) for b in alloc.bundles) == [2, 3]
    assert is_alpha_ef(inst, alloc, 2)[0]
    assert is_alpha_efx(inst, alloc, 2)[0]
    events = [ev["event"] for ev in report.trace]
    assert events.count("seed") == 2
    assert "leftover" in events
    assert any("case 2" in note for note in report.notes)


def test_case_one_runs_reshuffling_loop():
    # only items 0 and 1 cost one unit to everybody, fewer than the three
    # agents, so the placement loop runs on the original functions
    inst = Instance(
        n=3,
        m=4,
        agents=(
            Additive(costs=(1, 1, 0, 0)),
            Additive(costs=(1, 1, 1, 1)),
            Additive(costs=(1, 1, 1, 1)),
        ),
        declared_class="additive",
    )
    report = solve_submodular(inst, debug=True)
    assert report.counters["case"] == 1
    assert report.counters["swaps"] == 1
    assert report.allocation.bundles == (0b1100, 0b0010, 0b0001)
    assert report.allocation.complete
    assert report.guarantee is GuaranteeTag.EFX
    assert is_alpha_efx(inst, report.allocation, 1)[0]
    assert any("case 1" in note for note in report.notes)


def test_single_agent_builtin_frozen_counters():
    report = solve_submodular(builtin("appendixA-submodular-4"), debug=True)
    assert report.allocation.bundles == (0b1111,)
    assert report.guarantee.value == "2-ef"
    assert report.counters == {
        "case": 2,
        "iterations": 3,
        "zero_placements": 1,
        "rotations": 0,
        "batches": 2,
        "evals": 10,
    }


def test_gate_rejects_general_declaration():
    with pytest.raises(WrongClassError):
        solve_submodular(generate("threshold", 2, 4, seed=0))


def test_gate_rejects_mis_declared_table():
    # threshold-style values: the first item is free alone but costs one
    # unit on top of the other two, an increasing marginal
    lying = Table(m=3, values=(0, 0, 0, 1, 0, 1, 1, 2))
    inst = Instance(n=2, m=3, agents=(lying, lying), declared_class="submodular")
    with pytest.raises(WrongClassError, match="submodular"):
        solve_submodular(inst)


def test_seeded_sweep_hits_both_cases():
    cases = set()
    for i in range(150):
        n = 2 + i % 3
        m = 1 + i % 12
        inst = generate("partition_matroid", n, m, seed=i)
        report = solve_submodular(inst, debug=(m <= 8))
        cases.add(report.counters["case"])
        alloc = report.allocation
        assert alloc.complete
        assert is_alpha_efx(inst, alloc, 2)[0]
        if report.counters["case"] == 1:
            assert report.guarantee is GuaranteeTag.EFX
            assert is_alpha_efx(inst, alloc, 1)[0]
        else:
            assert report.guarantee is GuaranteeTag.TWO_EF
            assert is_alpha_ef(inst, alloc, 2)[0]
    assert cases == {1, 2}


def test_determinism():
    inst = generate("partition_matroid", 3, 9, seed=5)
    assert solve_submodular(inst).allocation == solve_submodular(inst).allocation


def test_debug_solve_of_a_large_case_1_instance():
    # random 0/1 rows on ten agents leave no item unit-cost for all of them,
    # so phase 2 runs on the original functions under the matrix cross-check
    agents = generate("capped_additive", 10, 200, seed=2).agents
    inst = Instance(n=10, m=200, agents=agents, declared_class="submodular")
    report = solve_auto(inst, debug=True)
    assert report.counters["case"] == 1
    assert report.guarantee is GuaranteeTag.EFX
    assert report.allocation.complete
