"""One route for re-proving a guarantee tag: ``certify`` and the solver epilogue."""

import json
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorefair import fairness, reports
from chorefair.cli import main
from chorefair.costs import (
    Additive,
    CappedAdditive,
    Cardinality,
    PartitionMatroidRank,
    Table,
    Threshold,
    value_table,
)
from chorefair.errors import ChoreFairError, InternalInvariantError
from chorefair.fairness import Allocation, is_po_bruteforce
from chorefair.instances import (
    BUILTIN_NAMES,
    Instance,
    builtin,
    generate,
    serialize_instance,
)
from chorefair.reports import (
    PO_SCAN_LIMIT,
    TAG_CHECKS,
    GuaranteeTag,
    SolveReport,
    _additive_floor,
    _binary_additive,
    _pareto,
    certify,
)
from chorefair.solvers import solve_auto
from chorefair.solvers.common import OpCounter, Trace, finish
from helpers import cap7_pair


def tagged(alloc, tag):
    return SolveReport(algorithm="hand-built", allocation=alloc, guarantee=tag)


def test_certificate_records_each_promised_property():
    inst = builtin("ternary-no-efxpo")
    alloc = Allocation(n=2, m=3, bundles=(0b101, 0b010))
    cert = certify(inst, tagged(alloc, GuaranteeTag.EFX_AND_PO))
    assert list(cert.checks) == list(TAG_CHECKS[GuaranteeTag.EFX_AND_PO].checks)
    # weights (2, 1, 0) / (2, 0, 1): item 0 costs 2 to either agent, so the
    # least social cost is 2, which this allocation pays
    assert cert.checks == {
        "complete": True,
        "efx": False,
        "minimal-social-cost": True,
        "po": True,
    }
    assert not cert.passed
    assert cert.failures == ["efx"]
    assert cert.to_json() == {"tag": "efx+po", "checks": cert.checks, "passed": False}
    partial = certify(inst, tagged(alloc, GuaranteeTag.PARTIAL_EF))
    assert partial.checks == {"ef": False, "leftover-at-most-n-minus-1": True}
    scaled = certify(inst, tagged(alloc, GuaranteeTag.TWO_EF))
    assert scaled.passed and scaled.checks == {"complete": True, "2-ef": True, "2-efx": True}


def test_false_efx_po_split_fails_exactly_po(monkeypatch):
    # the 7/6 split is EFX and meets the additive social-cost floor, but
    # handing everything to one agent costs 7 in total against its 13; the
    # tables are not additive, so the floor decides nothing: the oracle's
    # minimum of 7 fails the social cost, and PO is scanned
    inst = cap7_pair()
    assert not _binary_additive(inst)
    scans = []
    scan = fairness.is_po_bruteforce
    monkeypatch.setattr(fairness, "is_po_bruteforce", lambda *a: scans.append(1) or scan(*a))
    seven = (1 << 7) - 1
    split = Allocation(n=2, m=13, bundles=(seven, ((1 << 13) - 1) ^ seven))
    cert = certify(inst, tagged(split, GuaranteeTag.EFX_AND_PO))
    assert cert.failures == ["minimal-social-cost", "po"]
    assert scans == [1]
    assert certify(inst, tagged(split, GuaranteeTag.EFX)).notes == ("not PO",)


def _two_two_split(kind) -> tuple[Instance, Allocation]:
    inst = Instance(n=2, m=4, agents=(kind, kind), declared_class="general")
    return inst, Allocation(n=2, m=4, bundles=(0b0011, 0b1100))


def test_minimal_social_cost_below_the_floor_fails():
    # min(|S|, 3): the floor counts 4 items, yet one agent takes all four
    # for 3; the 2/2 split meets the floor and is not minimal
    inst, split = _two_two_split(Cardinality(cap=3, m=4))
    assert _additive_floor(inst) == fairness.social_cost(inst, split) == 4
    cert = certify(inst, tagged(split, GuaranteeTag.EFX_AND_PO))
    assert cert.checks["minimal-social-cost"] is False


def test_minimal_social_cost_above_the_floor_passes():
    # max(0, |S| - 1): every singleton is free, so the floor is 0, and the
    # 2/2 split's cost of 2 is the least any allocation pays
    inst, split = _two_two_split(Threshold(k=1, m=4))
    assert _additive_floor(inst) == 0 and fairness.social_cost(inst, split) == 2
    cert = certify(inst, tagged(split, GuaranteeTag.EFX_AND_PO))
    assert cert.checks["minimal-social-cost"] is True
    assert cert.passed


def test_one_agent_takes_the_least_social_cost_without_tables():
    # 2^26 entries are past the scan's table cap; the one complete
    # allocation is the minimum
    card = Cardinality(cap=3, m=26)
    inst = Instance(n=1, m=26, agents=(card,), declared_class="cancelable")
    whole = Allocation(n=1, m=26, bundles=((1 << 26) - 1,))
    cert = certify(inst, tagged(whole, GuaranteeTag.EFX_AND_PO))
    assert cert.passed and cert.checks["minimal-social-cost"] is True


def _as_tables(inst: Instance) -> Instance:
    agents = tuple(
        Table(m=inst.m, values=tuple(int(x) for x in value_table(fn))) for fn in inst.agents
    )
    return Instance(n=inst.n, m=inst.m, agents=agents, declared_class="additive")


def _floor_agrees_with_the_scan(n, m, seed, owner, tables):
    """Decide PO both ways on one allocation; returns the common verdict."""
    inst = generate("binary_additive", n, m, seed=seed)
    if tables:
        inst = _as_tables(inst)
    assert _binary_additive(inst)
    bundles = tuple(sum(1 << e for e in range(m) if owner[e] == i) for i in range(n))
    alloc = Allocation(n=n, m=m, bundles=bundles)
    po = is_po_bruteforce(inst, alloc)[0]
    assert certify(inst, tagged(alloc, GuaranteeTag.EFX_AND_PO)).checks["po"] == po
    return po


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, 7).flatmap(
                lambda m: st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
            ),
        )
    ),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_floor_decides_po_as_the_scan_does(case, seed, tables):
    n, owner = case
    _floor_agrees_with_the_scan(n, len(owner), seed, owner, tables)


def test_floor_decides_po_as_the_scan_does_on_a_seeded_sweep():
    rng = random.Random(5)
    verdicts = set()
    for k in range(300):
        n, m = rng.randint(1, 4), rng.randint(0, 7)
        owner = [rng.randrange(n) for _ in range(m)]
        verdicts.add(_floor_agrees_with_the_scan(n, m, k, owner, tables=k % 2 == 1))
    assert verdicts == {True, False}


def _additive_by_parameter(m: int, rng: random.Random):
    """A capped, threshold or matroid kind whose parameters make it binary
    additive: no cap or threshold falls strictly inside its unit items,
    and no matroid group binds."""
    ones = tuple(rng.randint(0, 1) for _ in range(m))
    owner = [rng.randrange(3) for _ in range(m)]
    groups = [tuple(e for e in range(m) if owner[e] == g) for g in sorted(set(owner))]
    groups = groups or [()]
    return rng.choice(
        (
            CappedAdditive(ones, cap=rng.choice((0, sum(ones), m + 1))),
            Cardinality(cap=rng.choice((0, m, m + 1)), m=m),
            Threshold(k=rng.choice((0, m, m + 1)), m=m),
            PartitionMatroidRank(tuple(groups), tuple(rng.choice((0, len(g))) for g in groups)),
        )
    )


def test_floor_decides_po_as_the_scan_does_for_kinds_additive_by_parameter():
    rng = random.Random(21)
    verdicts = set()
    for _ in range(300):
        n, m = rng.randint(1, 4), rng.randint(0, 7)
        agents = tuple(_additive_by_parameter(m, rng) for _ in range(n))
        inst = Instance(n=n, m=m, agents=agents, declared_class="additive")
        assert _binary_additive(inst) and inst.n**inst.m <= PO_SCAN_LIMIT
        owner = [rng.randrange(n) for _ in range(m)]
        bundles = tuple(sum(1 << e for e in range(m) if owner[e] == i) for i in range(n))
        alloc = Allocation(n=n, m=m, bundles=bundles)
        po = is_po_bruteforce(inst, alloc)[0]
        checks = certify(inst, tagged(alloc, GuaranteeTag.EFX_AND_PO)).checks
        assert checks["po"] == checks["minimal-social-cost"] == po
        verdicts.add(po)
    assert verdicts == {True, False}


def test_pareto_decides_as_the_scan_does_and_names_a_one_move_dominator(tmp_path, capsys):
    # all five kinds with parameters that make them additive, and Table
    # copies of them: the floor decides PO with no scan, and CLI verify
    # reads the same decision as certify
    rng = random.Random(22)
    verdicts = set()
    for k in range(300):
        n, m = rng.randint(2, 4), rng.randint(0, 7)
        agents = []
        for _ in range(n):
            fn = _additive_by_parameter(m, rng)
            if rng.random() < 0.2:
                fn = Additive(tuple(rng.randint(0, 1) for _ in range(m)))
            if rng.random() < 0.3:
                fn = Table(m=m, values=tuple(int(x) for x in value_table(fn)))
            agents.append(fn)
        inst = Instance(n=n, m=m, agents=tuple(agents), declared_class="additive")
        assert _binary_additive(inst)
        alloc = Allocation.from_assignment(n, m, [rng.randrange(n) for _ in range(m)])
        po, dominator = _pareto(inst, alloc, PO_SCAN_LIMIT)
        assert po == is_po_bruteforce(inst, alloc)[0]
        verdicts.add(po)
        if po:
            assert dominator is None
        else:
            # one item moves: two bundles change, by the same single item
            changed = [a ^ b for a, b in zip(alloc.bundles, dominator.bundles) if a != b]
            assert len(changed) == 2 and changed[0] == changed[1]
            assert changed[0].bit_count() == 1
            # the lowest item whose holder pays 1 and someone pays 0, to
            # the lowest agent paying 0
            pays = [[fairness.evaluate(fn, 1 << e) for fn in agents] for e in range(m)]
            owner = [next(i for i, b in enumerate(alloc.bundles) if b >> e & 1) for e in range(m)]
            item = min(e for e in range(m) if pays[e][owner[e]] == 1 and 0 in pays[e])
            assert changed[0] == 1 << item and dominator.bundles[pays[item].index(0)] >> item & 1
            before = [fairness.evaluate(fn, b) for fn, b in zip(agents, alloc.bundles)]
            after = [fairness.evaluate(fn, b) for fn, b in zip(agents, dominator.bundles)]
            assert all(a <= b for a, b in zip(after, before)) and after != before
        cert = certify(inst, tagged(alloc, GuaranteeTag.EFX_AND_PO))
        assert cert.checks["po"] == po
        inst_path, alloc_path = tmp_path / "inst.json", tmp_path / "alloc.json"
        inst_path.write_text(serialize_instance(inst))
        alloc_path.write_text(json.dumps(alloc.to_json()))
        argv = ["verify", "--input", str(inst_path), "--allocation", str(alloc_path)]
        code = main(argv + ["--criteria", "po", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == (0 if po else 1) and payload["criteria"]["po"]["pass"] == po
        if not po:
            assert payload["criteria"]["po"]["dominated_by"] == dominator.to_json()
    assert verdicts == {True, False}


def test_capped_agents_with_caps_that_never_bind_get_po_from_the_floor():
    # each cap reaches its agent's unit items, so both agents are additive;
    # 2^21 allocations are past the scan, and the floor decides PO exactly
    ones = tuple(e % 2 for e in range(21))
    agents = (CappedAdditive(ones, cap=10), CappedAdditive((1,) * 21, cap=21))
    inst = Instance(n=2, m=21, agents=agents, declared_class="additive")
    assert inst.n**inst.m > PO_SCAN_LIMIT and _binary_additive(inst)
    report = solve_auto(inst, verify=True)
    assert report.guarantee is GuaranteeTag.EFX_AND_PO
    cert = report.verification
    assert cert.passed
    assert cert.checks["minimal-social-cost"] is True and cert.checks["po"] is True
    # handing agent 1 the even items, which agent 0 takes for free, pays
    # 11 more than the floor: the "not PO" note is decided past the scan too
    odd = sum(1 << e for e in range(21) if e % 2)
    split = Allocation(n=2, m=21, bundles=(odd, ((1 << 21) - 1) ^ odd))
    assert certify(inst, tagged(split, GuaranteeTag.EFX)).notes == ("not PO",)


def test_one_binding_matroid_group_declared_cancelable_certifies_its_efx():
    # one group binds, and none is free: cancelable, though not additive
    matroid = PartitionMatroidRank(((0, 1, 2), (3, 4)), (2, 0))
    inst = Instance(n=2, m=5, agents=(matroid, matroid), declared_class="cancelable")
    report = solve_auto(inst, verify=True)
    assert report.guarantee is GuaranteeTag.EFX
    assert report.verification.passed
    assert certify(inst, report).passed


def test_only_proved_binary_additive_agents_skip_the_scan():
    additive = generate("binary_additive", 1, 2, seed=0).agents[0]
    unit = Table(m=2, values=(0, 1, 1, 1))  # binary marginals, not additive
    wide = Table(m=2, values=(0, 2, 0, 2))  # additive, item 0 costs 2
    assert _binary_additive(_as_tables(generate("binary_additive", 2, 2, seed=0)))
    for other in (unit, wide):
        inst = Instance(n=2, m=2, agents=(additive, other), declared_class="general")
        assert not _binary_additive(inst)


def test_certify_never_raises_on_a_failed_property():
    inst = cap7_pair()
    partial = Allocation(n=2, m=13, bundles=(0b1, 0b10), unallocated=((1 << 13) - 1) ^ 0b11)
    cert = certify(inst, tagged(partial, GuaranteeTag.EFX_AND_PO))
    assert cert.checks["complete"] is False and cert.checks["po"] is False
    cert = certify(inst, tagged(partial, GuaranteeTag.PARTIAL_EF))
    assert cert.checks["leftover-at-most-n-minus-1"] is False


def test_po_beyond_the_scan_limit_is_decided_at_the_floor():
    # binary additive agents: PO is decided from the social-cost floor,
    # exactly, past the brute-force scan's limit too
    inst = generate("binary_additive", 3, 13, seed=2)
    assert inst.n**inst.m > PO_SCAN_LIMIT
    report = solve_auto(inst, verify=True)
    cert = report.verification
    assert report.guarantee is GuaranteeTag.EFX_AND_PO
    assert cert.passed and cert.checks["po"] is True
    assert cert.notes == ()


def test_unproved_po_past_the_scan_limit_fails():
    # cancelable, not additive, 2^21 allocations: neither the floor nor the
    # scan decides PO or the least social cost, and giving every item to
    # agent 0 dominates the 11/10 split (costs (11, 0) against (11, 10))
    card = Cardinality(11, 21)
    inst = Instance(n=2, m=21, agents=(card, card), declared_class="cancelable")
    assert inst.n**inst.m > PO_SCAN_LIMIT and not _binary_additive(inst)
    eleven = (1 << 11) - 1
    split = Allocation(n=2, m=21, bundles=(eleven, ((1 << 21) - 1) ^ eleven))
    cert = certify(inst, tagged(split, GuaranteeTag.EFX_AND_PO))
    assert not cert.passed
    assert cert.failures == ["minimal-social-cost", "po"]
    assert cert.notes == ()
    cert = certify(inst, tagged(split, GuaranteeTag.EFX))
    assert cert.passed and cert.notes == ()


def test_floor_and_social_cost_priced_once_per_certificate(monkeypatch):
    inst = generate("binary_additive", 3, 13, seed=2)
    report = solve_auto(inst)
    assert report.guarantee is GuaranteeTag.EFX_AND_PO
    calls = []
    for name in ("social_cost", "_additive_floor"):
        module = fairness if name == "social_cost" else reports
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *a, real=real, name=name: calls.append(name) or real(*a)
        )
    assert certify(inst, report).passed
    assert sorted(calls) == ["_additive_floor", "social_cost"]


def test_epilogue_names_the_first_failed_check():
    inst = generate("threshold", 2, 4, seed=0, params={"k": 0})
    counters: dict[str, int] = {}
    with pytest.raises(InternalInvariantError, match="fails the 'ef' check"):
        finish(
            inst,
            "general",
            GuaranteeTag.PARTIAL_EF,
            [0b1111, 0],
            ops=OpCounter(),
            tr=Trace(False),
            counters=counters,
            verify=False,
        )


def _seeded_instances():
    yield generate("binary_additive", 3, 8, seed=4)
    yield generate("binary_additive", 3, 13, seed=2)
    yield generate("cardinality", 3, 9, seed=7)
    yield generate("partition_matroid", 2, 6, seed=0)
    yield generate("threshold", 3, 7, seed=1)
    yield cap7_pair()
    for name in BUILTIN_NAMES:
        yield builtin(name)


def test_library_and_cli_certify_alike(tmp_path, capsys):
    tags = set()
    for k, inst in enumerate(_seeded_instances()):
        path = tmp_path / f"{k}.json"
        path.write_text(serialize_instance(inst))
        code = main(["solve", "--input", str(path), "--verify", "--json"])
        captured = capsys.readouterr()
        try:
            report = solve_auto(inst, verify=True)
        except ChoreFairError as exc:
            assert code == 2
            assert captured.err == f"error: {exc}\n"
            continue
        payload = json.loads(captured.out)
        cert = report.verification
        assert payload["verification"] == cert.to_json()
        assert payload["notes"] == list(report.notes) + list(cert.notes)
        assert code == (0 if cert.passed else 1)
        tags.add(report.guarantee)
    assert tags == set(GuaranteeTag)


def test_epilogue_prices_each_allocation_once(tmp_path, capsys, monkeypatch):
    # the solvers' own matrices answer through their counter; the epilogue
    # builds the one uncounted matrix, and scans PO only under verify
    matrices, scans = [], []
    init = fairness.CostMatrix.__init__

    def counting_init(self, funcs, bundles, ops=None):
        if ops is None:
            matrices.append(1)
        init(self, funcs, bundles, ops)

    scan = fairness.is_po_bruteforce
    monkeypatch.setattr(fairness.CostMatrix, "__init__", counting_init)
    monkeypatch.setattr(fairness, "is_po_bruteforce", lambda *a: scans.append(1) or scan(*a))
    tags = set()
    for k, inst in enumerate(_seeded_instances()):
        scanned = len(scans)
        try:
            tag = solve_auto(inst).guarantee
        except ChoreFairError:
            continue
        tags.add(tag)
        assert len(matrices) == 1 and len(scans) == scanned
        del matrices[:]
        solve_auto(inst, verify=True)
        assert len(matrices) == 1, tag
        del matrices[:]
        path = tmp_path / f"{k}.json"
        path.write_text(serialize_instance(inst))
        main(["solve", "--input", str(path), "--verify", "--json"])
        capsys.readouterr()
        assert len(matrices) == 1, tag
        del matrices[:]
    assert tags == set(GuaranteeTag)
    assert scans  # the patch sees the certificates' scans
