import itertools
import json
import random
from concurrent.futures import Future

import numpy as np
import pytest

from chorefair import fairness, oracle
from chorefair.costs import COST_MAX, Additive, Table, evaluate
from chorefair.errors import InvalidInputError, UnsupportedSizeError
from chorefair.fairness import Allocation, _cost_tables, is_alpha_efx, is_po_bruteforce
from chorefair.instances import Instance, builtin, generate
from chorefair.oracle import (
    SECTIONS,
    EnumerationReport,
    _worst_drops,
    analyze,
    efx_exists_search,
    enumerate_allocations,
)


def brute_report(inst):
    """Pure-Python scan used to cross-check the vectorised one."""
    found = []
    enumerate_allocations(inst, found.append)
    vectors = [
        tuple(evaluate(fn, a.bundles[j]) for j, fn in enumerate(inst.agents))
        for a in found
    ]
    distinct = set(vectors)

    def dominated(v):
        return any(
            all(x <= y for x, y in zip(u, v)) and u != v for u in distinct
        )

    efx = [a for a in found if is_alpha_efx(inst, a, 1)[0]]
    frontier = [a for a, v in zip(found, vectors) if not dominated(v)]
    frontier_set = {a.bundles for a in frontier}
    return EnumerationReport(
        total_allocations=len(found),
        efx_allocations=efx,
        pareto_frontier=frontier,
        efx_and_po_exists=any(a.bundles in frontier_set for a in efx),
        min_social_cost=min(sum(v) for v in vectors),
    )


def test_ternary_report_frozen():
    rep = analyze(builtin("ternary-no-efxpo"))
    assert rep.total_allocations == 8
    assert [a.bundles for a in rep.efx_allocations] == [(0b001, 0b110), (0b110, 0b001)]
    assert [a.bundles for a in rep.pareto_frontier] == [(0b101, 0b010), (0b100, 0b011)]
    assert rep.efx_and_po_exists is False
    assert rep.min_social_cost == 2


def test_cap5_report_frozen():
    rep = analyze(builtin("cancelable-cap5-n2"))
    assert rep.total_allocations == 1024
    assert len(rep.efx_allocations) == 252
    assert all(
        a.bundles[0].bit_count() == 5 and a.bundles[1].bit_count() == 5
        for a in rep.efx_allocations
    )
    full = (1 << 10) - 1
    assert [a.bundles for a in rep.pareto_frontier] == [(full, 0), (0, full)]
    assert rep.efx_and_po_exists is False
    assert rep.min_social_cost == 5


def test_single_agent_report():
    rep = analyze(builtin("appendixA-cap5-function"))
    assert rep.total_allocations == 1
    assert [a.bundles for a in rep.efx_allocations] == [(0b11111111,)]
    assert [a.bundles for a in rep.pareto_frontier] == [(0b11111111,)]
    assert rep.efx_and_po_exists is True
    assert rep.min_social_cost == 5


def test_matches_slow_enumeration():
    instances = [builtin("ternary-no-efxpo")]
    for i in range(6):
        family = ("threshold", "table", "cardinality")[i % 3]
        instances.append(generate(family, 2 + i % 2, 3 + i % 2, seed=40 + i))
    for inst in instances:
        assert analyze(inst).to_json() == brute_report(inst).to_json()


def test_jobs_and_chunking_do_not_change_report(monkeypatch):
    inst = generate("threshold", 3, 5, seed=9)
    base = analyze(inst).to_json()
    assert analyze(inst, jobs=3).to_json() == base
    monkeypatch.setattr(fairness, "_SCAN_BLOCK", 37)
    assert analyze(inst).to_json() == base
    # a forked worker would not see the smaller block; the inline pool does
    monkeypatch.setattr(fairness, "_SCAN_BLOCK", 7)
    monkeypatch.setattr(InlinePool, "workers", [])
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    assert analyze(inst, jobs=2).to_json() == base


class InlinePool:
    """Stand-in process pool that runs the work inline, so no process is
    started; records each pool's worker count."""

    workers: list[int] = []

    def __init__(self, max_workers):
        self.workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = Future()
        future.set_result(fn(*args))
        return future


def test_jobs_capped_at_cpu_count(monkeypatch):
    workers = []
    monkeypatch.setattr(InlinePool, "workers", workers)
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    inst = generate("threshold", 3, 5, seed=9)
    assert analyze(inst, jobs=64).to_json() == analyze(inst).to_json()
    assert workers == [2, 2]  # the scan pass and the frontier pass
    with pytest.raises(InvalidInputError, match="jobs"):
        analyze(inst, jobs=0)


def test_sections_gate_the_fields():
    inst = builtin("ternary-no-efxpo")
    rep = analyze(inst, sections=("min-sc",))
    assert rep.min_social_cost == 2
    assert rep.efx_allocations is None
    assert rep.pareto_frontier is None
    assert rep.efx_and_po_exists is None
    rep = analyze(inst, sections=("efx-po",))
    assert rep.efx_and_po_exists is False
    assert rep.pareto_frontier is None
    with pytest.raises(InvalidInputError, match="sections"):
        analyze(inst, sections=("efx", "po"))


def test_size_limits():
    big = builtin("cancelable-cap5-n2")
    with pytest.raises(UnsupportedSizeError):
        analyze(big, limit=1000)
    with pytest.raises(UnsupportedSizeError):
        enumerate_allocations(big, lambda a: None, limit=1000)
    with pytest.raises(InvalidInputError, match="hard cap"):
        analyze(big, limit=10**9)
    with pytest.raises(UnsupportedSizeError):
        efx_exists_search(builtin("ternary-no-efxpo"), limit=4)


def test_exists_search_returns_first_witness(monkeypatch):
    exists, witness = efx_exists_search(builtin("cancelable-cap5-n2"))
    assert exists
    assert witness.bundles == (0b0000011111, 0b1111100000)
    monkeypatch.setattr(fairness, "_SCAN_BLOCK", 2)
    exists, witness = efx_exists_search(builtin("ternary-no-efxpo"))
    assert exists
    assert witness.bundles == (0b001, 0b110)


def test_exists_search_dumps_verdict(tmp_path):
    path = tmp_path / "verdict.json"
    exists, witness = efx_exists_search(builtin("ternary-no-efxpo"), dump_path=str(path))
    payload = json.loads(path.read_text())
    assert set(payload) == {"instance", "efx_exists", "total_allocations", "witness"}
    assert payload["efx_exists"] is True
    assert payload["total_allocations"] == 8
    assert Allocation.from_json(payload["witness"], 2, 3).bundles == witness.bundles
    assert payload["instance"]["n"] == 2


def test_report_json_shape():
    rep = analyze(builtin("ternary-no-efxpo"), sections=("efx",))
    doc = rep.to_json()
    assert doc["total_allocations"] == 8
    assert doc["pareto_frontier"] is None
    assert doc["efx_allocations"][0] == {"bundles": [[0], [1, 2]], "unallocated": []}


_FIELDS = {
    "efx": "efx_allocations",
    "frontier": "pareto_frontier",
    "efx-po": "efx_and_po_exists",
    "min-sc": "min_social_cost",
}


def test_every_section_subset_matches_the_full_report(monkeypatch):
    # two workers through the inline pool split every range in two
    monkeypatch.setattr(InlinePool, "workers", [])
    monkeypatch.setattr(oracle, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 2)
    instances = [
        builtin("ternary-no-efxpo"),
        generate("threshold", 3, 5, seed=9),
        generate("table", 2, 6, seed=3),
        generate("capped_additive", 4, 3, seed=1),
        generate("cardinality", 1, 4, seed=0),
    ]
    for inst in instances:
        full = analyze(inst).to_json()
        for r in range(len(SECTIONS) + 1):
            for sections in itertools.combinations(SECTIONS, r):
                for block, jobs in itertools.product((1, 5, 37, 1 << 16), (1, 2)):
                    monkeypatch.setattr(fairness, "_SCAN_BLOCK", block)
                    doc = analyze(inst, sections=sections, jobs=jobs).to_json()
                    assert doc == {
                        key: value
                        if key == "total_allocations"
                        or any(_FIELDS[name] == key for name in sections)
                        else None
                        for key, value in full.items()
                    }


def test_exists_witness_is_the_first_efx_allocation(monkeypatch):
    rng = random.Random(3)
    for k in range(24):
        family = ("binary_additive", "capped_additive", "cardinality", "threshold", "table")[k % 5]
        inst = generate(family, rng.randint(1, 4), rng.randint(1, 6), seed=k)
        efx = analyze(inst, sections=("efx",)).efx_allocations
        for block in (1, 7, 1 << 16):
            monkeypatch.setattr(fairness, "_SCAN_BLOCK", block)
            exists, witness = efx_exists_search(inst)
            assert exists == bool(efx)
            assert witness == (efx[0] if efx else None)


@pytest.mark.parametrize("m", range(9))
def test_worst_drops_match_their_definition(m):
    rng = np.random.default_rng(m)
    table = rng.integers(0, 50, size=1 << m, dtype=np.int32)
    expected = [
        max((int(table[s ^ (1 << e)]) for e in range(m) if s >> e & 1), default=0)
        for s in range(1 << m)
    ]
    worst = _worst_drops(table, m)
    assert worst.dtype == table.dtype
    assert worst.tolist() == expected


def _no_tables(fn, max_m=None):
    raise AssertionError("a dense table was built")


def test_oversized_tables_are_refused_before_any_is_built(monkeypatch):
    monkeypatch.setattr(fairness, "value_table", _no_tables)
    wide = Instance(n=1, m=26, agents=(Additive((1,) * 26),), declared_class="additive")
    with pytest.raises(UnsupportedSizeError, match="cost tables need n \\* 2\\^m = 67108864"):
        analyze(wide)
    with pytest.raises(UnsupportedSizeError, match="over the cap"):
        efx_exists_search(wide)
    pair = Instance(n=2, m=25, agents=(Additive((1,) * 25),) * 2, declared_class="additive")
    with pytest.raises(UnsupportedSizeError, match="over the cap"):
        analyze(pair, limit=10**8, sections=("min-sc",))
    # no section asked for, no table needed
    assert analyze(wide, sections=()).to_json()["total_allocations"] == 1


def test_values_past_int32_do_not_wrap():
    # two Table(2, (0, C, C, C)) agents, C = COST_MAX: an item each costs
    # 2^32 - 2 in total, past int32, in the oracle's int64 row sums
    top = Table(m=2, values=(0, COST_MAX, COST_MAX, COST_MAX))
    pair = Instance(n=2, m=2, agents=(top, top), declared_class="general")
    rep = analyze(pair)
    assert rep.to_json() == brute_report(pair).to_json()
    assert rep.min_social_cost == COST_MAX
    front = {a.bundles for a in rep.pareto_frontier}
    allocs = []
    enumerate_allocations(pair, allocs.append)
    for alloc in allocs:
        assert is_po_bruteforce(pair, alloc)[0] == (alloc.bundles in front)
    # values that once wrapped the int64 row sums are refused where the
    # table is built
    with pytest.raises(InvalidInputError, match="mask 1 lies outside"):
        Table(m=2, values=(0, 2**62, 2**62, 2**62))


def test_tables_keep_int32_where_their_values_fit():
    # every value table fits int32, so every scan table is kept in it
    tables = _cost_tables(generate("cardinality", 3, 11, seed=0))
    assert [t.dtype for t in tables] == [np.int32] * 3
    edge = Instance(
        n=2,
        m=1,
        agents=(Table(m=1, values=(0, COST_MAX)), Table(m=1, values=(0, 0))),
        declared_class="general",
    )
    assert [t.tolist() for t in _cost_tables(edge)] == [[0, COST_MAX], [0, 0]]
    assert [t.dtype for t in _cost_tables(edge)] == [np.int32] * 2
