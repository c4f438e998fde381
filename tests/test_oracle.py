import json
from concurrent.futures import Future

import pytest

from chorefair import oracle
from chorefair.costs import evaluate
from chorefair.errors import InvalidInputError, UnsupportedSizeError
from chorefair.fairness import Allocation, is_alpha_efx
from chorefair.instances import builtin, generate
from chorefair.oracle import (
    EnumerationReport,
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


def test_jobs_and_chunking_do_not_change_report():
    inst = generate("threshold", 3, 5, seed=9)
    base = analyze(inst).to_json()
    assert analyze(inst, jobs=3).to_json() == base
    assert analyze(inst, chunk=37).to_json() == base
    assert analyze(inst, jobs=2, chunk=7).to_json() == base


def test_jobs_capped_at_cpu_count(monkeypatch):
    # a stand-in pool runs the work inline, so no process is started
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

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
    with pytest.raises(InvalidInputError, match="chunk"):
        analyze(inst, chunk=0)


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


def test_exists_search_returns_first_witness():
    exists, witness = efx_exists_search(builtin("cancelable-cap5-n2"))
    assert exists
    assert witness.bundles == (0b0000011111, 0b1111100000)
    exists, witness = efx_exists_search(builtin("ternary-no-efxpo"), chunk=2)
    assert exists
    assert witness.bundles == (0b001, 0b110)


@pytest.mark.parametrize("chunk", [0, -3])
def test_exists_search_refuses_non_positive_chunks(tmp_path, chunk):
    # a negative chunk once scanned nothing and reported (and dumped) that
    # no EFX allocation exists
    path = tmp_path / "verdict.json"
    with pytest.raises(InvalidInputError, match="chunk size must be positive"):
        efx_exists_search(builtin("ternary-no-efxpo"), chunk=chunk, dump_path=str(path))
    assert not path.exists()


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
