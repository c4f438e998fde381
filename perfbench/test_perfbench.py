"""Tests of the benchmark itself: seeded inputs, metric names, the certifier."""

from __future__ import annotations

import json
import re

import pytest

import program

program.ensure_importable()

import certify  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from chorefair import (  # noqa: E402
    Allocation,
    Cardinality,
    GuaranteeTag,
    Instance,
    PartitionMatroidRank,
    SolveReport,
    analyze,
    efx_exists_search,
)
from tracer import Tracer, allocation_rank  # noqa: E402

BENCHMARK = json.loads((program.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_alone_decides_the_inputs(workload, tmp_path):
    digest = lambda seed, rnd: workloads.inputs_digest(  # noqa: E731
        workloads.build_round(workload, seed, rnd, tmp_path)
    )
    first = digest(3, 0)
    assert digest(3, 0) == first
    assert digest(4, 0) != first
    assert digest(3, 1) != first


def test_gate_small_misdeclares_only_where_the_gate_reproves(tmp_path):
    from chorefair.solvers import VERIFY_MAX_M

    requests = workloads.build_round("gate-small", 5, 0, tmp_path)
    narrow = [r for r in requests if r.narrow]
    assert len(narrow) == workloads.GATE_SMALL_NARROW
    assert all(r.inst.m <= VERIFY_MAX_M for r in narrow)
    assert any(r.inst.m > VERIFY_MAX_M for r in requests)
    defects = workloads.known_defect_requests(5, tmp_path)
    assert all(r.narrow and r.inst.m > VERIFY_MAX_M for r in defects)


def test_metric_names_match_the_benchmark_file():
    e2e = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert e2e == list(run.END_TO_END)
    assert layers == list(run.PER_LAYER)
    for name, _ in e2e + layers:
        assert METRIC_NAME.fullmatch(name), name
    assert set(run.end_to_end_metrics([0.1] * 20, 0, 0.5)) == {n for n, _ in e2e}
    client = run.Client("solve-large", 0)
    assert set(run.layer_metrics(Tracer(), client, 1.1, 1.0, 0)) == {n for n, _ in layers}


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    samples = [float(x) for x in range(1, 101)]
    value, pct = run.tail_latency(samples)
    assert value == 90.0
    assert sum(1 for x in samples if x > value) == 10
    assert pct == 89.0


def test_false_efx_po_tag_counts_as_a_failure():
    # Negative control, built by hand so that no solver is involved: the
    # 7/6 split is EFX, but handing everything to one agent costs 7 in
    # total against its 13, so the split is not Pareto-optimal.
    inst = workloads.cap7_pair()
    seven = (1 << 7) - 1
    split = Allocation(n=2, m=13, bundles=(seven, ((1 << 13) - 1) ^ seven))
    assert certify.certify_allocation(inst, split, "efx") == []
    assert certify.certify_allocation(inst, split, "efx+po") == ["po"]

    client = run.Client("solve-large", 0)
    report = SolveReport(algorithm="additive", allocation=split, guarantee=GuaranteeTag.EFX_AND_PO)
    failures, _ = client.check(workloads.Request("r0.0", "solve", inst), report)
    assert failures == ["po"]

    payload = json.dumps(report.to_json())
    req = workloads.Request("r0.1", "cli-solve", inst, path="unused.json", narrow=True)
    failures, _ = client.check(req, (0, payload, ""))
    assert failures == ["po"]
    # a too-narrow declaration may instead be refused
    assert client.check(req, (2, "", "error: wrong class\n"))[0] == []


def test_allocation_rank_follows_enumeration_order():
    # item 0 is the most significant digit of the base-n assignment vector
    alloc = Allocation.from_assignment(3, 4, [1, 0, 2, 1])
    assert allocation_rank(alloc) == 1 * 27 + 0 * 9 + 2 * 3 + 1


def test_oracle_cross_checks_catch_a_wrong_answer():
    tiny = Instance(
        n=2,
        m=4,
        agents=(Cardinality(cap=2, m=4), PartitionMatroidRank(((0, 1), (2, 3)), (1, 2))),
        declared_class="submodular",
    )
    ref = analyze(tiny)
    assert certify.check_full_report(tiny, ref) == []
    assert certify.enumeration_check(tiny) == []
    assert certify.check_answer("efx-exists", tiny, efx_exists_search(tiny), ref) == []
    wrong = analyze(tiny, sections=("min-sc",))
    wrong.min_social_cost += 1
    assert certify.check_answer("min-sc", tiny, wrong, ref) == ["min social cost"]
