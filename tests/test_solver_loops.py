"""The solver loops against their reference versions.

``helpers.REFERENCE_LOOPS`` keeps the loops as they were before they
learned to work only where something changed: one zero-marginal placement
per envy-loop iteration, a cycle search for every equality edge, and a full
removal-stability re-check after every phase-2 iteration.  On seeded
instances of every family that reaches those loops, the library's report
must equal the reference's in everything but ``evals``, trace events
included, and ``evals`` may only fall.  The unit-item scans, which both
sides share, must find the items an index-order scan finds.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from chorefair.costs import Cardinality, Threshold
from chorefair.fairness import CostMatrix, EnvyGraph, find_cycle_through_edge, tail_scc
from chorefair.instances import Instance, generate
from chorefair.itemset import full_set, iter_items
from chorefair.solvers import solve_auto
from chorefair.solvers.common import OpCounter, unit_to_all
from helpers import REFERENCE_LOOPS, random_binary_table, reference_tail_scc


def _banded(kind, declared, n, m, lo, hi, rng):
    agents = tuple(kind(int(v), m) for v in rng.integers(lo, hi + 1, size=n))
    return Instance(n=n, m=m, agents=agents, declared_class=declared)


def _instances(family, count):
    rng = np.random.default_rng([7, len(family)])
    for seed in range(count):
        n = int(rng.integers(2, 11))
        m = int(rng.integers(5, 160))
        if family == "threshold":
            # small thresholds rotate and hand out batches, large ones make
            # long runs of free items
            k_hi = int(rng.integers(0, m + 1))
            yield _banded(Threshold, "general", n, m, 0, k_hi, rng)
        elif family == "cardinality":
            cap_hi = int(rng.integers(0, m // 2 + 1))
            yield _banded(Cardinality, "cancelable", 2 * n, m, cap_hi // 3, cap_hi, rng)
        elif family == "partition_matroid":
            params = {"groups": int(rng.integers(1, m // 4 + 2))}
            yield generate(family, min(n, 6), m, seed, params=params)
        elif family == "table":
            yield generate(family, min(n, 4), int(rng.integers(2, 8)), seed)
        else:
            yield generate(family, n, m, seed)


def _report(inst, **kwargs):
    payload = solve_auto(inst, trace=True, **kwargs).to_json()
    return payload, payload["counters"].pop("evals")


@pytest.mark.parametrize(
    "family", ["threshold", "cardinality", "partition_matroid", "capped_additive", "table"]
)
def test_loops_match_the_reference(family, monkeypatch):
    for inst in _instances(family, 30):
        got, evals = _report(inst)
        assert _report(inst, debug=True) == (got, evals)
        with monkeypatch.context() as patch:
            for module, name, loop in REFERENCE_LOOPS:
                patch.setattr(module, name, loop)
            want, ref_evals = _report(inst)
        assert got == want, inst.metadata
        assert evals <= ref_evals, inst.metadata


def _random_graph(rng: random.Random) -> EnvyGraph:
    n = rng.randint(1, 9)
    density = rng.random()
    edges = frozenset(
        (i, j) for i in range(n) for j in range(n) if i != j and rng.random() < density
    )
    return EnvyGraph(n=n, edges=edges)


def test_scc_labels_decide_every_cycle_search():
    rng = random.Random(11)
    for _ in range(400):
        graph = _random_graph(rng)
        label = graph.components
        for i, j in graph.edges:
            on_cycle = find_cycle_through_edge(graph, i, j) is not None
            assert (label[i] == label[j]) == on_cycle
        assert tail_scc(graph) == reference_tail_scc(graph)


def _random_bundles(n, m, rng):
    owners = [rng.randrange(n + 1) for _ in range(m)]
    return [sum(1 << e for e in range(m) if owners[e] == i) for i in range(n)]


def test_tracked_rows_match_a_full_check():
    rng = random.Random(5)
    m = 6
    for _ in range(60):
        n = rng.randint(2, 4)
        funcs = [random_binary_table(m, rng) for _ in range(n)]
        matrix = CostMatrix(funcs, _random_bundles(n, m, rng))
        for _ in range(25):
            j = rng.randrange(n)
            others = full_set(m) & ~sum(b for k, b in enumerate(matrix.bundles) if k != j)
            move = rng.random()
            if move < 0.4 and others & ~matrix.bundles[j]:
                # grow by one free item, or by several
                free = list(iter_items(others & ~matrix.bundles[j]))
                grown = rng.sample(free, rng.randint(1, len(free)))
                bundle = matrix.bundles[j] | sum(1 << e for e in grown)
            else:
                # shrink or replace, so that prices may fall
                bundle = others & rng.getrandbits(m)
            matrix.update(j, bundle)
            full = CostMatrix(funcs, matrix.bundles).is_efx()
            assert matrix.is_efx(matrix.changed) == full
            if full:
                matrix.changed = 0


def test_unit_scan_finds_the_index_order_items():
    rng = random.Random(3)
    for _ in range(200):
        n, m = rng.randint(1, 5), rng.randint(1, 7)
        funcs = [random_binary_table(m, rng) for _ in range(n)]
        bases = _random_bundles(n, m, rng)
        pool = full_set(m) & ~sum(bases)
        want = [
            e for e in iter_items(pool)
            if all(fn.marginal(e, b) == 1 for fn, b in zip(funcs, bases))
        ]
        assert list(unit_to_all(OpCounter(), funcs, bases, pool)) == want
