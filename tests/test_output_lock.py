"""Output lock: solver outputs on fixed seeded sweeps must not change.

Each sweep hashes, for every instance, the solver's JSON report minus the
``evals`` counter: allocation, guarantee tag, all other counters and notes.
``evals`` is left out because it counts cost queries, which a refactor may
legitimately save; everything else is the solver's observable behaviour.
The instance sets are those of acceptance criteria 01, 03, 04 and 05, plus
one instance per generator family at the sizes the solve-large benchmark
workload uses, and two long solver loops in sweeps of their own.  A
changed digest means a change of behaviour, which must be deliberate and
explained before the recorded digest is replaced.
"""

import hashlib
import json

import numpy as np
import pytest

from chorefair.costs import Cardinality
from chorefair.instances import Instance, generate
from chorefair.solvers import (
    solve_additive,
    solve_auto,
    solve_cancelable,
    solve_general,
    solve_submodular,
)


def _acceptance_01():
    for i in range(500):
        yield generate("binary_additive", 2 + i % 4, 1 + i % 12, seed=i), solve_additive


def _acceptance_03():
    for i in range(500):
        family = "capped_additive" if i % 2 else "cardinality"
        yield generate(family, 2 + i % 3, 1 + i % 12, seed=i), solve_cancelable


def _acceptance_04():
    for i in range(500):
        family = "threshold" if i % 2 else "table"
        yield generate(family, 2 + i % 3, 1 + i % 12, seed=i), solve_general


def _acceptance_05():
    for i in range(300):
        yield generate("partition_matroid", 2 + i % 3, 1 + i % 12, seed=i), solve_submodular


STRESS = (
    ("binary_additive", 3, 400, None),
    ("capped_additive", 16, 400, None),
    ("cardinality", 20, 400, None),
    ("partition_matroid", 6, 140, {"groups": 25}),
    ("threshold", 8, 300, {"k": 20}),
)


def _stress():
    for family, n, m, params in STRESS:
        yield generate(family, n, m, seed=1, params=params), solve_auto


# Long solver loops, one instance each: a threshold envy loop that places
# long runs of free items, and a cardinality phase 2 with per-agent caps
# 6-16 that attaches many items per agent.
def _stress_threshold():
    yield generate("threshold", 10, 400, seed=1, params={"k": 100}), solve_auto


def _stress_cardinality():
    caps = np.random.default_rng(1).integers(6, 17, size=20)
    agents = tuple(Cardinality(cap=int(c), m=400) for c in caps)
    yield Instance(n=20, m=400, agents=agents, declared_class="cancelable"), solve_auto


SWEEPS = {
    "acceptance-01": (_acceptance_01, "34903851804bd6f0"),
    "acceptance-03": (_acceptance_03, "b94f9600c12c92d2"),
    "acceptance-04": (_acceptance_04, "14e39f9676800673"),
    "acceptance-05": (_acceptance_05, "80b2fee09c142a3b"),
    "stress": (_stress, "948d9d3ecfe28f88"),
    "stress-cardinality": (_stress_cardinality, "4e557950d7c9acbf"),
    "stress-threshold": (_stress_threshold, "30c27fef2dff89aa"),
}


def sweep_digest(sweep) -> str:
    h = hashlib.sha256()
    for inst, solver in sweep():
        payload = solver(inst).to_json()
        del payload["counters"]["evals"]
        h.update(json.dumps(payload, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_outputs_unchanged(name):
    sweep, expected = SWEEPS[name]
    assert sweep_digest(sweep) == expected
