"""Complete allocation for binary submodular chores: removal-stable, or
envy-free within a factor of 2.

Everything hinges on the items every agent prices at 1 on their own.  With
fewer such items than agents, the reshuffling placement loop used for
cancelable costs works directly on the original functions and produces a
removal-stable allocation.  Otherwise each agent is seeded one such item,
the envy-graph loop distributes what it can without creating envy, and the
at most n-1 leftovers go one per agent; every bundle then costs at least 1
from everywhere, so the single extra unit of cost stays within factor 2.
"""

from __future__ import annotations

from ..errors import InternalInvariantError
from ..fairness import CostMatrix
from ..instances import Instance
from ..itemset import ItemSet, full_set, iter_items, size
from ..reports import GuaranteeTag, SolveReport
from .cancelable import phase2
from .common import OpCounter, Trace, ensure_class, finish, unit_to_all
from .general import run_envy_loop


def compute_m1(inst: Instance) -> ItemSet:
    """Items every agent prices at 1 as a singleton."""
    ensure_class(inst, "general")
    return _compute_m1(inst, OpCounter())


def _compute_m1(inst: Instance, ops: OpCounter) -> ItemSet:
    return sum(1 << e for e in unit_to_all(ops, inst.agents, [0] * inst.n, full_set(inst.m)))


def solve_submodular(
    inst: Instance,
    *,
    debug: bool = False,
    trace: bool = False,
    verify: bool = False,
) -> SolveReport:
    """Complete allocation passing the factor-2 removal-stability check.

    Case 1 (fewer universally unit-cost items than agents) is additionally
    removal-stable outright; case 2 is envy-free within factor 2.  The
    emitted tag is confirmed by the corresponding checker on every run.
    """
    ensure_class(inst, "submodular")
    n, m = inst.n, inst.m
    ops = OpCounter()
    tr = Trace(trace)
    counters: dict[str, int] = {}
    m1 = _compute_m1(inst, ops)
    notes: tuple[str, ...]

    if size(m1) < n:
        counters["case"] = 1
        bundles = phase2(
            list(inst.agents), full_set(m), n, ops=ops, tr=tr, counters=counters, debug=debug
        )
        guarantee = GuaranteeTag.EFX
        notes = ("case 1: fewer universally unit-cost items than agents",)
    else:
        counters["case"] = 2
        seeds = []
        for e in iter_items(m1):
            seeds.append(e)
            if len(seeds) == n:
                break
        bundles = [1 << e for e in seeds]
        pool = full_set(m)
        for e in seeds:
            pool &= ~(1 << e)
        for k, e in enumerate(seeds):
            tr.emit("seed", item=e, agent=k)
        pool = run_envy_loop(
            inst, bundles, pool, ops=ops, tr=tr, counters=counters, debug=debug
        )
        leftovers = list(iter_items(pool))
        if len(leftovers) >= n:
            raise InternalInvariantError(
                f"{len(leftovers)} leftovers for {n} agents; expected at most n-1"
            )
        for k, e in enumerate(leftovers):
            bundles[k] |= 1 << e
            tr.emit("leftover", item=e, agent=k)
        matrix = CostMatrix(inst.agents, bundles, ops)
        for i, row in enumerate(matrix.cost):
            for j, price in enumerate(row):
                if price < 1:
                    raise InternalInvariantError(
                        f"agent {i} prices bundle {j} below 1 despite the "
                        "unit-cost seeding"
                    )
        for v in matrix.ef_violations(1):
            own = matrix.cost[v.i][v.i]
            other = matrix.cost[v.i][v.j]
            if own != other + 1:
                raise InternalInvariantError(
                    f"agent {v.i} envies {v.j} by {own - other}, expected "
                    "exactly the one leftover unit"
                )
        guarantee = GuaranteeTag.TWO_EF
        notes = ("case 2: every agent seeded one universally unit-cost item",)

    return finish(inst, "submodular", guarantee, bundles, ops, tr, counters, verify, notes)


__all__ = ["compute_m1", "solve_submodular"]
