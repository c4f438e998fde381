"""Partial envy-free allocation for arbitrary binary-marginal costs.

The loop maintains an envy-free partial allocation and a directed graph on
agents with an edge (i, j) whenever i prices her own bundle and j's bundle
equally, i.e. i is one unit short of envying j.  Each iteration places an
item with zero marginal cost to its receiver's bundle, either directly or
after rotating bundles along an equality cycle, and otherwise hands one
item to every member of an equality component nobody is short against.
When that component outnumbers the unallocated items the loop stops,
leaving at most n-1 items over.
"""

from __future__ import annotations

from ..errors import InternalInvariantError
from ..fairness import CostMatrix, find_cycle_through_edge, tail_scc
from ..instances import Instance
from ..itemset import ItemSet, full_set, iter_items, lowest, size
from ..reports import GuaranteeTag, SolveReport
from .common import OpCounter, Trace, ensure_class, finish


def run_envy_loop(
    inst: Instance,
    bundles: list[ItemSet],
    pool: ItemSet,
    *,
    ops: OpCounter | None = None,
    tr: Trace | None = None,
    counters: dict[str, int] | None = None,
    debug: bool = False,
) -> ItemSet:
    """Drive the placement loop from a given envy-free partial state.

    Mutates ``bundles`` in place and returns the final unallocated pool.
    Rule order per iteration: zero-marginal placement (lowest (agent, item)
    pair), cycle rotation (edges in lexicographic order, items in index
    order, shortest cycle), then the batch hand-out to the equality
    component containing the lowest agent, or termination when items run
    out.  The cost matrix behind the equality graph is re-priced only for
    the bundles an iteration changed.  ``debug`` re-checks envy-freeness
    and the maintained matrix against a fresh build after every iteration.
    """
    ops = ops or OpCounter()
    tr = tr or Trace(False)
    counters = counters if counters is not None else {}
    for key in ("iterations", "zero_placements", "rotations", "batches"):
        counters.setdefault(key, 0)
    n, m = inst.n, inst.m
    matrix = CostMatrix(inst.agents, bundles, ops.evaluate)

    while pool:
        counters["iterations"] += 1
        if counters["iterations"] > m + 1:
            raise InternalInvariantError(
                f"placement loop still running after {m + 1} iterations"
            )
        graph = matrix.graph()

        touched: list[int] = []
        fired = False
        for i, fn in enumerate(inst.agents):
            for e in iter_items(pool):
                if ops.marginal(fn, e, bundles[i]) == 0:
                    bundles[i] |= 1 << e
                    pool &= ~(1 << e)
                    counters["zero_placements"] += 1
                    tr.emit("zero-marginal", item=e, agent=i)
                    touched = [i]
                    fired = True
                    break
            if fired:
                break

        if not fired:
            for i, j in sorted(graph.edges):
                cycle = find_cycle_through_edge(graph, i, j)
                if cycle is None:
                    continue
                for e in iter_items(pool):
                    if ops.marginal(inst.agents[i], e, bundles[j]) == 0:
                        old = [bundles[v] for v in cycle]
                        for idx, u in enumerate(cycle):
                            bundles[u] = old[(idx + 1) % len(cycle)]
                        bundles[i] |= 1 << e
                        pool &= ~(1 << e)
                        counters["rotations"] += 1
                        tr.emit("rotate", cycle=cycle, item=e, agent=i)
                        touched = list(cycle)
                        fired = True
                        break
                if fired:
                    break

        if not fired:
            component = sorted(tail_scc(graph))
            if size(pool) < len(component):
                tr.emit("stop", unallocated=list(iter_items(pool)), component=component)
                break
            # with the first two rules exhausted, every member prices every
            # unallocated item at full cost in her own bundle and in any
            # bundle she is about to envy
            for i in component:
                for j in component:
                    if i != j and not graph.has_edge(i, j):
                        continue
                    for e in iter_items(pool):
                        if ops.marginal(inst.agents[i], e, bundles[j]) != 1:
                            raise InternalInvariantError(
                                f"batch hand-out while item {e} is still free "
                                f"for agent {i} on bundle {j}"
                            )
            for i in component:
                e = lowest(pool)
                bundles[i] |= 1 << e
                pool &= ~(1 << e)
                tr.emit("batch-placement", item=e, agent=i)
            counters["batches"] += 1
            touched = component

        for j in touched:
            matrix.update(j, bundles[j])
        if debug:
            matrix.check_against_rebuild()
            viols = matrix.ef_violations(1)
            if viols:
                raise InternalInvariantError(
                    f"envy appeared after iteration {counters['iterations']}: "
                    f"{viols[:3]}"
                )
    return pool


def solve_general(
    inst: Instance,
    *,
    debug: bool = False,
    trace: bool = False,
    verify: bool = False,
) -> SolveReport:
    """Envy-free allocation leaving at most n-1 items unallocated."""
    ensure_class(inst, "general")
    ops = OpCounter()
    tr = Trace(trace)
    counters: dict[str, int] = {}
    bundles = [0] * inst.n
    pool = run_envy_loop(
        inst,
        bundles,
        full_set(inst.m),
        ops=ops,
        tr=tr,
        counters=counters,
        debug=debug,
    )
    notes = () if pool else ("allocation is complete, nothing was left over",)
    return finish(
        inst, "general", GuaranteeTag.PARTIAL_EF, bundles, ops, tr, counters, verify, notes
    )


__all__ = ["run_envy_loop", "solve_general"]
