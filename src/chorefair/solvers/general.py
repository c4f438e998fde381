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

from ..costs import _free_items as free_items
from ..costs import marginal
from ..errors import InternalInvariantError
from ..fairness import CostMatrix, find_cycle_through_edge, tail_scc
from ..instances import Instance
from ..itemset import ItemSet, full_set, iter_items, lowest, size
from ..reports import GuaranteeTag, SolveReport
from .common import OpCounter, Trace, check_items, ensure_class, finish


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
    out.  ``bundles`` and ``pool`` must be disjoint item sets of the
    instance's ground set; they are checked once here, and the loop asks
    its queries through ``ops`` unchecked.  ``debug`` re-checks
    envy-freeness and the maintained matrix against a fresh build after
    every iteration, and envy-freeness after every placement of a run.

    Each rule works only where something changed.  Rule 1 places an
    agent's whole run of free items at once: the lowest agent with one
    stays the lowest until she has none, as every lower agent's memo covers
    the pool, no other bundle moves and her price does not.  Each placement
    counts as an iteration and emits its event.  Rule 2 tries only the
    edges whose ends share a strongly connected component (labelled once
    per graph), exactly those on a cycle, and searches the cycle only for
    the edge that places an item.  The cost matrix behind the equality
    graph is updated only for the bundles an iteration changed; a grown
    bundle is priced for its owner, and for another agent only when the
    graph needs more than the entry's lower bound.

    A rule reads agent i's free items on bundle B as one set, charged as
    the paper's scan in index order asks them.  ``unit[(i, B)]`` holds the
    items whose marginal there is known to be 1, exact as bundles rotate
    and the pool shrinks; every scan skips them, and a free item is placed,
    changing the bundle, so each (agent, bundle, item) marginal is charged
    at most once.  The matrix keeps that promise: the memo's units and the
    placing agent's zero increase are handed to ``update``, and any other
    price it asks is of a bundle no rule has asked that agent about.

    A whole pool is certified unit with one price.  For a cost whose
    marginals are at most 1 (the class gate proves this of every agent), if
    c(B ∪ R) - c(B) = |R| for R disjoint from B, then every e in R has
    c(B + e) - c(B) = 1: put e first in the telescoping sum; each other
    term is at most 1, so e's term must be 1.  c_i(X_j) is read with
    ``matrix.price(i, j)``, asked then if the entry is stale.  The matrix
    is updated only at the end of an iteration, and a run leaves its
    agent's price as it was, so that is the price of the bundle the scan
    works on.  So after the first unit answer of a scan, when at least two
    unknown pool items remain, one query of their union either certifies
    them all (they join the memo and the scan ends empty) or fails; the
    returned item is the same either way.  ``debug`` replays every read
    item by item, uncounted, and re-asks every certified item.
    """
    ops = ops or OpCounter()
    tr = tr or Trace(False)
    counters = counters if counters is not None else {}
    for key in ("iterations", "zero_placements", "rotations", "batches"):
        counters.setdefault(key, 0)
    n, m = inst.n, inst.m
    check_items(m, [*bundles, pool])
    matrix = CostMatrix(inst.agents, bundles, ops)
    unit: dict[tuple[int, ItemSet], ItemSet] = {}

    def lowest_free(i: int, j: int, pool: ItemSet) -> int | None:
        """Lowest pool item free for agent i on bundle j (marginal 0), or None."""
        fn, bundle = inst.agents[i], bundles[j]
        known = unit.get((i, bundle), 0)
        ask = pool & ~known
        free = free_items(fn, bundle, ask)
        first, rest = ask & -ask, ask & (ask - 1)
        certified = bool(first & ~free) and size(rest) >= 2 and (
            ops.evaluate(fn, bundle | rest) == matrix.price(i, j) + size(rest)
        )
        free = 0 if certified else free & -free  # the scan stops at the lowest
        asked = first if certified else ask & (free - 1 | free)
        ops.charge(size(asked))
        if debug and _scan(fn, bundle, ask, certified) != (free, asked):
            raise InternalInvariantError(
                f"agent {i}'s free items on bundle {j}: the set-level read or its "
                "unit-pool certificate disagrees with the item-by-item scan"
            )
        unit[(i, bundle)] = known | (ask if certified else asked ^ free)
        return free.bit_length() - 1 if free else None

    while pool:
        counters["iterations"] += 1
        if counters["iterations"] > m + 1:
            raise InternalInvariantError(
                f"placement loop still running after {m + 1} iterations"
            )
        touched: list[int] = []
        known: dict[int, int] = {}
        for i in range(n):
            e = lowest_free(i, i, pool)
            while e is not None:
                bundles[i] |= 1 << e
                pool &= ~(1 << e)
                counters["zero_placements"] += 1
                tr.emit("zero-marginal", item=e, agent=i)
                if debug and CostMatrix(inst.agents, bundles).ef_violations(1):
                    raise InternalInvariantError(f"envy appeared placing item {e}")
                touched, known = [i], {i: 0}
                e = lowest_free(i, i, pool)
                if e is not None:
                    counters["iterations"] += 1
            if touched:
                break

        if not touched:
            # rule 1 reads no graph, so it is built only once rule 1 placed
            # nothing, from the matrix rule 1 left unchanged
            graph = matrix.graph()
            label = graph.components
            for i, j in sorted(graph.edges):
                if label[i] != label[j]:
                    continue
                e = lowest_free(i, j, pool)
                if e is not None:
                    cycle = find_cycle_through_edge(graph, i, j)
                    old = [bundles[v] for v in cycle]
                    for idx, u in enumerate(cycle):
                        bundles[u] = old[(idx + 1) % len(cycle)]
                    bundles[i] |= 1 << e
                    pool &= ~(1 << e)
                    counters["rotations"] += 1
                    tr.emit("rotate", cycle=cycle, item=e, agent=i)
                    touched = list(cycle)
                    break

        if not touched:
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
                    e = lowest_free(i, j, pool)
                    if e is not None:
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
            old = matrix.bundles[j]
            added = bundles[j] & ~old
            # the memo's units are the steps of a one-item growth only
            one = not added & (added - 1)
            steps = {k: 1 for k in range(n) if one and unit.get((k, old), 0) & added}
            matrix.update(j, bundles[j], steps | known)
        if debug:
            matrix.check_against_rebuild()
            viols = CostMatrix(inst.agents, bundles).ef_violations(1)
            if viols:
                raise InternalInvariantError(
                    f"envy appeared after iteration {counters['iterations']}: "
                    f"{viols[:3]}"
                )
    return pool


def _scan(fn, bundle: ItemSet, ask: ItemSet, certified: bool) -> tuple[int, ItemSet]:
    """``lowest_free`` replayed item by item, uncounted: its item's bit (-1
    if a passed certificate covers a non-unit item) and the items asked."""
    asked = 0
    for e in iter_items(ask):
        asked |= 1 << e
        if marginal(fn, e, bundle) == 0:
            return 1 << e, asked
        if certified:
            fooled = any(marginal(fn, r, bundle) != 1 for r in iter_items(ask ^ asked))
            return -1 if fooled else 0, asked
    return 0, asked


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
