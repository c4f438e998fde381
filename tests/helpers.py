"""Construction helpers and structural property verifiers shared by unit
and acceptance tests.

The two verifiers at the bottom check consequences of class membership
exhaustively over the value table, by a route independent of the library's
own class checkers: equal-valued sets stay equal-valued under common
extensions (cancelable), and the lattice inequality plus unit-cost
reduction to a singleton (binary submodular).
"""

from __future__ import annotations

import random

import numpy as np

from chorefair.costs import CostFunction, Table, Witness, marginal, value_table
from chorefair.errors import InternalInvariantError, InvalidInputError
from chorefair.fairness import CostMatrix, EnvyGraph, _closure, find_cycle_through_edge
from chorefair.instances import Instance
from chorefair.itemset import ItemSet, iter_items, lowest, size
from chorefair.solvers import cancelable, general, submodular
from chorefair.solvers.common import OpCounter, Trace, check_items, unit_to_all


def cap7_pair() -> Instance:
    """Two min(|S|, 7) tables on 13 items, declared additive although they
    are not: past the exhaustive class gate, and a 7/6 split of them meets
    the additive social-cost floor without being Pareto-optimal."""
    cap7 = Table(m=13, values=tuple(min(s.bit_count(), 7) for s in range(1 << 13)))
    return Instance(n=2, m=13, agents=(cap7, cap7), declared_class="additive")


def random_binary_table(m: int, rng: random.Random) -> Table:
    """Monotone table with all marginals in {0, 1}.

    Every value sits between the max of its one-removals (monotone) and
    their min plus one (unit steps), chosen at random.
    """
    vals = [0] * (1 << m)
    for mask in range(1, 1 << m):
        subs = [vals[mask ^ (1 << e)] for e in iter_items(mask)]
        lo, hi = max(subs), min(subs) + 1
        vals[mask] = rng.choice((lo, hi)) if hi >= lo else lo
    return Table(m=m, values=tuple(vals))


def random_monotone_table(m: int, rng: random.Random, steps=(0, 1, 2)) -> Table:
    """Monotone table whose marginals may exceed 1."""
    vals = [0] * (1 << m)
    for mask in range(1, 1 << m):
        base = max(vals[mask ^ (1 << e)] for e in iter_items(mask))
        vals[mask] = base + rng.choice(steps)
    return Table(m=m, values=tuple(vals))


def _grouped_extension_mismatch(values, masks, extension):
    """First pair of equal-valued masks whose extensions disagree, if any.

    ``masks`` must be disjoint from ``extension``.
    """
    base = values[masks]
    ext = values[masks | extension]
    order = np.argsort(base, kind="stable")
    base, ext, masks = base[order], ext[order], masks[order]
    same = base[1:] == base[:-1]
    bad = np.nonzero(same & (ext[1:] != ext[:-1]))[0]
    if bad.size == 0:
        return None
    k = int(bad[0])
    return int(masks[k]), int(masks[k + 1])


def equal_sets_extend_equally(fn: CostFunction):
    """Exhaustively verify the two closure laws of cancelable costs.

    Whenever two sets cost the same, adding one common outside item, or
    any common outside set, must keep them costing the same.  Returns
    ``None`` when both laws hold, else ("item"|"set", S, T, extension).
    """
    values = value_table(fn)
    all_masks = np.arange(1 << fn.m, dtype=np.int64)
    for e in range(fn.m):
        bit = 1 << e
        masks = all_masks[(all_masks & bit) == 0]
        hit = _grouped_extension_mismatch(values, masks, bit)
        if hit is not None:
            return ("item", hit[0], hit[1], bit)
    for ext in range(1, 1 << fn.m):
        masks = all_masks[(all_masks & ext) == 0]
        hit = _grouped_extension_mismatch(values, masks, ext)
        if hit is not None:
            return ("set", hit[0], hit[1], int(ext))
    return None


def submodular_lattice_holds(fn: CostFunction):
    """Exhaustively verify the two marks of binary submodular costs.

    The lattice inequality v(S) + v(T) >= v(S|T) + v(S&T) over all pairs,
    and for every unit-cost set of size two or more, some single removal
    that keeps the cost at one.  Returns ``None`` when both hold, else
    ("lattice", S, T) or ("reduction", S).
    """
    values = value_table(fn)
    all_masks = np.arange(1 << fn.m, dtype=np.int64)
    for s in range(1 << fn.m):
        lhs = values[s] + values
        rhs = values[s | all_masks] + values[s & all_masks]
        bad = np.nonzero(lhs < rhs)[0]
        if bad.size:
            return ("lattice", s, int(bad[0]))
    for s in range(1 << fn.m):
        if values[s] == 1 and s.bit_count() >= 2:
            if all(values[s ^ (1 << e)] != 1 for e in iter_items(s)):
                return ("reduction", s)
    return None


# ---------------------------------------------------------------------------
# Reference class kernels: the mask-and-gather loops the library's strided
# kernels replaced, kept verbatim so the property tests can compare verdicts
# and witness triples on arbitrary value arrays.
# ---------------------------------------------------------------------------


def gather_check_marginals(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> tuple[bool, bool]:
    idx = np.arange(1 << m, dtype=np.int64)
    binary = monotone = True
    for e in range(m):
        bit = 1 << e
        lo = idx[(idx & bit) == 0]
        marg = v[lo | bit] - v[lo]
        if monotone:
            bad = marg < 0
            if bad.any():
                s = int(lo[int(np.argmax(bad))])
                witnesses["monotone"] = (s, s | bit, e)
                monotone = False
        if binary:
            bad = (marg < 0) | (marg > 1)
            if bad.any():
                s = int(lo[int(np.argmax(bad))])
                witnesses["binary_marginal"] = (s, s | bit, e)
                binary = False
        if not binary and not monotone:
            break
    return binary, monotone


def gather_check_cancelable(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> bool:
    """Look for S, T, e with c(S) <= c(T) but c(S+e) > c(T+e).

    For each e, masks avoiding e are sorted by base value; a violation
    exists iff some group's after-adding-e values are not constant over
    equal base values, or the running maximum over strictly smaller base
    values exceeds a later group's minimum.  This covers arbitrary integer
    values, not just binary marginals.
    """
    idx = np.arange(1 << m, dtype=np.int64)
    for e in range(m):
        bit = 1 << e
        lo = idx[(idx & bit) == 0]
        base = v[lo]
        after = v[lo | bit]
        order = np.argsort(base, kind="stable")
        sb, sa = base[order], after[order]
        starts = np.flatnonzero(np.r_[True, sb[1:] != sb[:-1]])
        gmax = np.maximum.reduceat(sa, starts)
        gmin = np.minimum.reduceat(sa, starts)
        prev_max = np.r_[np.int64(np.iinfo(np.int64).min), np.maximum.accumulate(gmax)[:-1]]
        viol = (gmax > gmin) | (prev_max > gmin)
        if not viol.any():
            continue
        g = int(np.argmax(viol))
        ends = np.r_[starts[1:], len(sa)]
        lo_sorted = lo[order]
        t_pos = starts[g] + int(np.argmin(sa[starts[g]:ends[g]]))
        t_mask = int(lo_sorted[t_pos])
        limit = int(sa[t_pos])
        # any earlier-or-equal base value whose after-value beats T's works
        s_candidates = np.flatnonzero(sa[: ends[g]] > limit)
        s_pos = int(s_candidates[0])
        s_mask = int(lo_sorted[s_pos])
        witnesses["cancelable"] = (s_mask, t_mask, e)
        return False
    return True


def gather_check_submodular(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> bool:
    # Pairwise local condition: c(e | S) >= c(e | S + f) for all S, e != f
    # outside S.  This is equivalent to diminishing marginals over nested
    # sets by induction along a chain from S to T.
    idx = np.arange(1 << m, dtype=np.int64)
    for e in range(m):
        be = 1 << e
        for f in range(e + 1, m):
            bf = 1 << f
            base = idx[(idx & (be | bf)) == 0]
            lhs = v[base | be] + v[base | bf]
            rhs = v[base | be | bf] + v[base]
            bad = lhs < rhs
            if bad.any():
                s = int(base[int(np.argmax(bad))])
                # adding f enlarged e's marginal (or vice versa)
                if v[s | be] - v[s] < v[s | be | bf] - v[s | bf]:
                    witnesses["submodular"] = (s, s | bf, e)
                else:
                    witnesses["submodular"] = (s, s | be, f)
                return False
    return True


# ---------------------------------------------------------------------------
# Reference solver loops, kept verbatim: the envy loop that places one
# zero-marginal item per iteration and searches a cycle for every equality
# edge, and phase 2 with its full removal-stability re-check after every
# iteration.  Phase 2's unit-item scan alone goes through the library's
# ``unit_to_all``, whose asking order the reference does not pin, so that
# the two query counts differ by the loops' work only.  ``REFERENCE_LOOPS``
# names where each one replaces the library's, so a test can run any solver
# on them and compare its report with the library's.
# ---------------------------------------------------------------------------


def reference_phase2(
    views: list[CostFunction] | tuple[CostFunction, ...],
    remaining: ItemSet,
    n: int,
    *,
    ops: OpCounter | None = None,
    tr: Trace | None = None,
    counters: dict[str, int] | None = None,
    debug: bool = False,
) -> list[ItemSet]:
    """``phase2`` with a full removal-stability re-check every iteration."""
    ops = ops or OpCounter()
    tr = tr or Trace(False)
    counters = counters if counters is not None else {}
    for key in ("iterations", "adds", "merges", "takes", "swaps"):
        counters.setdefault(key, 0)
    if len(views) != n:
        raise InvalidInputError(f"{len(views)} cost views for n={n} agents")
    for v in views:
        check_items(v.m, [remaining])
    m_total = max((v.m for v in views), default=0)

    unit_items = list(unit_to_all(ops, views, [0] * n, remaining))
    if len(unit_items) >= n:
        raise InternalInvariantError(
            f"{len(unit_items)} universally unit-cost items for {n} agents; the "
            "preceding batching phase should have absorbed them"
        )
    bundles = [0] * n
    pool = remaining
    for k, e in enumerate(unit_items):
        bundles[k] = 1 << e
        pool &= ~(1 << e)
        tr.emit("seed", item=e, agent=k)
    matrix = CostMatrix(views, bundles, ops)
    # both lists are kept current in place by matrix.update
    bundles, cost = matrix.bundles, matrix.cost

    while pool:
        counters["iterations"] += 1
        if counters["iterations"] > 2 * m_total:
            raise InternalInvariantError(
                f"no progress after {counters['iterations'] - 1} iterations "
                f"(bound 2m = {2 * m_total}); the input is outside the "
                "supported classes"
            )
        e = lowest(pool)
        placed = False
        steps = []
        for i, v in enumerate(views):
            steps.append(ops.marginal(v, e, bundles[i]))
            if steps[i] == 0:
                placed = matrix.envies_nobody(i)
                if debug:
                    trial = list(bundles)
                    trial[i] |= 1 << e
                    if CostMatrix(views, trial).is_efx() != placed:
                        raise InternalInvariantError(
                            f"attaching item {e} to agent {i}'s bundle: the row "
                            f"decided {placed}, a fresh removal-stability check "
                            "disagrees"
                        )
                if placed:
                    matrix.update(i, bundles[i] | 1 << e, {i: 0})
                    pool &= ~(1 << e)
                    counters["adds"] += 1
                    tr.emit("add", item=e, agent=i)
                    break
        if not placed:
            i = next((i for i in range(n) if cost[i][i] == 0), None)
            if i is not None:
                j = next((j for j in range(n) if j != i and cost[i][j] == 0), None)
                if j is not None:
                    matrix.update(i, bundles[i] | bundles[j])
                    matrix.update(j, 1 << e)
                    pool &= ~(1 << e)
                    counters["merges"] += 1
                    tr.emit("merge", item=e, agent=i, absorbed=j)
                else:
                    matrix.update(i, bundles[i] | 1 << e, {i: steps[i]})
                    pool &= ~(1 << e)
                    counters["takes"] += 1
                    tr.emit("take", item=e, agent=i)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(n)
                        for j in range(n)
                        if j != i and cost[i][j] == 0
                    ),
                    None,
                )
                if pair is None:
                    raise InternalInvariantError(
                        "no agent prices any bundle at zero; the input is "
                        "outside the supported classes"
                    )
                i, j = pair
                bi, bj = bundles[i], bundles[j]
                matrix.update(i, bj)
                matrix.update(j, bi)
                counters["swaps"] += 1
                tr.emit("swap", agents=[i, j])
        for i in range(n):
            if cost[i][i] > 1:
                raise InternalInvariantError(
                    f"agent {i}'s residual bundle cost reached {cost[i][i]} after "
                    f"iteration {counters['iterations']}"
                )
        if not matrix.is_efx():
            raise InternalInvariantError(
                f"removal stability under the residual views broke after "
                f"iteration {counters['iterations']}"
            )
        if debug:
            matrix.check_against_rebuild()
    return bundles


def reference_run_envy_loop(
    inst: Instance,
    bundles: list[ItemSet],
    pool: ItemSet,
    *,
    ops: OpCounter | None = None,
    tr: Trace | None = None,
    counters: dict[str, int] | None = None,
    debug: bool = False,
) -> ItemSet:
    """``run_envy_loop`` placing one zero-marginal item per iteration and
    searching a cycle for every equality edge."""
    ops = ops or OpCounter()
    tr = tr or Trace(False)
    counters = counters if counters is not None else {}
    for key in ("iterations", "zero_placements", "rotations", "batches"):
        counters.setdefault(key, 0)
    n, m = inst.n, inst.m
    check_items(m, [*bundles, pool])
    matrix = CostMatrix(inst.agents, bundles, ops)
    unit: dict[tuple[int, ItemSet], ItemSet] = {}

    def lowest_free(i: int, j: int, pool: ItemSet, zero_only: bool = True) -> int | None:
        """Lowest pool item free for agent i on bundle j (marginal 0; with
        ``zero_only`` off, any marginal but 1), or None."""
        fn, bundle = inst.agents[i], bundles[j]
        key = (i, bundle)
        known = unit.get(key, 0)
        found = None
        first = True
        for e in iter_items(pool & ~known):
            step = ops.marginal(fn, e, bundle)
            if step == 1:
                known |= 1 << e
                if first:
                    first = False
                    rest = pool & ~known
                    count = size(rest)
                    if count >= 2 and ops.evaluate(fn, bundle | rest) == matrix.cost[i][j] + count:
                        if debug and any(marginal(fn, r, bundle) != 1 for r in iter_items(rest)):
                            raise InternalInvariantError(
                                f"agent {i}'s unit-pool certificate on bundle {j} "
                                "covers an item whose marginal is not 1"
                            )
                        known |= rest
                        break
            elif step == 0 or not zero_only:
                found = e
                break
        unit[key] = known
        return found

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
            if e is not None:
                bundles[i] |= 1 << e
                pool &= ~(1 << e)
                counters["zero_placements"] += 1
                tr.emit("zero-marginal", item=e, agent=i)
                touched = [i]
                known[i] = 0
                break

        if not touched:
            # rule 1 reads no graph, so it is built only once rule 1 placed
            # nothing, from the matrix rule 1 left unchanged
            graph = matrix.graph()
            for i, j in sorted(graph.edges):
                cycle = find_cycle_through_edge(graph, i, j)
                if cycle is None:
                    continue
                e = lowest_free(i, j, pool)
                if e is not None:
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
            component = sorted(reference_tail_scc(graph))
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
                    e = lowest_free(i, j, pool, zero_only=False)
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
            steps = {k: 1 for k in range(n) if unit.get((k, old), 0) & bundles[j]}
            matrix.update(j, bundles[j], steps | known)
        if debug:
            matrix.check_against_rebuild()
            viols = matrix.ef_violations(1)
            if viols:
                raise InternalInvariantError(
                    f"envy appeared after iteration {counters['iterations']}: "
                    f"{viols[:3]}"
                )
    return pool


def reference_tail_scc(graph: EnvyGraph) -> frozenset[int]:
    """``tail_scc`` from reachability closures, with no component labels."""
    succ = [0] * graph.n
    pred = [0] * graph.n
    for i, j in graph.edges:
        succ[i] |= 1 << j
        pred[j] |= 1 << i
    for v in range(graph.n):
        ahead = _closure(succ, v)
        if not ahead & ~_closure(pred, v):
            return frozenset(iter_items(ahead))
    raise InvalidInputError("an envy graph without agents has no component")


REFERENCE_LOOPS = (
    (cancelable, "phase2", reference_phase2),
    (submodular, "phase2", reference_phase2),
    (submodular, "run_envy_loop", reference_run_envy_loop),
    (general, "run_envy_loop", reference_run_envy_loop),
)
