"""Removal-stable allocation of chores with binary-marginal cancelable costs.

Phase 1 repeatedly hands out batches of n items that every agent would pay
1 for on top of her current pile, one item per agent, leaving every agent
with the same base size w and (for cancelable costs) the same view of
everyone's base.  Phase 2 places the leftovers under the residual costs,
growing, merging, swapping or extending bundles so that nobody's residual
cost ever exceeds 1 and removal stability is preserved step by step.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..costs import CostFunction, residual
from ..errors import InternalInvariantError, InvalidInputError
from ..fairness import CostMatrix
from ..instances import Instance
from ..itemset import ItemSet, full_set, iter_items, lowest, size
from ..reports import GuaranteeTag, SolveReport
from .common import OpCounter, Trace, ensure_class, finish


@dataclass(frozen=True)
class Phase1Result:
    """Equal-size base bundles plus the items still unallocated."""

    base_bundles: tuple[ItemSet, ...]
    w: int
    remaining: ItemSet


def phase1(
    inst: Instance,
    *,
    ops: OpCounter | None = None,
    tr: Trace | None = None,
) -> Phase1Result:
    """Batch out unit-marginal items until fewer than n of them remain.

    Per round, items are scanned in index order and the first n items whose
    marginal cost is 1 to every agent (against that agent's current base)
    are collected; the k-th collected item goes to agent k.  After the loop
    every agent must price every base bundle at exactly w, the common size;
    a mismatch means the input was not cancelable and aborts the run.
    """
    ops = ops or OpCounter()
    tr = tr or Trace(False)
    n = inst.n
    bundles = [0] * n
    pool = full_set(inst.m)
    rounds = 0
    while True:
        picked: list[int] = []
        for e in iter_items(pool):
            if all(
                ops.marginal(fn, e, bundles[i]) == 1 for i, fn in enumerate(inst.agents)
            ):
                picked.append(e)
                if len(picked) == n:
                    break
        if len(picked) < n:
            break
        rounds += 1
        for k, e in enumerate(picked):
            bundles[k] |= 1 << e
            pool &= ~(1 << e)
            tr.emit("base-placement", round=rounds, item=e, agent=k)
    w = size(bundles[0])
    prices = CostMatrix(inst.agents, bundles, ops.evaluate).cost
    for i, row in enumerate(prices):
        for j, got in enumerate(row):
            if got != w:
                raise InternalInvariantError(
                    f"agent {i} prices base bundle {j} at {got}, expected the "
                    f"common size {w}; the input is not cancelable"
                )
    return Phase1Result(base_bundles=tuple(bundles), w=w, remaining=pool)


def phase2(
    views: list[CostFunction] | tuple[CostFunction, ...],
    remaining: ItemSet,
    n: int,
    *,
    ops: OpCounter | None = None,
    tr: Trace | None = None,
    counters: dict[str, int] | None = None,
) -> list[ItemSet]:
    """Allocate ``remaining`` under the per-agent cost views.

    Requires fewer than n items that every view prices at 1; those seed the
    first bundles.  Each iteration then either attaches the lowest
    unallocated item somewhere for free (when removal stability survives
    the attachment), or reshuffles: an agent with a free bundle absorbs
    another bundle she prices at zero and the orphaned slot restarts with
    the item, or two bundles swap.  After every iteration each view prices
    its own bundle at most 1 and the bundles are removal-stable under the
    views; both facts are re-checked every iteration and any failure
    aborts, flagging an input outside the supported classes.
    """
    ops = ops or OpCounter()
    tr = tr or Trace(False)
    counters = counters if counters is not None else {}
    for key in ("iterations", "adds", "merges", "takes", "swaps"):
        counters.setdefault(key, 0)
    if len(views) != n:
        raise InvalidInputError(f"{len(views)} cost views for n={n} agents")
    m_total = max((v.m for v in views), default=0)

    unit_items = [
        e for e in iter_items(remaining) if all(ops.evaluate(v, 1 << e) == 1 for v in views)
    ]
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
    matrix = CostMatrix(views, bundles, ops.evaluate)
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
        for i, v in enumerate(views):
            if ops.marginal(v, e, bundles[i]) == 0:
                old = bundles[i]
                matrix.update(i, old | 1 << e)
                if matrix.is_efx():
                    pool &= ~(1 << e)
                    placed = True
                    counters["adds"] += 1
                    tr.emit("add", item=e, agent=i)
                    break
                matrix.update(i, old)
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
                    matrix.update(i, bundles[i] | 1 << e)
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
    return bundles


def solve_cancelable(
    inst: Instance,
    *,
    debug: bool = False,
    trace: bool = False,
    verify: bool = False,
) -> SolveReport:
    """Complete removal-stable allocation for a declared-cancelable instance.

    The output is re-checked against the original cost functions on every
    run.  ``debug`` is accepted for interface symmetry; the per-iteration
    invariants are always on because they double as the runtime guard
    against mis-declared inputs.
    """
    del debug
    ensure_class(inst, "cancelable")
    ops = OpCounter()
    tr = Trace(trace)
    p1 = phase1(inst, ops=ops, tr=tr)
    views = [
        residual(fn, base) if base else fn
        for fn, base in zip(inst.agents, p1.base_bundles)
    ]
    counters: dict[str, int] = {"phase1_rounds": p1.w}
    extras = phase2(views, p1.remaining, inst.n, ops=ops, tr=tr, counters=counters)
    bundles = [a | b for a, b in zip(p1.base_bundles, extras)]
    return finish(inst, "cancelable", GuaranteeTag.EFX, bundles, ops, tr, counters, verify)


__all__ = ["Phase1Result", "phase1", "phase2", "solve_cancelable"]
