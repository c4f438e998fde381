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
from itertools import islice

from ..costs import CostFunction, residual
from ..errors import InternalInvariantError, InvalidInputError
from ..fairness import CostMatrix
from ..instances import Instance
from ..itemset import ItemSet, full_set, iter_items, lowest, size
from ..reports import GuaranteeTag, SolveReport
from .common import OpCounter, Trace, check_items, ensure_class, finish, unit_to_all


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
        picked = list(islice(unit_to_all(ops, inst.agents, bundles, pool), n))
        if len(picked) < n:
            break
        rounds += 1
        for k, e in enumerate(picked):
            bundles[k] |= 1 << e
            pool &= ~(1 << e)
            tr.emit("base-placement", round=rounds, item=e, agent=k)
    w = size(bundles[0])
    prices = CostMatrix(inst.agents, bundles, ops).cost
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
    debug: bool = False,
) -> list[ItemSet]:
    """Allocate ``remaining`` under the per-agent cost views.

    ``remaining`` must lie in every view's ground set; it is checked once
    here, and the loop asks its queries through ``ops`` unchecked.
    Requires fewer than n items that every view prices at 1; those seed the
    first bundles.  Each iteration then either attaches the lowest
    unallocated item somewhere for free (when removal stability survives
    the attachment), or reshuffles: an agent with a free bundle absorbs
    another bundle she prices at zero and the orphaned slot restarts with
    the item, or two bundles swap.  After every iteration each view prices
    its own bundle at most 1 and the bundles are removal-stable under the
    views; both facts are re-checked every iteration and any failure
    aborts, flagging an input outside the supported classes.  The re-check
    reads only the rows ``CostMatrix.changed`` marks, which gives the full
    check's verdict as the previous iteration's check passed.  ``debug``
    also compares that verdict with a full check, and the maintained cost
    matrix, worst drops included, with a fresh build, every iteration.

    A free attachment is decided from agent i's matrix row alone: attaching
    an item of zero marginal to X_i keeps removal stability iff
    c_i(X_i) <= c_i(X_k) for every k != i.  The premises are monotone
    views and a removal-stable matrix on entry to the iteration (the seeds
    are singletons, and stability is re-checked at the end of every
    iteration).  No other agent's bundle, price or worst drop changes, and
    the bundle X_i they compare against only gets dearer; agent i keeps her
    price, and her worst drop becomes that price (drop the new item to get
    it back; monotonicity caps every other drop).  So the bundle is
    re-priced only when the attachment is accepted, and the owner's zero is
    handed to the matrix rather than asked again (a take likewise hands
    over the owner's step the attach scan asked).  ``debug`` compares
    every decision, accepted or refused, with an uncounted fresh check of
    the attached allocation.
    """
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
        rows, matrix.changed = matrix.changed, 0
        for i in iter_items(rows):
            if cost[i][i] > 1:
                raise InternalInvariantError(
                    f"agent {i}'s residual bundle cost reached {cost[i][i]} after "
                    f"iteration {counters['iterations']}"
                )
        stable = matrix.is_efx(rows)
        if debug and CostMatrix(views, bundles).is_efx() != stable:
            raise InternalInvariantError("the changed rows and a full check disagree")
        if not stable:
            raise InternalInvariantError(
                f"removal stability under the residual views broke after "
                f"iteration {counters['iterations']}"
            )
        if debug:
            matrix.check_against_rebuild()
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
    run.  The per-iteration invariants of phase 2 are always on because
    they double as the runtime guard against mis-declared inputs;
    ``debug`` adds phase 2's cost-matrix cross-check.
    """
    ensure_class(inst, "cancelable")
    ops = OpCounter()
    tr = Trace(trace)
    p1 = phase1(inst, ops=ops, tr=tr)
    views = [
        residual(fn, base) if base else fn
        for fn, base in zip(inst.agents, p1.base_bundles)
    ]
    counters: dict[str, int] = {"phase1_rounds": p1.w}
    extras = phase2(
        views, p1.remaining, inst.n, ops=ops, tr=tr, counters=counters, debug=debug
    )
    bundles = [a | b for a, b in zip(p1.base_bundles, extras)]
    return finish(inst, "cancelable", GuaranteeTag.EFX, bundles, ops, tr, counters, verify)


__all__ = ["Phase1Result", "phase1", "phase2", "solve_cancelable"]
