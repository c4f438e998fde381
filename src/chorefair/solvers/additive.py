"""Removal-stable and Pareto-optimal allocation of binary additive chores.

Items somebody can take for free go to such an agent first; the items
costing 1 to everybody are then handed out one per round to a currently
cheapest agent.  When that placement breaks removal stability against some
rival, the two bundles provably have equal own cost, so the item moves to
the rival instead and any of the rival's items that are free for the
cheapest agent move back.  The result costs exactly one per universally
costly item, which no complete allocation can beat.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InternalInvariantError
from ..fairness import CostMatrix
from ..instances import Instance
from ..itemset import ItemSet, full_set, iter_items
from ..reports import GuaranteeTag, SolveReport
from .common import OpCounter, Trace, ensure_class, finish


@dataclass(frozen=True)
class ItemPartition:
    """Ground set split by singleton costs.

    ``m_zero`` holds items at least one agent can take for free, ``m_plus``
    the items costing 1 to every agent.
    """

    m_zero: ItemSet
    m_plus: ItemSet


def partition_items(inst: Instance) -> ItemPartition:
    """Split the items of a binary additive instance by singleton cost."""
    ensure_class(inst, "additive")
    return _partition(inst, OpCounter())[0]


def _partition(inst: Instance, ops: OpCounter) -> tuple[ItemPartition, dict[int, int]]:
    """The split, plus each free item's lowest-index zero-cost agent."""
    holder: dict[int, int] = {}
    for e in range(inst.m):
        i = next((i for i, fn in enumerate(inst.agents) if ops.marginal(fn, e, 0) == 0), None)
        if i is not None:
            holder[e] = i
    zero = sum(1 << e for e in holder)
    return ItemPartition(m_zero=zero, m_plus=full_set(inst.m) & ~zero), holder


def solve_additive(
    inst: Instance,
    *,
    debug: bool = False,
    trace: bool = False,
    verify: bool = False,
) -> SolveReport:
    """Complete allocation that is removal-stable and Pareto-optimal.

    Deterministic tie-breaks throughout: free items go to the lowest-index
    zero-cost agent, rounds pick the lowest-index unallocated costly item
    and the lowest-index cheapest agent, and reassignment targets the
    lowest-index rival that witnesses the break.  Each free item goes to
    the zero-cost agent the split found, with no second query.

    The worst drop after a placement costs no query: the free placement and
    the pull-back leave every item either costly for everyone or free for
    its holder, so it is the placing agent's price, less 1 unless her
    bundle meets ``m_zero``.  ``debug`` re-checks the maintained cost matrix
    and that derived drop against uncounted fresh queries after every
    placement, and removal stability and the matrix after every round.
    """
    ensure_class(inst, "additive")
    n = inst.n
    ops = OpCounter()
    tr = Trace(trace)
    part, holder = _partition(inst, ops)
    bundles = [0] * n
    counters = {"rounds": 0, "reassignments": 0, "dragged_items": 0}

    for e, i in holder.items():
        bundles[i] |= 1 << e
        tr.emit("free-placement", item=e, agent=i)

    matrix = CostMatrix(inst.agents, bundles, ops)
    for e in iter_items(part.m_plus):
        counters["rounds"] += 1
        i_star = min(range(n), key=lambda i: matrix.cost[i][i])
        cost_before = matrix.cost[i_star][i_star]
        matrix.update(i_star, matrix.bundles[i_star] | 1 << e)
        tr.emit("place", round=counters["rounds"], item=e, agent=i_star)

        fi = inst.agents[i_star]
        # every item of m_zero a bundle holds is free for its holder (the
        # free placement and the pull-back keep it so) and every other item
        # costs 1, so the worst drop gives up a free item if there is one
        price = matrix.cost[i_star][i_star]
        worst_drop = price if matrix.bundles[i_star] & part.m_zero else price - 1
        if debug:
            matrix.check_against_rebuild()
            if worst_drop != CostMatrix(inst.agents, matrix.bundles).worst_drop(i_star):
                raise InternalInvariantError(
                    f"derived worst drop {worst_drop} of agent {i_star} in round "
                    f"{counters['rounds']} differs from a fresh query"
                )
        rivals = matrix.cost[i_star]
        target = next((j for j in range(n) if j != i_star and worst_drop > rivals[j]), None)
        if target is not None:
            j = target
            counters["reassignments"] += 1
            # a break is only possible between equally loaded bundles
            if matrix.cost[j][j] != cost_before:
                raise InternalInvariantError(
                    f"reassignment of item {e} fired although agents {i_star} and "
                    f"{j} hold bundles of different own cost"
                )
            mine = matrix.bundles[i_star] & ~(1 << e)
            theirs = matrix.bundles[j] | 1 << e
            tr.emit("reassign", round=counters["rounds"], item=e, agent=j, source=i_star)
            # pull back whatever the placing agent can carry for free;
            # singleton costs do not move, so one pass settles it
            for f in iter_items(theirs):
                if ops.marginal(fi, f, 0) == 0:
                    theirs &= ~(1 << f)
                    mine |= 1 << f
                    counters["dragged_items"] += 1
                    tr.emit("pull-back", round=counters["rounds"], item=f, agent=i_star)
            for f in iter_items(theirs):
                if ops.marginal(fi, f, 0) == 0:
                    raise InternalInvariantError(
                        f"item {f} stayed with agent {j} although agent {i_star} "
                        "carries it for free"
                    )
            matrix.update(i_star, mine)
            matrix.update(j, theirs)
        if debug:
            matrix.check_against_rebuild()
            if not matrix.is_efx():
                raise InternalInvariantError(
                    f"removal stability broke in round {counters['rounds']}"
                )

    return finish(
        inst, "additive", GuaranteeTag.EFX_AND_PO, matrix.bundles, ops, tr, counters, verify,
        notes=(
            "every complete allocation costs at least one per universally "
            "costly item; this output meets that bound exactly, which "
            "certifies Pareto optimality",
        ),
    )


__all__ = ["ItemPartition", "partition_items", "solve_additive"]
