"""Allocations and exact fairness checking.

One primitive prices everything: :class:`CostMatrix` holds every agent's
cost for every bundle plus each agent's worst single-item drop from her
own bundle.  Envy-freeness (optionally scaled by a rational factor alpha),
its removal-stable variant (no agent may prefer another bundle after
dropping any single item of her own, "EFX") and the equality envy graph
used by the coarser solvers are all read off it.  The checkers here build
one fresh matrix per call; solvers keep one up to date as bundles change.
Pareto optimality is decided by exhaustive comparison.

Costs are integers and alpha is an exact rational, so every comparison in
this module is exact; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import itemset
from .costs import CostFunction, evaluate, value_table
from .errors import InternalInvariantError, InvalidInputError, UnsupportedSizeError
from .instances import Instance
from .itemset import ItemSet, full_set, iter_items

# Exhaustive dominance scans refuse to enumerate more than this many
# allocations no matter what limit the caller asks for.
ENUMERATION_HARD_CAP = 10**8
DEFAULT_ENUMERATION_LIMIT = 10**7


@dataclass(frozen=True)
class Allocation:
    """Disjoint bundles, one per agent, plus explicitly unallocated items.

    Bundles and the unallocated pool must partition {0, ..., m-1} exactly.
    """

    n: int
    m: int
    bundles: tuple[ItemSet, ...]
    unallocated: ItemSet = 0

    def __post_init__(self) -> None:
        if len(self.bundles) != self.n:
            raise InvalidInputError(f"n={self.n} but {len(self.bundles)} bundles")
        object.__setattr__(self, "bundles", tuple(self.bundles))
        union = self.unallocated
        if union < 0 or union >> self.m:
            raise InvalidInputError("unallocated set out of range")
        for i, b in enumerate(self.bundles):
            if b < 0 or b >> self.m:
                raise InvalidInputError(f"bundle {i} out of range for m={self.m}")
            if union & b:
                raise InvalidInputError(f"bundle {i} overlaps another bundle or the pool")
            union |= b
        if union != full_set(self.m):
            raise InvalidInputError("bundles plus unallocated must cover all items exactly")

    @property
    def complete(self) -> bool:
        return self.unallocated == 0

    @classmethod
    def make(cls, n: int, m: int, bundles: tuple[ItemSet, ...] | list[ItemSet]) -> "Allocation":
        """Build an allocation, treating items in no bundle as unallocated."""
        held = 0
        for b in bundles:
            held |= b
        return cls(n=n, m=m, bundles=tuple(bundles), unallocated=full_set(m) & ~held)

    @classmethod
    def from_assignment(cls, n: int, m: int, owners: list[int] | tuple[int, ...]) -> "Allocation":
        """Complete allocation from an item -> agent vector."""
        if len(owners) != m:
            raise InvalidInputError(f"assignment vector has {len(owners)} entries, expected {m}")
        bundles = [0] * n
        for e, i in enumerate(owners):
            if not 0 <= i < n:
                raise InvalidInputError(f"assignment for item {e} names agent {i}, n={n}")
            bundles[i] |= 1 << e
        return cls(n=n, m=m, bundles=tuple(bundles), unallocated=0)

    def to_json(self) -> dict:
        return {
            "bundles": [list(iter_items(b)) for b in self.bundles],
            "unallocated": list(iter_items(self.unallocated)),
        }

    @classmethod
    def from_json(cls, obj: dict, n: int, m: int) -> "Allocation":
        if not isinstance(obj, dict) or "bundles" not in obj:
            raise InvalidInputError("allocation: expected an object with a 'bundles' field")
        bundles_json = obj["bundles"]
        if not isinstance(bundles_json, list):
            raise InvalidInputError("allocation.bundles: expected a list of lists")
        bundles = tuple(itemset.from_indices(b, m) for b in bundles_json)
        pool = itemset.from_indices(obj.get("unallocated", []), m)
        return cls(n=n, m=m, bundles=bundles, unallocated=pool)


class Violation(NamedTuple):
    """A fairness counterexample: agent ``i`` against agent ``j``.

    ``item`` is the dropped item for removal-stable checks and None for
    plain envy checks.
    """

    kind: str
    i: int
    j: int
    item: int | None

    def to_json(self) -> dict:
        return {"kind": self.kind, "i": self.i, "j": self.j, "item": self.item}


def _as_alpha(alpha: Fraction | int | str) -> Fraction:
    if isinstance(alpha, float):
        raise InvalidInputError("alpha must be an exact rational (int, 'p/q' or Fraction)")
    try:
        frac = Fraction(alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse alpha {alpha!r}: {exc}") from exc
    if frac < 1:
        raise InvalidInputError(f"alpha must be >= 1, got {frac}")
    return frac


def _check_consistent(inst: Instance, alloc: Allocation) -> None:
    if alloc.n != inst.n or alloc.m != inst.m:
        raise InvalidInputError(
            f"allocation shaped ({alloc.n}, {alloc.m}) does not match instance "
            f"({inst.n}, {inst.m})"
        )


def social_cost(inst: Instance, alloc: Allocation) -> int:
    """Sum over agents of the cost of their own bundle."""
    _check_consistent(inst, alloc)
    return sum(evaluate(fn, b) for fn, b in zip(inst.agents, alloc.bundles))


# ---------------------------------------------------------------------------
# The price matrix behind every envy check
# ---------------------------------------------------------------------------


class CostMatrix:
    """Every agent's price for every bundle, kept current as bundles change.

    ``cost[i][j]`` is c_i(X_j).  ``worst_drop(i)`` is max over e in X_i of
    c_i(X_i - e), the highest price agent i can be left with after giving up
    one item; it is queried on first read and cached until X_i changes.
    Envy-freeness, removal stability and the equality envy graph are all
    read off these numbers.  ``update`` re-prices the one bundle that
    changed, so a solver that moves a few items per step pays n queries per
    changed bundle instead of a full rebuild.

    ``query(fn, mask)`` prices one bundle for one agent: solvers pass their
    counting ``OpCounter.evaluate``, checkers default to ``evaluate``.
    """

    __slots__ = ("funcs", "bundles", "cost", "_query", "_drop")

    def __init__(
        self,
        funcs: list[CostFunction] | tuple[CostFunction, ...],
        bundles: tuple[ItemSet, ...] | list[ItemSet],
        query: Callable[[CostFunction, ItemSet], int] | None = None,
    ):
        if len(funcs) != len(bundles):
            raise InvalidInputError(f"{len(funcs)} cost functions for {len(bundles)} bundles")
        self.funcs = tuple(funcs)
        self.bundles = list(bundles)
        # resolved per matrix, not bound at import, so that a wrapper put on
        # this module's ``evaluate`` afterwards still sees every query
        self._query = evaluate if query is None else query
        self.cost = [[self._query(fn, b) for b in self.bundles] for fn in self.funcs]
        self._drop: list[int | None] = [None] * len(self.bundles)

    def update(self, j: int, bundle: ItemSet) -> None:
        """Replace bundle j and re-price it for every agent."""
        self.bundles[j] = bundle
        for row, fn in zip(self.cost, self.funcs):
            row[j] = self._query(fn, bundle)
        self._drop[j] = None

    def _item_drops(self, i: int) -> list[tuple[int, int]]:
        fn, mine = self.funcs[i], self.bundles[i]
        return [(e, self._query(fn, mine ^ (1 << e))) for e in iter_items(mine)]

    def worst_drop(self, i: int) -> int:
        """max over e in X_i of c_i(X_i - e); X_i must be non-empty."""
        if self._drop[i] is None:
            self._drop[i] = max(c for _, c in self._item_drops(i))
        return self._drop[i]

    def _cheapest_rival(self, i: int) -> int:
        row = self.cost[i]
        return min(c for j, c in enumerate(row) if j != i)

    def is_efx(self) -> bool:
        """Plain removal stability, stopping at the first unstable agent.

        Against every rival at once it reduces to one comparison per agent
        holding items: her worst drop must not exceed the cheapest rival
        bundle.
        """
        return len(self.bundles) < 2 or all(
            not b or self.worst_drop(i) <= self._cheapest_rival(i)
            for i, b in enumerate(self.bundles)
        )

    def ef_violations(self, alpha: Fraction | int | str = 1) -> list[Violation]:
        """Pairs (i, j) with c_i(X_i) > alpha * c_i(X_j), in (i, j) order."""
        alpha = _as_alpha(alpha)
        return [
            Violation("ef", i, j, None)
            for i, row in enumerate(self.cost)
            for j, other in enumerate(row)
            if j != i and row[i] > alpha * other
        ]

    def efx_violations(self, alpha: Fraction | int | str = 1) -> list[Violation]:
        """Triples (i, j, e) with c_i(X_i - e) > alpha * c_i(X_j), in
        (i, j, e) order.  Per-item drops are queried only for agents whose
        worst drop exceeds alpha times their cheapest rival bundle."""
        alpha = _as_alpha(alpha)
        out: list[Violation] = []
        if len(self.bundles) < 2:
            return out
        for i, row in enumerate(self.cost):
            if not self.bundles[i] or self.worst_drop(i) <= alpha * self._cheapest_rival(i):
                continue
            drops = self._item_drops(i)
            for j, other in enumerate(row):
                if j != i:
                    bound = alpha * other
                    out.extend(Violation("efx", i, j, e) for e, c in drops if c > bound)
        return out

    def graph(self) -> EnvyGraph:
        """Equality envy graph: (i, j) whenever c_i(X_i) == c_i(X_j)."""
        edges = frozenset(
            (i, j)
            for i, row in enumerate(self.cost)
            for j, other in enumerate(row)
            if j != i and row[i] == other
        )
        return EnvyGraph(n=len(self.cost), edges=edges)

    def check_against_rebuild(self) -> None:
        """Raise when a maintained entry differs from a fresh build.

        Debug aid for solvers; the fresh build uses ``evaluate`` directly,
        so the check adds nothing to the caller's query count.
        """
        fresh = CostMatrix(self.funcs, self.bundles)
        if fresh.cost != self.cost or any(
            d is not None and d != fresh.worst_drop(i) for i, d in enumerate(self._drop)
        ):
            raise InternalInvariantError(
                "incrementally maintained cost matrix drifted from a fresh build"
            )


def is_alpha_ef(
    inst: Instance, alloc: Allocation, alpha: Fraction | int | str = 1
) -> tuple[bool, list[Violation]]:
    """Scaled envy-freeness: c_i(X_i) <= alpha * c_i(X_j) for all i != j.

    Unallocated items never enter the comparison.
    """
    _check_consistent(inst, alloc)
    alpha = _as_alpha(alpha)
    viols = CostMatrix(inst.agents, alloc.bundles).ef_violations(alpha)
    return (not viols, viols)


def is_alpha_efx(
    inst: Instance, alloc: Allocation, alpha: Fraction | int | str = 1
) -> tuple[bool, list[Violation]]:
    """Scaled removal-stable envy-freeness.

    Agent i may not envy j (up to alpha) after dropping any single item of
    her own bundle: c_i(X_i - e) <= alpha * c_i(X_j) for every e in X_i.
    Empty own bundles satisfy the condition vacuously.
    """
    _check_consistent(inst, alloc)
    alpha = _as_alpha(alpha)
    viols = CostMatrix(inst.agents, alloc.bundles).efx_violations(alpha)
    return (not viols, viols)


# ---------------------------------------------------------------------------
# Pareto optimality by exhaustive dominance scan
# ---------------------------------------------------------------------------


def _assignment_masks(n: int, m: int, ranks: np.ndarray) -> list[np.ndarray]:
    """Bundle masks per agent for enumeration ranks.

    Rank r encodes the item -> agent vector in base n with item 0 as the
    most significant digit, so ascending rank is ascending lexicographic
    order of the vector.
    """
    masks = [np.zeros(len(ranks), dtype=np.int64) for _ in range(n)]
    for e in range(m):
        digit = (ranks // n ** (m - 1 - e)) % n
        bit = np.int64(1 << e)
        for i in range(n):
            masks[i] += (digit == i) * bit
    return masks


def allocation_from_rank(n: int, m: int, rank: int) -> Allocation:
    owners = []
    for e in range(m):
        owners.append(int(rank // n ** (m - 1 - e) % n))
    return Allocation.from_assignment(n, m, owners)


def is_po_bruteforce(
    inst: Instance,
    alloc: Allocation,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    chunk: int = 1 << 16,
) -> tuple[bool, Allocation | None]:
    """Exhaustive Pareto check for complete allocations.

    Scans every one of the n^m complete allocations for one that makes no
    agent worse off and some agent strictly better off.  Returns
    ``(True, None)`` or ``(False, first dominating allocation)`` in
    lexicographic assignment order.  The scan is chunked internally; the
    result does not depend on the chunk size.
    """
    _check_consistent(inst, alloc)
    if not alloc.complete:
        raise InvalidInputError("Pareto check requires a complete allocation")
    n, m = inst.n, inst.m
    total = n**m
    if limit > ENUMERATION_HARD_CAP:
        raise InvalidInputError(f"limit exceeds the hard cap of {ENUMERATION_HARD_CAP}")
    if total > limit:
        raise UnsupportedSizeError(
            f"{n}^{m} = {total} complete allocations exceed the limit of {limit}"
        )
    if chunk < 1:
        raise InvalidInputError("chunk size must be positive")
    tables = [value_table(fn, max_m=26).astype(np.int32) for fn in inst.agents]
    own = np.array(
        [evaluate(fn, b) for fn, b in zip(inst.agents, alloc.bundles)], dtype=np.int32
    )
    for start in range(0, total, chunk):
        ranks = np.arange(start, min(start + chunk, total), dtype=np.int64)
        masks = _assignment_masks(n, m, ranks)
        le = np.ones(len(ranks), dtype=bool)
        lt = np.zeros(len(ranks), dtype=bool)
        for i in range(n):
            costs_i = tables[i][masks[i]]
            le &= costs_i <= own[i]
            lt |= costs_i < own[i]
        dominating = le & lt
        if dominating.any():
            rank = int(ranks[int(np.argmax(dominating))])
            return False, allocation_from_rank(n, m, rank)
    return True, None


# ---------------------------------------------------------------------------
# Equality envy graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvyGraph:
    """Directed graph on agents with an edge (i, j) whenever agent i's cost
    for her own bundle equals her cost for j's bundle (i is on the verge of
    envying j)."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        for i, j in self.edges:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidInputError(f"bad envy edge ({i}, {j}) for n={self.n}")

    def successors(self, i: int) -> list[int]:
        return sorted(j for (a, j) in self.edges if a == i)

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges


def build_envy_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    _check_consistent(inst, alloc)
    return CostMatrix(inst.agents, alloc.bundles).graph()


def strongly_connected_components(n: int, successors: Callable[[int], list[int]]) -> list[list[int]]:
    """Iterative Tarjan; components are returned in completion order with
    sorted members."""
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    adjacency = [successors(v) for v in range(n)]
    for root in range(n):
        if index[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work.pop()
            if ptr == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            descended = False
            succ = adjacency[v]
            while ptr < len(succ):
                w = succ[ptr]
                ptr += 1
                if index[w] == -1:
                    work.append((v, ptr))
                    work.append((w, 0))
                    descended = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if descended:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comps


def tail_scc(graph: EnvyGraph) -> frozenset[int]:
    """A strongly connected component with no edges leaving it.

    Deterministic choice: among all such components, the one containing the
    lowest-numbered agent.
    """
    comps = strongly_connected_components(graph.n, graph.successors)
    comp_of = {}
    for ci, comp in enumerate(comps):
        for v in comp:
            comp_of[v] = ci
    has_exit = [False] * len(comps)
    for i, j in graph.edges:
        if comp_of[i] != comp_of[j]:
            has_exit[comp_of[i]] = True
    tails = [comp for ci, comp in enumerate(comps) if not has_exit[ci]]
    best = min(tails, key=lambda comp: comp[0])
    return frozenset(best)


def find_cycle_through_edge(graph: EnvyGraph, i: int, j: int) -> list[int] | None:
    """Shortest cycle using the edge (i, j), as an agent list starting at i.

    Runs a breadth-first search from j back to i, expanding neighbours in
    ascending index order; returns None when j cannot reach i.
    """
    if not graph.has_edge(i, j):
        raise InvalidInputError(f"({i}, {j}) is not an edge of the envy graph")
    if j == i:
        return [i]
    parent: dict[int, int] = {j: -1}
    frontier = [j]
    while frontier and i not in parent:
        nxt = []
        for v in frontier:
            for w in graph.successors(v):
                if w not in parent:
                    parent[w] = v
                    nxt.append(w)
        frontier = nxt
    if i not in parent:
        return None
    path = [i]
    while path[-1] != j:
        path.append(parent[path[-1]])
    path.reverse()  # j ... i
    return [i] + path[:-1]


__all__ = [
    "Allocation",
    "Violation",
    "EnvyGraph",
    "social_cost",
    "is_alpha_ef",
    "is_alpha_efx",
    "is_po_bruteforce",
    "allocation_from_rank",
    "build_envy_graph",
    "tail_scc",
    "find_cycle_through_edge",
    "strongly_connected_components",
    "CostMatrix",
    "ENUMERATION_HARD_CAP",
    "DEFAULT_ENUMERATION_LIMIT",
]
