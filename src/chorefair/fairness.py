"""Allocations and exact fairness checking.

One primitive prices everything: :class:`CostMatrix` holds every agent's
cost for every bundle plus each agent's worst single-item drop from her
own bundle.  Envy-freeness (optionally scaled by a rational factor alpha),
its removal-stable variant (no agent may prefer another bundle after
dropping any single item of her own, "EFX") and the equality envy graph
used by the coarser solvers are all read off it.  The checkers here build
one fresh matrix per call; solvers keep one up to date as bundles change,
and it prices other agents' entries of a grown bundle only when a reader
needs more than the lower bound it keeps.
The exhaustive Pareto check, which ``reports._pareto`` falls back on,
walks the one scan engine (size check, dense cost tables, blocks of
ranks) that the oracle walks too.

Costs are integers and alpha is an exact rational, so every comparison in
this module is exact; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Protocol

import numpy as np

from . import itemset
from .costs import CostFunction, _check_mask, _first_non_int, evaluate, marginal, value_table
from .costs import _least_drop
from .errors import InternalInvariantError, InvalidInputError, UnsupportedSizeError
from .instances import Instance
from .itemset import ItemSet, full_set, iter_items

# Exhaustive dominance scans refuse to enumerate more than this many
# allocations no matter what limit the caller asks for.
ENUMERATION_HARD_CAP = 10**8
DEFAULT_ENUMERATION_LIMIT = 10**7
# An alpha text longer than this, or with a larger exponent, is refused
# before Fraction() expands it: "1e<k>" computes 10^k in full.
ALPHA_TEXT_MAX = 10_000


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
        def items(name: str, value: object) -> ItemSet:
            if isinstance(value, list) and _first_non_int(value) is None:  # no bools
                return itemset.from_indices(value, m)
            raise InvalidInputError(f"allocation.{name}: expected a list of integer items")

        if not isinstance(obj, dict) or "bundles" not in obj:
            raise InvalidInputError("allocation: expected an object with a 'bundles' field")
        bundles_json = obj["bundles"]
        if not isinstance(bundles_json, list):
            raise InvalidInputError("allocation.bundles: expected a list of lists")
        bundles = tuple(items(f"bundles[{i}]", b) for i, b in enumerate(bundles_json))
        pool = items("unallocated", obj.get("unallocated", []))
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
    if isinstance(alpha, str):
        exponent = alpha.lower().partition("e")[2]
        try:
            large = len(alpha) > ALPHA_TEXT_MAX or abs(int(exponent or 0)) > ALPHA_TEXT_MAX
        except ValueError:  # a malformed exponent, which Fraction() names below
            large = False
        if large:
            raise InvalidInputError(f"alpha text longer than, or exponent past, {ALPHA_TEXT_MAX}")
    try:
        frac = Fraction(alpha)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse alpha {alpha!r}: {exc}") from exc
    if frac < 1:
        raise InvalidInputError(f"alpha must be >= 1, got {alpha}")
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


class Queries(Protocol):
    """Where a :class:`CostMatrix` sends its cost queries."""

    def evaluate(self, fn: CostFunction, mask: ItemSet) -> int: ...

    def marginal(self, fn: CostFunction, item: int, mask: ItemSet) -> int: ...

    def least_drop(self, fn: CostFunction, mask: ItemSet) -> int: ...


class _CheckedQueries:
    """The default queries, range-checked: this module's ``evaluate`` and
    ``marginal``, looked up per call, and ``least_drop``.  A grown set out
    of range gets the message a whole-set price gives it."""

    @staticmethod
    def evaluate(fn: CostFunction, mask: ItemSet) -> int:
        return evaluate(fn, mask)

    @staticmethod
    def marginal(fn: CostFunction, item: int, mask: ItemSet) -> int:
        _check_mask(fn.m, mask | 1 << item)
        return marginal(fn, item, mask)

    @staticmethod
    def least_drop(fn: CostFunction, mask: ItemSet) -> int:
        _check_mask(fn.m, mask)
        return _least_drop(fn, mask)


class CostMatrix:
    """Every agent's price for every bundle, kept current as bundles change.

    ``cost[i][j]`` is c_i(X_j) or, for i != j, a lower bound of it that
    ``price(i, j)`` replaces with the price when asked.  ``worst_drop(i)``
    is max over e in X_i of c_i(X_i - e), the highest price agent i can be
    left with after giving up one item; it is queried on first read and
    cached until X_i changes, unless ``update`` can derive it (below).
    It is read as c_i(X_i) less ``least_drop``, min over e of
    marginal_i(e, X_i - e), in one set-level call.  Envy-freeness, removal
    stability and the equality envy graph are all read off these numbers.

    ``ops`` answers the queries: an object with ``evaluate(fn, mask)``,
    ``marginal(fn, item, mask)`` and ``least_drop(fn, mask)``, such as a
    solver's counting, unchecked ``OpCounter``, whose caller has validated
    its masks.  By default they are ``_CheckedQueries``, which range-check
    every mask and item.  Either way ``evaluate`` and ``marginal`` are
    resolved per call, so a wrapper installed on them still sees them.

    Other agents' entries are priced on read.  When ``update`` grows bundle
    j, the owner's price is handed over or asked, and every other row the
    caller's known increases do not cover keeps its old entry as a lower
    bound, marked stale.  Any other change re-prices the bundle whole.  A
    reader asks a stale entry, one whole price, only when its bound could
    change the verdict, so no price that no rule needs is ever asked.

    ``changed`` marks the agents whose removal-stability inputs moved
    since a caller cleared it: all at first, then each updated bundle's
    owner and every agent whose price for it fell or was stale when it was
    re-priced whole.  For any other agent nothing moved but dearer rivals,
    so if the matrix was removal-stable when ``changed`` was cleared,
    ``is_efx(changed)`` is the full verdict.

    Every cost function is taken to be monotone and to price the empty set
    at 0 (``costs`` builds each descriptor kind that way, and ``Table`` and
    ``Instance`` refuse anything else), so an empty bundle is priced 0
    unasked.  The bounds rely on monotonicity, as does ``update``: when
    bundle j grows to a strict superset and its owner's price stays the
    same, the worst drop is that price, with no query.  Dropping an added item leaves a superset of
    the old bundle, priced at least the old (equal) price, and no drop can
    exceed the bundle's own price.
    """

    __slots__ = ("funcs", "bundles", "cost", "changed", "_evaluate", "_marginal", "_least_drop",
                 "_drop", "_stale")

    def __init__(
        self,
        funcs: list[CostFunction] | tuple[CostFunction, ...],
        bundles: tuple[ItemSet, ...] | list[ItemSet],
        ops: Queries | None = None,
    ):
        if len(funcs) != len(bundles):
            raise InvalidInputError(f"{len(funcs)} cost functions for {len(bundles)} bundles")
        self.funcs = tuple(funcs)
        self.bundles = list(bundles)
        ops = _CheckedQueries if ops is None else ops
        self._evaluate, self._marginal = ops.evaluate, ops.marginal
        self._least_drop = ops.least_drop
        self.cost = [[self._evaluate(fn, b) if b else 0 for b in self.bundles] for fn in self.funcs]
        self._drop: list[int | None] = [None] * len(self.bundles)
        self.changed = full_set(len(self.bundles))
        # per column, a bitmask of the rows whose entry is a lower bound
        self._stale = [0] * len(self.bundles)

    def update(self, j: int, bundle: ItemSet, known: dict[int, int] | None = None) -> None:
        """Replace bundle j and re-price it for its owner, and, unless it
        grew, for every agent.

        When the bundle grew, ``known`` may map agents to their price
        increase; those are not asked, and an exact entry stays exact.  The
        worst drop of j is derived when the bundle grew and its owner's
        price did not (see the class docstring); otherwise it is marked
        stale and re-queried on first read.
        """
        old, price, cost = self.bundles[j], self.cost[j][j], self.cost
        self.bundles[j] = bundle
        grew = bundle != old and bundle & old == old
        if grew:
            exact = full_set(len(cost)) & ~self._stale[j]
            for k, step in (known or {}).items():
                if exact >> k & 1:
                    cost[k][j] += step
                    exact ^= 1 << k
            if exact >> j & 1:
                cost[j][j] = self._evaluate(self.funcs[j], bundle)
            self._stale[j] |= exact & ~(1 << j)
        else:
            for k, (row, fn) in enumerate(zip(cost, self.funcs)):
                was, row[j] = row[j], self._evaluate(fn, bundle)
                if row[j] < was:
                    self.changed |= 1 << k
            self.changed |= self._stale[j]
            self._stale[j] = 0
        self.changed |= 1 << j
        self._drop[j] = price if grew and cost[j][j] == price else None

    def price(self, k: int, j: int, floor: int | None = None) -> int:
        """c_k(X_j), asked now if the entry is stale, unless its bound
        already reaches ``floor``: then the bound is returned, and
        c_k(X_j) >= floor is all it tells."""
        row = self.cost[k]
        if self._stale[j] >> k & 1 and (floor is None or row[j] < floor):
            self._stale[j] ^= 1 << k
            row[j] = self._evaluate(self.funcs[k], self.bundles[j])
        return row[j]

    def _item_drops(self, i: int) -> list[tuple[int, int]]:
        fn, mine, price = self.funcs[i], self.bundles[i], self.cost[i][i]
        return [(e, price - self._marginal(fn, e, mine ^ (1 << e))) for e in iter_items(mine)]

    def worst_drop(self, i: int) -> int:
        """max over e in X_i of c_i(X_i - e); X_i must be non-empty."""
        if self._drop[i] is None:
            self._drop[i] = self.cost[i][i] - self._least_drop(self.funcs[i], self.bundles[i])
        return self._drop[i]

    def _reaches(self, i: int, limit: int) -> bool:
        """c_i(X_k) >= limit for every k, for a limit at most c_i(X_i);
        only the stale entries below it are asked."""
        row = self.cost[i]
        return min(row) >= limit or all(
            b >= limit or self.price(i, k) >= limit for k, b in enumerate(row)
        )

    def envies_nobody(self, i: int) -> bool:
        """c_i(X_i) <= c_i(X_k) for every k != i; true when n < 2."""
        return self._reaches(i, self.cost[i][i])

    def is_efx(self, agents: ItemSet | None = None) -> bool:
        """Plain removal stability of the bitmask ``agents`` (default: all
        of them), stopping at the first unstable agent.

        Against every rival at once it reduces to one comparison per agent
        holding items: her worst drop must not exceed the cheapest rival
        bundle.
        """
        rows = range(len(self.bundles)) if agents is None else iter_items(agents)
        return all(not self.bundles[i] or self._reaches(i, self.worst_drop(i)) for i in rows)

    def ef_violations(self, alpha: Fraction | int | str = 1) -> list[Violation]:
        """Pairs (i, j) with c_i(X_i) > alpha * c_i(X_j), in (i, j) order."""
        alpha = _as_alpha(alpha)
        return [
            Violation("ef", i, j, None)
            for i, row in enumerate(self.cost)
            for j, other in enumerate(row)
            if j != i and row[i] > alpha * other and row[i] > alpha * self.price(i, j)
        ]

    def efx_violations(self, alpha: Fraction | int | str = 1) -> list[Violation]:
        """Triples (i, j, e) with c_i(X_i - e) > alpha * c_i(X_j), in
        (i, j, e) order.  Per-item drops are queried only for agents whose
        worst drop exceeds alpha times their cheapest rival bundle."""
        alpha = _as_alpha(alpha)
        out: list[Violation] = []
        for i in range(len(self.bundles)):
            # integer prices reach drop / alpha iff they reach its ceiling
            if not self.bundles[i] or self._reaches(i, -(-self.worst_drop(i) // alpha)):
                continue
            drops = self._item_drops(i)
            for j in range(len(self.bundles)):
                if j != i:
                    bound = alpha * self.price(i, j)
                    out.extend(Violation("efx", i, j, e) for e, c in drops if c > bound)
        return out

    def graph(self) -> EnvyGraph:
        """Equality envy graph: (i, j) whenever c_i(X_i) == c_i(X_j).  A
        stale entry whose bound passes the owner's price is no edge, unasked."""
        for j, stale in enumerate(self._stale):
            for k in iter_items(stale):
                self.price(k, j, self.cost[k][k] + 1)
        edges = frozenset(
            (i, j)
            for i, row in enumerate(self.cost)
            for j, other in enumerate(row)
            if j != i and row[i] == other
        )
        return EnvyGraph(n=len(self.cost), edges=edges)

    def check_against_rebuild(self) -> None:
        """Raise when a maintained entry differs from a fresh build, or a
        stale one exceeds it.

        Debug aid for solvers; the fresh build uses ``evaluate`` directly
        and no stale entry is asked, so the check adds nothing to the
        caller's query count.
        """
        fresh = CostMatrix(self.funcs, self.bundles)
        if any(
            got > want if self._stale[j] >> k & 1 else got != want
            for k, (mine, theirs) in enumerate(zip(self.cost, fresh.cost))
            for j, (got, want) in enumerate(zip(mine, theirs))
        ) or any(
            d is not None and d != max(c for _, c in fresh._item_drops(i))
            for i, d in enumerate(self._drop)
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
# The exhaustive scan: its size check, its tables, its blocks of ranks
# ---------------------------------------------------------------------------

# Dense cost tables hold n * 2^m entries; a scan that needs more is refused
# before any table is built (2^25 entries are 256 MiB as built in int64,
# 128 MiB as kept in int32).
TABLE_ENTRY_CAP = 1 << 25


def _scan_size(inst: Instance, limit: int) -> int:
    """The n^m complete allocations a scan walks, after refusing a limit
    outside 1 to the hard cap and a ground set past ``limit``."""
    if limit < 1:
        raise InvalidInputError(f"limit must be positive, got {limit}")
    if limit > ENUMERATION_HARD_CAP:
        raise InvalidInputError(f"limit exceeds the hard cap of {ENUMERATION_HARD_CAP}")
    total = inst.n**inst.m
    if total > limit:
        raise UnsupportedSizeError(
            f"{inst.n}^{inst.m} = {total} complete allocations exceed the limit of {limit}"
        )
    return total


def _cost_tables(inst: Instance) -> list[np.ndarray]:
    """Every agent's int32 cost of every bundle, indexed by mask; refused
    up front past :data:`TABLE_ENTRY_CAP` entries.  Every value table lies
    within ±COST_MAX, so it narrows without loss, and int64 sums of up to
    2^32 such costs cannot wrap."""
    entries = inst.n << inst.m
    if entries > TABLE_ENTRY_CAP:
        raise UnsupportedSizeError(
            f"dense cost tables need n * 2^m = {entries} entries, over the cap of "
            f"{TABLE_ENTRY_CAP}"
        )
    return [value_table(fn, max_m=26).astype(np.int32) for fn in inst.agents]


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


# The most ranks a scan block holds.  Each block's masks, cost rows and
# flags are temporaries of this length per agent, and larger blocks fall
# out of cache and slow every pass: on a 2-core x86 machine (Python 3.11)
# 2^16 was slower on each of 14 oracle requests on 3^11 and 2^17
# allocations, 4.2-4.7 s against 3.3 s in total, and ``min-sc`` on 3^11
# took 15-18 ms against 6-8 ms.
_SCAN_BLOCK = 1 << 14


def _rank_blocks(n: int, m: int, start: int, stop: int) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Per-agent bundle masks for ranks ``start`` to ``stop - 1``, in
    ascending blocks of at most :data:`_SCAN_BLOCK` ranks.

    A block holds the n^k ranks (n^k the largest such power <= the block size)
    that share their high m-k digits.  The low k items' masks are built
    once, and each block adds one per-agent constant for its high items,
    so no rank is divided per item.  A range not aligned to n^k gets its
    end blocks sliced.  Yields (first rank, masks), with masks laid out as
    in :func:`_assignment_masks`.

    Every exhaustive scan walks these blocks: the Pareto check below and
    the oracle's ``analyze`` and ``efx_exists_search``.
    """
    k = 0
    while k < m and n ** (k + 1) <= _SCAN_BLOCK:
        k += 1
    size = n**k
    low = [masks << (m - k) for masks in _assignment_masks(n, k, np.arange(size, dtype=np.int64))]
    for hi in range(start // size, -(-stop // size)):
        base = hi * size
        a, b = max(start - base, 0), min(stop - base, size)
        high = [0] * n
        rest = hi
        for e in range(m - k - 1, -1, -1):
            rest, digit = divmod(rest, n)
            high[digit] |= 1 << e
        yield base + a, [masks[a:b] + h for masks, h in zip(low, high)]


def allocation_from_rank(n: int, m: int, rank: int) -> Allocation:
    owners = []
    for e in range(m):
        owners.append(int(rank // n ** (m - 1 - e) % n))
    return Allocation.from_assignment(n, m, owners)


def is_po_bruteforce(
    inst: Instance,
    alloc: Allocation,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> tuple[bool, Allocation | None]:
    """Exhaustive Pareto check of a complete allocation; ``reports._pareto`` falls back on it.

    Scans every one of the n^m complete allocations for one that makes no
    agent worse off and some agent strictly better off.  Returns
    ``(True, None)`` or ``(False, first dominating allocation)`` in
    lexicographic assignment order.  The scan walks blocks of ranks; the
    result does not depend on their size.  A single agent's complete
    allocation is the only one there is, so it is PO without a scan.
    """
    _check_consistent(inst, alloc)
    if not alloc.complete:
        raise InvalidInputError("Pareto check requires a complete allocation")
    total = _scan_size(inst, limit)
    if inst.n == 1:
        return True, None
    tables = _cost_tables(inst)
    own = [table[b] for table, b in zip(tables, alloc.bundles)]
    for first, masks in _rank_blocks(inst.n, inst.m, 0, total):
        le = np.ones(len(masks[0]), dtype=bool)
        lt = np.zeros(len(masks[0]), dtype=bool)
        for table, mine, cost in zip(tables, masks, own):
            costs_i = table[mine]
            le &= costs_i <= cost
            lt |= costs_i < cost
        dominating = le & lt
        if dominating.any():
            rank = first + int(np.argmax(dominating))
            return False, allocation_from_rank(inst.n, inst.m, rank)
    return True, None


# ---------------------------------------------------------------------------
# Equality envy graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EnvyGraph:
    """Directed graph on agents with an edge (i, j) whenever agent i's cost
    for her own bundle equals her cost for j's bundle (i is on the verge of
    envying j).  ``components[v]`` labels v's strongly connected component
    (what v reaches and is reached from) by its lowest agent; an edge lies
    on a cycle iff its ends share a label.
    """

    n: int
    edges: frozenset[tuple[int, int]]
    _succ: list[ItemSet] = field(init=False, repr=False, compare=False)
    components: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        succ, pred, label = [0] * self.n, [0] * self.n, [-1] * self.n
        for i, j in self.edges:
            if i == j or not (0 <= i < self.n and 0 <= j < self.n):
                raise InvalidInputError(f"bad envy edge ({i}, {j}) for n={self.n}")
            succ[i] |= 1 << j
            pred[j] |= 1 << i
        for v in range(self.n):
            if label[v] < 0:
                for w in iter_items(_closure(succ, v) & _closure(pred, v)):
                    label[w] = v
        object.__setattr__(self, "_succ", succ)
        object.__setattr__(self, "components", tuple(label))

    def successors(self, i: int) -> list[int]:
        return list(iter_items(self._succ[i]))

    def has_edge(self, i: int, j: int) -> bool:
        return (i, j) in self.edges


def build_envy_graph(inst: Instance, alloc: Allocation) -> EnvyGraph:
    _check_consistent(inst, alloc)
    return CostMatrix(inst.agents, alloc.bundles).graph()


def _closure(adjacency: list[int], v: int) -> int:
    """Bitmask of the agents reachable from v, v included, where
    ``adjacency[w]`` is the bitmask of w's neighbours."""
    seen = frontier = 1 << v
    while frontier:
        grown = 0
        for w in iter_items(frontier):
            grown |= adjacency[w]
        frontier = grown & ~seen
        seen |= frontier
    return seen


def tail_scc(graph: EnvyGraph) -> frozenset[int]:
    """The strongly connected component, read off the graph's labels, of
    the lowest agent whose component no edge leaves."""
    label = graph.components
    left = {label[i] for i, j in graph.edges if label[i] != label[j]}
    tail = next((c for c in label if c not in left), None)
    if tail is None:
        raise InvalidInputError("an envy graph without agents has no component")
    return frozenset(v for v in range(graph.n) if label[v] == tail)


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
    "CostMatrix",
    "ENUMERATION_HARD_CAP",
    "DEFAULT_ENUMERATION_LIMIT",
]
