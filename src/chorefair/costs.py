"""Cost-function descriptors and set-function class analysis.

A cost function maps item sets to non-negative integer costs.  Every
descriptor kind here is monotone with marginals in {0, 1} by construction,
except ``Table`` which stores arbitrary explicit values (monotonicity and a
zero empty set are enforced at construction; binary marginals are recorded
as a property so checkers can consume non-binary tables that solvers must
reject).  Every value of every dense table lies within ±:data:`COST_MAX`,
the int32 range: ``Table`` refuses any other value where it is built, and
so does :func:`value_table` for the functions it evaluates, so that int64
sums and differences of table values never wrap.  A ``Table`` keeps its
values once, in one int64 buffer, and :func:`value_table` hands out a
read-only view of it instead of a copy.

Descriptors expose ``m`` (ground-set size), ``value(mask)`` and
``marginal(item, mask)``.  Every kind, and every residual view, answers
``marginal`` in closed form (a bit test, a count against a cap, or two
table lookups) instead of pricing two sets; ``item`` must lie outside
``mask``.  Descriptors and views also answer a whole scan in one call,
``free_items`` and ``free_drops`` (a ``Table`` by one buffer read per
item; see :func:`_free_items`, which falls back to scalar marginals for a
protocol object).  The methods trust their arguments.
Validation lives at the public boundary: the free functions
:func:`evaluate`, :func:`marginal` and :func:`residual` range-check every
mask and item, and so does every default ``CostMatrix``.  The solvers
check the masks a caller hands them once, at their entry points, and then
ask the unchecked methods through their op counter.  :func:`marginal`
also accepts any ``CostFunction`` protocol object: one without a
``marginal`` method is answered by the value difference c(S + e) - c(S).
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import FrozenInstanceError, dataclass, field
from functools import partial
from typing import Iterable, Protocol, Sequence, runtime_checkable

import numpy as np

from .errors import InternalInvariantError, InvalidInputError, UnsupportedSizeError
from .itemset import ItemSet, full_set, iter_items, size

# Dense value tables, explicit tables among them, and so the exhaustive
# class check, walk all 2^m subsets; larger ground sets are refused.
TABLE_MAX_M = 20

# The largest |value| a dense value table may hold: the int32 range, so
# that scan tables narrow to int32 and int64 sums of up to 2^32 of them
# cannot wrap.  The paper's costs stay far below it (at most m).
COST_MAX = (1 << 31) - 1


@runtime_checkable
class CostFunction(Protocol):
    """Anything with a ground-set size and a subset evaluation."""

    @property
    def m(self) -> int: ...

    def value(self, mask: ItemSet) -> int: ...


def _check_mask(m: int, mask: ItemSet) -> None:
    if mask < 0 or mask >> m:
        raise InvalidInputError(
            f"item set {bin(mask)} out of range for ground set of size {m}"
        )


def _unit_costs(costs: Sequence[int]) -> ItemSet:
    """The items of cost 1, after refusing a cost outside {0, 1}."""
    ones = 0
    for i, c in enumerate(costs):
        if c not in (0, 1):
            raise InvalidInputError(f"additive cost for item {i} must be 0 or 1, got {c}")
        if c:
            ones |= 1 << i
    return ones


@dataclass(frozen=True)
class Additive:
    """Sum of per-item costs; entries restricted to {0, 1}."""

    costs: tuple[int, ...]
    _ones: ItemSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_ones", _unit_costs(self.costs))
        object.__setattr__(self, "costs", tuple(self.costs))

    @property
    def m(self) -> int:
        return len(self.costs)

    def value(self, mask: ItemSet) -> int:
        return (mask & self._ones).bit_count()

    def marginal(self, item: int, mask: ItemSet) -> int:
        return self._ones >> item & 1

    def free_items(self, mask: ItemSet, pool: ItemSet) -> ItemSet:
        return pool & ~self._ones

    def free_drops(self, mask: ItemSet) -> ItemSet:
        return mask & ~self._ones


@dataclass(frozen=True)
class CappedAdditive:
    """Additive {0,1} costs truncated at ``cap`` (budget-style)."""

    costs: tuple[int, ...]
    cap: int
    _ones: ItemSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise InvalidInputError(f"cap must be non-negative, got {self.cap}")
        object.__setattr__(self, "_ones", _unit_costs(self.costs))
        object.__setattr__(self, "costs", tuple(self.costs))

    @property
    def m(self) -> int:
        return len(self.costs)

    def value(self, mask: ItemSet) -> int:
        return min((mask & self._ones).bit_count(), self.cap)

    def marginal(self, item: int, mask: ItemSet) -> int:
        return 1 if self._ones >> item & 1 and (mask & self._ones).bit_count() < self.cap else 0

    def free_items(self, mask: ItemSet, pool: ItemSet) -> ItemSet:
        return pool & ~self._ones if (mask & self._ones).bit_count() < self.cap else pool

    def free_drops(self, mask: ItemSet) -> ItemSet:
        return mask if (mask & self._ones).bit_count() > self.cap else mask & ~self._ones


@dataclass(frozen=True)
class Cardinality:
    """min(|S|, cap).  The ground-set size is not implied by the cap, so
    it is stored explicitly (instance files supply it from the top level)."""

    cap: int
    m: int

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise InvalidInputError(f"cap must be non-negative, got {self.cap}")
        if self.m < 0:
            raise InvalidInputError(f"ground-set size must be non-negative, got {self.m}")

    def value(self, mask: ItemSet) -> int:
        return min(mask.bit_count(), self.cap)

    def marginal(self, item: int, mask: ItemSet) -> int:
        return 1 if mask.bit_count() < self.cap else 0

    def free_items(self, mask: ItemSet, pool: ItemSet) -> ItemSet:
        return 0 if mask.bit_count() < self.cap else pool

    def free_drops(self, mask: ItemSet) -> ItemSet:
        return mask if mask.bit_count() > self.cap else 0


@dataclass(frozen=True)
class PartitionMatroidRank:
    """Rank of a partition matroid: sum over groups of min(|S ∩ group|, capacity).

    Groups must partition the ground set exactly.
    """

    groups: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]
    _group_masks: tuple[ItemSet, ...] = field(init=False, repr=False, compare=False)
    _group_of: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _m: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if len(self.groups) != len(self.capacities):
            raise InvalidInputError(
                f"{len(self.groups)} groups but {len(self.capacities)} capacities"
            )
        seen = 0
        masks = []
        for gi, group in enumerate(self.groups):
            gmask = 0
            for i in group:
                if i < 0:
                    raise InvalidInputError(f"negative item index {i} in group {gi}")
                bit = 1 << i
                if (seen | gmask) & bit:
                    raise InvalidInputError(f"item {i} appears in more than one group")
                gmask |= bit
            masks.append(gmask)
            seen |= gmask
        for gi, cap in enumerate(self.capacities):
            if cap < 0:
                raise InvalidInputError(f"capacity for group {gi} must be non-negative")
        if seen != full_set(seen.bit_length()):
            raise InvalidInputError("groups must cover items 0..m-1 without gaps")
        object.__setattr__(self, "groups", tuple(tuple(sorted(g)) for g in self.groups))
        object.__setattr__(self, "capacities", tuple(self.capacities))
        group_of = [0] * seen.bit_length()
        for gi, group in enumerate(self.groups):
            for i in group:
                group_of[i] = gi
        object.__setattr__(self, "_group_masks", tuple(masks))
        object.__setattr__(self, "_group_of", tuple(group_of))
        object.__setattr__(self, "_m", len(group_of))

    @property
    def m(self) -> int:
        return self._m

    def value(self, mask: ItemSet) -> int:
        return sum(
            min((mask & gmask).bit_count(), cap)
            for gmask, cap in zip(self._group_masks, self.capacities)
        )

    def marginal(self, item: int, mask: ItemSet) -> int:
        g = self._group_of[item]
        return 1 if (mask & self._group_masks[g]).bit_count() < self.capacities[g] else 0

    def free_items(self, mask: ItemSet, pool: ItemSet) -> ItemSet:
        caps = zip(self._group_masks, self.capacities)
        return pool & sum([g for g, cap in caps if (mask & g).bit_count() >= cap])

    def free_drops(self, mask: ItemSet) -> ItemSet:
        caps = zip(self._group_masks, self.capacities)
        return mask & sum([g for g, cap in caps if (mask & g).bit_count() > cap])


@dataclass(frozen=True)
class Threshold:
    """max(0, |S| - k): the first k items are free, the rest cost 1 each.

    Marginals grow with the set, so this kind is not submodular for 1 <= k < m.
    """

    k: int
    m: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise InvalidInputError(f"threshold must be non-negative, got {self.k}")
        if self.m < 0:
            raise InvalidInputError(f"ground-set size must be non-negative, got {self.m}")

    def value(self, mask: ItemSet) -> int:
        return max(0, mask.bit_count() - self.k)

    def marginal(self, item: int, mask: ItemSet) -> int:
        return 1 if mask.bit_count() >= self.k else 0

    def free_items(self, mask: ItemSet, pool: ItemSet) -> ItemSet:
        return pool if mask.bit_count() < self.k else 0

    def free_drops(self, mask: ItemSet) -> ItemSet:
        return mask if mask.bit_count() <= self.k else 0


def _first_non_int(values: Sequence) -> int | None:
    """Index of the first entry that is not an integer, or None.

    The one type walk a table's values get, shared by :class:`Table` and
    the JSON reader: plain ints pass one type test in C, and only a
    sequence holding something else is walked (``bool`` is refused, other
    ``int`` subclasses pass).
    """
    if {*map(type, values)} <= {int}:
        return None
    for i, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            return i
    return None


def _int64_buffer(values: Sequence[int]) -> array | None:
    """Integers packed into an int64 ``array``, or None when one of them
    lies outside the int64 range."""
    try:
        return array("q", struct.pack(f"{len(values)}q", *values))
    except struct.error:
        return None


def _range_error(values: Sequence[int]) -> InvalidInputError:
    """The refusal of a table holding a value past ±:data:`COST_MAX`; it
    names the lowest mask that holds one."""
    mask, v = next((s, v) for s, v in enumerate(values) if not -COST_MAX <= v <= COST_MAX)
    return InvalidInputError(f"table value at mask {mask} lies outside ±{COST_MAX}: {v}")


class Table:
    """Explicit values indexed by subset bitmask.

    ``values[mask]`` is the cost of the subset ``mask``; there must be
    exactly 2^m values.  Construction enforces, in this order,
    integrality, value(∅)=0, |value| <= :data:`COST_MAX` and
    monotonicity.  Non-binary marginals are permitted (the built-in
    counterexample with per-item cost 2 needs them) and are reflected in
    :attr:`binary_marginal`; solvers refuse such functions, checkers and
    the enumeration oracle accept them.

    The values are stored once, in one int64 buffer (an ``array("q")``)
    built at construction.  ``value`` and ``marginal`` index it,
    :func:`value_table` returns a read-only numpy view of it with no copy,
    and ``values`` reads it back as a tuple.  Tables are immutable; they
    compare, hash and pickle by ``m`` and ``values``.  An ``array("q")``
    argument holds integers only, so it skips the type walk.  ``_proofs``
    holds the class verdicts :func:`chorefair.instances.proves` reached on
    the table, each with its witness.
    """

    __slots__ = ("m", "binary_marginal", "_values", "_view", "_proofs")

    def __init__(self, m: int, values: Iterable[int]) -> None:
        if m < 0:
            raise InvalidInputError(f"ground-set size must be non-negative, got {m}")
        if m > TABLE_MAX_M:
            raise UnsupportedSizeError(f"explicit tables support m <= {TABLE_MAX_M}, got {m}")
        checked = isinstance(values, array) and values.typecode == "q"
        if not (checked or isinstance(values, (list, tuple))):
            values = tuple(values)
        if len(values) != 1 << m:
            raise InvalidInputError(
                f"table for m={m} needs {1 << m} values, got {len(values)}"
            )
        if not checked:
            bad = _first_non_int(values)
            if bad is not None:
                raise InvalidInputError(
                    f"table value at mask {bad} is not an integer: {values[bad]!r}"
                )
        if values[0] != 0:
            raise InvalidInputError(f"table value for the empty set must be 0, got {values[0]}")
        buf = array("q", values) if checked else _int64_buffer(values)
        view = None if buf is None else np.frombuffer(buf, dtype=np.int64)
        if view is None or view.min() < -COST_MAX or view.max() > COST_MAX:
            raise _range_error(values)
        view.flags.writeable = False
        # Dropping any single element must not increase the value; steps of
        # more than 1 are legal but mark the table as non-binary.
        binary, monotone = _check_marginals(m, view, {})
        if not monotone:
            mask, e = _first_rise(m, view)
            raise InvalidInputError(
                f"table is not monotone: value({mask ^ (1 << e)}) > value({mask})"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "binary_marginal", binary)
        object.__setattr__(self, "_values", buf)
        object.__setattr__(self, "_view", view)
        object.__setattr__(self, "_proofs", {})

    @property
    def values(self) -> tuple[int, ...]:
        return tuple(self.tolist())

    def tolist(self) -> list[int]:
        """The values as a new list, read straight from the buffer."""
        return self._values.tolist()

    def value(self, mask: ItemSet) -> int:
        return self._values[mask]

    def marginal(self, item: int, mask: ItemSet) -> int:
        values = self._values
        return values[mask | 1 << item] - values[mask]

    def free_items(self, mask: ItemSet, pool: ItemSet) -> ItemSet:
        # mask ^ e is mask + e for e outside mask, and mask - e inside it
        values, free = self._values, 0
        here = values[mask]
        while pool:
            low = pool & -pool
            if values[mask ^ low] == here:
                free |= low
            pool ^= low
        return free

    def free_drops(self, mask: ItemSet) -> ItemSet:
        return self.free_items(mask, mask)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.m == other.m and self._values == other._values

    def __hash__(self) -> int:
        return hash((self.m, self.values))

    def __repr__(self) -> str:
        return f"Table(m={self.m!r}, values={self.values!r}, binary_marginal={self.binary_marginal!r})"

    def __reduce__(self):
        return Table, (self.m, self._values)

    def __setattr__(self, name: str, value: object) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")


_KINDS = (Additive, CappedAdditive, Cardinality, PartitionMatroidRank, Threshold)
Descriptor = Additive | CappedAdditive | Cardinality | PartitionMatroidRank | Threshold | Table


class ResidualView:
    """The cost of adding a set on top of a fixed base bundle.

    ``d(S) = c(S ∪ A) - c(A)`` for S disjoint from A.  Queries that overlap
    the base are rejected; the view inherits monotonicity and binary
    marginals from the underlying function, whose marginal it binds once.
    """

    __slots__ = ("fn", "base", "_base_value", "_step")

    def __init__(self, fn: CostFunction, base: ItemSet):
        _check_mask(fn.m, base)
        self.fn = fn
        self.base = base
        self._base_value = fn.value(base)
        self._step = getattr(fn, "marginal", None) or partial(_marginal, fn)

    @property
    def m(self) -> int:
        return self.fn.m

    def value(self, mask: ItemSet) -> int:
        if mask & self.base:
            raise InvalidInputError(
                f"residual query {bin(mask)} overlaps the base bundle {bin(self.base)}"
            )
        return self.fn.value(mask | self.base) - self._base_value

    def marginal(self, item: int, mask: ItemSet) -> int:
        # c(S + e ∪ A) - c(S ∪ A): the base value cancels out
        grown = mask | 1 << item
        if grown & self.base:
            raise InvalidInputError(
                f"residual query {bin(grown)} overlaps the base bundle {bin(self.base)}"
            )
        return self._step(item, mask | self.base)

    def free_items(self, mask: ItemSet, pool: ItemSet) -> ItemSet:
        return _free_items(self.fn, mask | self.base, pool)

    def free_drops(self, mask: ItemSet) -> ItemSet:
        return _free_drops(self.fn, mask | self.base) & mask

    def __repr__(self) -> str:
        return f"ResidualView({self.fn!r}, base={bin(self.base)})"


def evaluate(fn: CostFunction, mask: ItemSet) -> int:
    """Cost of the item set ``mask`` under ``fn``, with range validation."""
    _check_mask(fn.m, mask)
    return fn.value(mask)


def marginal(fn: CostFunction, item: int, mask: ItemSet) -> int:
    """Cost of adding ``item`` to ``mask``: c(S + e) - c(S).

    ``item`` must lie outside ``mask``.
    """
    if item < 0 or item >= fn.m:
        raise InvalidInputError(f"item index {item} out of range for m={fn.m}")
    bit = 1 << item
    if mask & bit:
        raise InvalidInputError(f"item {item} is already in the set")
    _check_mask(fn.m, mask | bit)
    return _marginal(fn, item, mask)


def _marginal(fn: CostFunction, item: int, mask: ItemSet) -> int:
    """Unchecked c(S + e) - c(S): the closed form where ``fn`` has one,
    else the value difference (user-defined protocol objects)."""
    closed_form = getattr(fn, "marginal", None)
    if closed_form is None:
        return fn.value(mask | 1 << item) - fn.value(mask)
    return closed_form(item, mask)


def _free_items(fn: CostFunction, mask: ItemSet, pool: ItemSet) -> ItemSet:
    """Unchecked: the e in ``pool`` with c(mask + e) = c(mask), in one call
    where ``fn`` has the set-level form, else by scalar marginals."""
    if (closed_form := getattr(fn, "free_items", None)) is not None:
        return closed_form(mask, pool)
    return sum(1 << e for e in iter_items(pool) if _marginal(fn, e, mask) == 0)


def _free_drops(fn: CostFunction, mask: ItemSet) -> ItemSet:
    """Unchecked: the e in ``mask`` with c(mask - e) = c(mask), likewise."""
    if (closed_form := getattr(fn, "free_drops", None)) is not None:
        return closed_form(mask)
    return sum(1 << e for e in iter_items(mask) if _marginal(fn, e, mask ^ 1 << e) == 0)


def _least_drop(fn: CostFunction, mask: ItemSet) -> int:
    """Unchecked min over e in ``mask`` of c(mask) - c(mask - e); for a kind,
    a binary table or a view over one (steps 0 or 1), 0 iff a drop is free."""
    base = fn.fn if isinstance(fn, ResidualView) else fn
    if isinstance(base, _KINDS) or isinstance(base, Table) and base.binary_marginal:
        return 0 if _free_drops(fn, mask) else 1
    return min(_marginal(fn, e, mask ^ 1 << e) for e in iter_items(mask))


def residual(fn: CostFunction, base: ItemSet) -> ResidualView:
    """View of ``fn`` relative to an already-held bundle ``base``."""
    return ResidualView(fn, base)


# ---------------------------------------------------------------------------
# Dense value tables (shared by the class checker and the enumeration oracle)
# ---------------------------------------------------------------------------


def value_table(fn: CostFunction, max_m: int = TABLE_MAX_M) -> np.ndarray:
    """All 2^m values of ``fn`` as an int64 array indexed by subset mask.

    A :class:`Table` returns a read-only view of its own int64 buffer, with
    no copy.  Closed-form kinds are filled with vectorised recurrences
    instead of 2^m Python calls; each cap or threshold is clamped at the
    most items it can count, which keeps it inside int64 and the table the
    same.  Any other function is evaluated mask by mask, and refused as
    :class:`Table` refuses it when a value lies past ±:data:`COST_MAX`.
    """
    m = fn.m
    if m > max_m:
        raise UnsupportedSizeError(f"dense value table needs m <= {max_m}, got {m}")
    n_masks = 1 << m
    if isinstance(fn, Table):
        # the table's own buffer, read-only and uncopied
        return fn._view
    if isinstance(fn, (Additive, CappedAdditive)):
        out = _weighted_counts(m, [1 if c else 0 for c in fn.costs])
        if isinstance(fn, CappedAdditive):
            np.minimum(out, min(fn.cap, m), out=out)
        return out
    if isinstance(fn, Cardinality):
        return np.minimum(_weighted_counts(m, [1] * m), min(fn.cap, m))
    if isinstance(fn, Threshold):
        return np.maximum(_weighted_counts(m, [1] * m) - min(fn.k, m), 0)
    if isinstance(fn, PartitionMatroidRank):
        out = np.zeros(n_masks, dtype=np.int64)
        for gmask, cap in zip(fn._group_masks, fn.capacities):
            counts = _weighted_counts(m, [gmask >> e & 1 for e in range(m)])
            out += np.minimum(counts, min(cap, gmask.bit_count()), out=counts)
        return out
    # Generic fallback (residual views, user-defined evaluables).
    values = [fn.value(s) for s in range(n_masks)]
    if min(values) < -COST_MAX or max(values) > COST_MAX:
        raise _range_error(values)
    return np.array(values, dtype=np.int64)


def _weighted_counts(m: int, weights: list[int]) -> np.ndarray:
    out = np.zeros(1 << m, dtype=np.int64)
    for e, w in enumerate(weights):
        if w:
            step = 1 << e
            out.reshape(-1, 2 * step)[:, step:] += w
    return out


# ---------------------------------------------------------------------------
# Function-class analysis
# ---------------------------------------------------------------------------

# Witness triples (S, T, e) falsify the class they are recorded for:
#   binary_marginal / monotone : T = S + e and c(T) - c(S) is outside {0, 1} / < 0
#   additive                   : c(e | S) != c(e | ∅), encoded as (S, ∅, e)
#   cancelable                 : c(S) <= c(T) but c(S + e) > c(T + e)
#   submodular                 : S ⊂ T with c(e | S) < c(e | T)
Witness = tuple[int, int, int]

_CLASS_ORDER = ("binary_marginal", "monotone", "submodular", "cancelable", "additive")


@dataclass(frozen=True)
class FunctionClassReport:
    """Outcome of class membership checks for one cost function.

    ``witness`` is the falsifying triple for the broadest class that failed
    (checked in the order binary-marginal, monotone, submodular, cancelable,
    additive); ``witnesses`` keeps one triple per failed class.  Every flag
    is proved: :func:`check_class` decides each class over the full value
    table, and :func:`chorefair.instances.kind_report` decides a closed-form
    kind's classes by rule.
    """

    binary_marginal: bool
    monotone: bool
    additive: bool
    cancelable: bool
    submodular: bool
    witnesses: dict[str, Witness]

    @property
    def witness(self) -> Witness | None:
        name = self.witness_class
        return None if name is None else self.witnesses[name]

    @property
    def witness_class(self) -> str | None:
        return next((name for name in _CLASS_ORDER if name in self.witnesses), None)

    def flags(self) -> dict[str, bool]:
        return {
            "binary_marginal": self.binary_marginal,
            "monotone": self.monotone,
            "additive": self.additive,
            "cancelable": self.cancelable,
            "submodular": self.submodular,
        }

    def to_json(self) -> dict:
        out: dict = dict(self.flags())
        out["witnesses"] = {
            name: {"S": list(iter_items(s)), "T": list(iter_items(t)), "e": e}
            for name, (s, t, e) in self.witnesses.items()
        }
        return out


def check_class(fn: CostFunction) -> FunctionClassReport:
    """Exhaustively classify ``fn``; :func:`value_table` refuses m > 20.

    Each class is decided independently over the full value table; the
    containment facts (additive functions are cancelable; binary-marginal
    cancelable functions are submodular) therefore hold on every report,
    and a defensive cross-check enforces them.
    """
    m = fn.m
    v = value_table(fn)
    witnesses: dict[str, Witness] = {}

    binary, monotone = _check_marginals(m, v, witnesses)
    additive_ok = _check_additive(m, v, witnesses)
    cancelable_ok = _check_cancelable(m, v, witnesses)
    submodular_ok = _check_submodular(m, v, witnesses)

    if additive_ok and not cancelable_ok:
        raise InternalInvariantError("additive function classified as non-cancelable")
    if cancelable_ok and binary and not submodular_ok:
        raise InternalInvariantError(
            "binary-marginal cancelable function classified as non-submodular"
        )
    return FunctionClassReport(
        binary_marginal=binary,
        monotone=monotone,
        additive=additive_ok,
        cancelable=cancelable_ok,
        submodular=submodular_ok,
        witnesses=witnesses,
    )


def _low_mask(pos: int, e: int) -> int:
    """The mask at flat position ``pos`` of ``v.reshape(-1, 2, 1 << e)[:, 0]``:
    the pos-th set avoiding item e, in ascending order."""
    return (pos >> e) << (e + 1) | pos & ((1 << e) - 1)


def _check_marginals(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> tuple[bool, bool]:
    binary = monotone = True
    for e in range(m):
        bit = 1 << e
        w = v.reshape(-1, 2, bit)
        # a step is 0 or 1 iff clearing its lowest bit leaves 0, so one
        # count clears an item; the sign survives, so the masked steps
        # still show the falling ones
        off = w[:, 1] - w[:, 0]
        off &= -2
        if not np.count_nonzero(off):
            continue
        if monotone:
            falls = off < 0
            if falls.any():
                s = _low_mask(int(np.argmax(falls)), e)
                witnesses["monotone"] = (s, s | bit, e)
                monotone = False
        if binary:
            s = _low_mask(int(np.argmax(off != 0)), e)
            witnesses["binary_marginal"] = (s, s | bit, e)
            binary = False
        if not monotone:
            break
    return binary, monotone


def _first_rise(m: int, v: np.ndarray) -> tuple[int, int]:
    """The lowest mask S with some e in S and c(S - e) > c(S), with the
    lowest such e; ``v`` must have one."""
    idx = np.arange(1 << m, dtype=np.int64)
    first: tuple[int, int] | None = None
    for e in range(m):
        bit = 1 << e
        hi = idx[(idx & bit) != 0]
        bad = np.flatnonzero(v[hi] < v[hi ^ bit])
        if bad.size and (first is None or int(hi[bad[0]]) < first[0]):
            first = (int(hi[bad[0]]), e)
    if first is None:
        raise InternalInvariantError("monotonicity failure without a witness")
    return first


def _check_additive(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> bool:
    expected = _weighted_counts(m, [int(v[1 << e]) for e in range(m)])
    diff = v != expected
    if not diff.any():
        return True
    s = int(np.argmax(diff))
    # The first mismatching mask has all proper sub-sums correct, so some
    # member's marginal there differs from its singleton cost.
    for e in iter_items(s):
        bit = 1 << e
        if v[s] - v[s ^ bit] != v[bit]:
            witnesses["additive"] = (s ^ bit, 0, e)
            return False
    raise InternalInvariantError("additive mismatch without a marginal witness")


def _check_cancelable(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> bool:
    """Look for S, T, e with c(S) <= c(T) but c(S+e) > c(T+e).

    For each e, masks avoiding e are sorted by base value; a violation
    exists iff some group's after-adding-e values are not constant over
    equal base values, or the running maximum over strictly smaller base
    values exceeds a later group's minimum.  This covers arbitrary integer
    values, not just binary marginals.  When every step c(S+e) - c(S) is 0
    or 1, a smaller base ends no higher than a larger one, so a violation
    needs two equal bases with steps 1 and 0; one count of (base, step)
    pairs rules that out, and only an item it does not clear is sorted.
    """
    for e in range(m):
        bit = 1 << e
        w = v.reshape(-1, 2, bit)
        base = w[:, 0].ravel()
        after = w[:, 1].ravel()
        step = after - base
        low = int(base.min())
        span = int(base.max()) - low + 1
        if span <= 4 * base.size and step.min() >= 0 and step.max() <= 1:
            pairs = np.bincount((base - low) * 2 + step, minlength=2 * span)
            if not pairs.reshape(-1, 2).min(axis=1).any():
                continue
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
        t_pos = starts[g] + int(np.argmin(sa[starts[g]:ends[g]]))
        t_mask = _low_mask(int(order[t_pos]), e)
        limit = int(sa[t_pos])
        # any earlier-or-equal base value whose after-value beats T's works
        s_candidates = np.flatnonzero(sa[: ends[g]] > limit)
        s_mask = _low_mask(int(order[int(s_candidates[0])]), e)
        witnesses["cancelable"] = (s_mask, t_mask, e)
        return False
    return True


def _check_submodular(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> bool:
    # Pairwise local condition: c(e | S) >= c(e | S + f) for all S, e != f
    # outside S.  This is equivalent to diminishing marginals over nested
    # sets by induction along a chain from S to T.  Axes of the view: items
    # above f, f, items between e and f, e, items below e.
    for e in range(m):
        be = 1 << e
        for f in range(e + 1, m):
            bf = 1 << f
            w = v.reshape(-1, 2, 1 << (f - e - 1), 2, be)
            bad = w[:, 0, :, 1] + w[:, 1, :, 0] < w[:, 1, :, 1] + w[:, 0, :, 0]
            if bad.any():
                pos = int(np.argmax(bad))
                s = (pos >> (f - 1)) << (f + 1) | _low_mask(pos & ((1 << (f - 1)) - 1), e)
                # adding f enlarged e's marginal (or vice versa)
                if v[s | be] - v[s] < v[s | be | bf] - v[s | bf]:
                    witnesses["submodular"] = (s, s | bf, e)
                else:
                    witnesses["submodular"] = (s, s | be, f)
                return False
    return True


__all__ = [
    "Additive",
    "CappedAdditive",
    "Cardinality",
    "PartitionMatroidRank",
    "Threshold",
    "Table",
    "Descriptor",
    "CostFunction",
    "ResidualView",
    "FunctionClassReport",
    "Witness",
    "evaluate",
    "marginal",
    "residual",
    "check_class",
    "value_table",
    "TABLE_MAX_M",
    "COST_MAX",
]
