"""Cost-function descriptors and set-function class analysis.

A cost function maps item sets to non-negative integer costs.  Every
descriptor kind here is monotone with marginals in {0, 1} by construction,
except ``Table`` which stores arbitrary explicit values (monotonicity and a
zero empty set are enforced at construction; binary marginals are recorded
as a property so checkers can consume non-binary tables that solvers must
reject).

Descriptors expose ``m`` (ground-set size) and ``value(mask)``; the free
functions :func:`evaluate`, :func:`marginal` and :func:`residual` add
argument validation on top and also accept residual views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from .errors import InternalInvariantError, InvalidInputError, UnsupportedSizeError
from .itemset import ItemSet, full_set, iter_items, size

# Exhaustive class analysis walks all 2^m subsets; beyond this, sample_class
# is the supported route.
CHECK_CLASS_MAX_M = 20

# Explicit tables get dense storage, so they share the same hard cap.
TABLE_MAX_M = 20


@runtime_checkable
class CostFunction(Protocol):
    """Anything with a ground-set size and a subset evaluation."""

    @property
    def m(self) -> int: ...

    def value(self, mask: ItemSet) -> int: ...


def _check_mask(fn: CostFunction, mask: ItemSet) -> None:
    if mask < 0 or mask >> fn.m:
        raise InvalidInputError(
            f"item set {bin(mask)} out of range for ground set of size {fn.m}"
        )


@dataclass(frozen=True)
class Additive:
    """Sum of per-item costs; entries restricted to {0, 1}."""

    costs: tuple[int, ...]
    _ones: ItemSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ones = 0
        for i, c in enumerate(self.costs):
            if c not in (0, 1):
                raise InvalidInputError(f"additive cost for item {i} must be 0 or 1, got {c}")
            if c:
                ones |= 1 << i
        object.__setattr__(self, "costs", tuple(self.costs))
        object.__setattr__(self, "_ones", ones)

    @property
    def m(self) -> int:
        return len(self.costs)

    def value(self, mask: ItemSet) -> int:
        return (mask & self._ones).bit_count()


@dataclass(frozen=True)
class CappedAdditive:
    """Additive {0,1} costs truncated at ``cap`` (budget-style)."""

    costs: tuple[int, ...]
    cap: int
    _ones: ItemSet = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.cap < 0:
            raise InvalidInputError(f"cap must be non-negative, got {self.cap}")
        ones = 0
        for i, c in enumerate(self.costs):
            if c not in (0, 1):
                raise InvalidInputError(f"additive cost for item {i} must be 0 or 1, got {c}")
            if c:
                ones |= 1 << i
        object.__setattr__(self, "costs", tuple(self.costs))
        object.__setattr__(self, "_ones", ones)

    @property
    def m(self) -> int:
        return len(self.costs)

    def value(self, mask: ItemSet) -> int:
        return min((mask & self._ones).bit_count(), self.cap)


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


@dataclass(frozen=True)
class PartitionMatroidRank:
    """Rank of a partition matroid: sum over groups of min(|S ∩ group|, capacity).

    Groups must partition the ground set exactly.
    """

    groups: tuple[tuple[int, ...], ...]
    capacities: tuple[int, ...]
    _group_masks: tuple[ItemSet, ...] = field(init=False, repr=False, compare=False)
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
        object.__setattr__(self, "_group_masks", tuple(masks))
        object.__setattr__(self, "_m", sum(len(g) for g in self.groups))

    @property
    def m(self) -> int:
        return self._m

    def value(self, mask: ItemSet) -> int:
        return sum(
            min((mask & gmask).bit_count(), cap)
            for gmask, cap in zip(self._group_masks, self.capacities)
        )


@dataclass(frozen=True)
class Threshold:
    """max(0, |S| - k): the first k items are free, the rest cost 1 each.

    Marginals grow with the set, so this kind is not submodular for k >= 1.
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


@dataclass(frozen=True)
class Table:
    """Explicit values indexed by subset bitmask.

    ``values[mask]`` is the cost of the subset ``mask``; the tuple length
    must be exactly 2^m.  Construction enforces value(∅)=0, integrality,
    and monotonicity.  Non-binary marginals are permitted (the built-in
    counterexample with per-item cost 2 needs them) and are reflected in
    :attr:`binary_marginal`; solvers refuse such functions, checkers and
    the enumeration oracle accept them.
    """

    m: int
    values: tuple[int, ...]
    binary_marginal: bool = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if self.m < 0:
            raise InvalidInputError(f"ground-set size must be non-negative, got {self.m}")
        if self.m > TABLE_MAX_M:
            raise UnsupportedSizeError(f"explicit tables support m <= {TABLE_MAX_M}, got {self.m}")
        values = tuple(self.values)
        if len(values) != 1 << self.m:
            raise InvalidInputError(
                f"table for m={self.m} needs {1 << self.m} values, got {len(values)}"
            )
        for mask, v in enumerate(values):
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidInputError(f"table value at mask {mask} is not an integer: {v!r}")
        if values and values[0] != 0:
            raise InvalidInputError(f"table value for the empty set must be 0, got {values[0]}")
        # Dropping any single element must not increase the value; steps of
        # more than 1 are legal but mark the table as non-binary.
        binary = True
        for mask in range(len(values)):
            rest = mask
            while rest:
                low = rest & -rest
                rest ^= low
                step = values[mask] - values[mask ^ low]
                if step < 0:
                    raise InvalidInputError(
                        f"table is not monotone: value({mask ^ low}) > value({mask})"
                    )
                if step > 1:
                    binary = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "binary_marginal", binary)

    def value(self, mask: ItemSet) -> int:
        return self.values[mask]


Descriptor = Additive | CappedAdditive | Cardinality | PartitionMatroidRank | Threshold | Table


class ResidualView:
    """The cost of adding a set on top of a fixed base bundle.

    ``d(S) = c(S ∪ A) - c(A)`` for S disjoint from A.  Queries that overlap
    the base are rejected; the view inherits monotonicity and binary
    marginals from the underlying function.
    """

    __slots__ = ("fn", "base", "_base_value")

    def __init__(self, fn: CostFunction, base: ItemSet):
        _check_mask(fn, base)
        self.fn = fn
        self.base = base
        self._base_value = fn.value(base)

    @property
    def m(self) -> int:
        return self.fn.m

    def value(self, mask: ItemSet) -> int:
        if mask & self.base:
            raise InvalidInputError(
                f"residual query {bin(mask)} overlaps the base bundle {bin(self.base)}"
            )
        return self.fn.value(mask | self.base) - self._base_value

    def __repr__(self) -> str:
        return f"ResidualView({self.fn!r}, base={bin(self.base)})"


def evaluate(fn: CostFunction, mask: ItemSet) -> int:
    """Cost of the item set ``mask`` under ``fn``, with range validation."""
    _check_mask(fn, mask)
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
    _check_mask(fn, mask | bit)
    return fn.value(mask | bit) - fn.value(mask)


def residual(fn: CostFunction, base: ItemSet) -> ResidualView:
    """View of ``fn`` relative to an already-held bundle ``base``."""
    return ResidualView(fn, base)


# ---------------------------------------------------------------------------
# Dense value tables (shared by the class checker and the enumeration oracle)
# ---------------------------------------------------------------------------


def value_table(fn: CostFunction, max_m: int = CHECK_CLASS_MAX_M) -> np.ndarray:
    """All 2^m values of ``fn`` as an int64 array indexed by subset mask.

    Closed-form kinds are filled with vectorised recurrences instead of 2^m
    Python calls.
    """
    m = fn.m
    if m > max_m:
        raise UnsupportedSizeError(f"dense value table needs m <= {max_m}, got {m}")
    n_masks = 1 << m
    if isinstance(fn, Table):
        return np.asarray(fn.values, dtype=np.int64)
    if isinstance(fn, (Additive, CappedAdditive)):
        out = _weighted_counts(m, [1 if c else 0 for c in fn.costs])
        if isinstance(fn, CappedAdditive):
            np.minimum(out, fn.cap, out=out)
        return out
    if isinstance(fn, Cardinality):
        return np.minimum(_popcounts(m), fn.cap)
    if isinstance(fn, Threshold):
        return np.maximum(_popcounts(m) - fn.k, 0)
    if isinstance(fn, PartitionMatroidRank):
        idx = np.arange(n_masks, dtype=np.int64)
        pc = _popcounts(m)
        out = np.zeros(n_masks, dtype=np.int64)
        for gmask, cap in zip(fn._group_masks, fn.capacities):
            out += np.minimum(pc[idx & gmask], cap)
        return out
    # Generic fallback (residual views, user-defined evaluables).
    return np.fromiter((fn.value(s) for s in range(n_masks)), dtype=np.int64, count=n_masks)


def _popcounts(m: int) -> np.ndarray:
    pc = np.zeros(1 << m, dtype=np.int64)
    for e in range(m):
        step = 1 << e
        pc.reshape(-1, 2 * step)[:, step:] += 1
    return pc


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
    additive); ``witnesses`` keeps one triple per failed class.  ``method``
    distinguishes a proven exhaustive verdict from a sampled one: a sampled
    report only says "no counterexample found in the trials".
    """

    binary_marginal: bool
    monotone: bool
    additive: bool
    cancelable: bool
    submodular: bool
    witnesses: dict[str, Witness]
    method: str = "exhaustive"

    @property
    def witness(self) -> Witness | None:
        for name in _CLASS_ORDER:
            if name in self.witnesses:
                return self.witnesses[name]
        return None

    @property
    def witness_class(self) -> str | None:
        for name in _CLASS_ORDER:
            if name in self.witnesses:
                return name
        return None

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
        out["method"] = self.method
        out["witnesses"] = {
            name: {"S": list(iter_items(s)), "T": list(iter_items(t)), "e": e}
            for name, (s, t, e) in self.witnesses.items()
        }
        return out


def check_class(fn: CostFunction) -> FunctionClassReport:
    """Exhaustively classify ``fn`` (m <= 20).

    Each class is decided independently over the full value table; the
    containment facts (additive functions are cancelable; binary-marginal
    cancelable functions are submodular) therefore hold on every report,
    and a defensive cross-check enforces them.
    """
    m = fn.m
    if m > CHECK_CLASS_MAX_M:
        raise UnsupportedSizeError(
            f"exhaustive class check supports m <= {CHECK_CLASS_MAX_M}, got {m}; "
            "use sample_class for larger ground sets"
        )
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


def is_binary_marginal(fn: CostFunction) -> bool:
    """Fast standalone check that all marginals of ``fn`` lie in {0, 1}."""
    if isinstance(fn, Table):
        return fn.binary_marginal
    if isinstance(fn, (Additive, CappedAdditive, Cardinality, PartitionMatroidRank, Threshold)):
        return True
    v = value_table(fn)
    return _check_marginals(fn.m, v, {})[0]


def _check_marginals(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> tuple[bool, bool]:
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


def _check_submodular(m: int, v: np.ndarray, witnesses: dict[str, Witness]) -> bool:
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


def _random_subset(rng: np.random.Generator, m: int) -> ItemSet:
    mask = 0
    for low in range(0, m, 62):
        mask |= int(rng.integers(0, 1 << min(62, m - low))) << low
    return mask


def sample_class(fn: CostFunction, trials: int = 10_000, seed: int = 0) -> FunctionClassReport:
    """Randomised class check for ground sets too large to enumerate.

    Draws ``trials`` uniform (S, T, e) configurations per property.  A True
    flag means no counterexample surfaced; the report is marked
    ``method="sampled"`` to keep it distinct from a proven verdict.
    Subsets are drawn in words of at most 62 bits, so any m works and
    m <= 62 takes a single draw.
    """
    m = fn.m
    rng = np.random.default_rng(seed)
    witnesses: dict[str, Witness] = {}
    binary = monotone = additive_ok = cancelable_ok = submodular_ok = True
    if m > 0:
        for _ in range(trials):
            s = _random_subset(rng, m)
            t = _random_subset(rng, m)
            e = int(rng.integers(0, m))
            bit = 1 << e
            s_no = s & ~bit
            step = fn.value(s_no | bit) - fn.value(s_no)
            if monotone and step < 0:
                witnesses["monotone"] = (s_no, s_no | bit, e)
                monotone = False
            if binary and step not in (0, 1):
                witnesses["binary_marginal"] = (s_no, s_no | bit, e)
                binary = False
            if additive_ok and step != fn.value(bit):
                witnesses["additive"] = (s_no, 0, e)
                additive_ok = False
            t_no = t & ~bit
            t_step = fn.value(t_no | bit) - fn.value(t_no)
            if cancelable_ok:
                vs, vt = fn.value(s_no), fn.value(t_no)
                if vs <= vt and vs + step > vt + t_step:
                    witnesses["cancelable"] = (s_no, t_no, e)
                    cancelable_ok = False
            if submodular_ok:
                small = s_no & t_no
                big = (s_no | t_no) & ~bit
                if fn.value(small | bit) - fn.value(small) < fn.value(big | bit) - fn.value(big):
                    witnesses["submodular"] = (small, big, e)
                    submodular_ok = False
    return FunctionClassReport(
        binary_marginal=binary,
        monotone=monotone,
        additive=additive_ok,
        cancelable=cancelable_ok,
        submodular=submodular_ok,
        witnesses=witnesses,
        method="sampled",
    )


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
    "sample_class",
    "is_binary_marginal",
    "value_table",
    "CHECK_CLASS_MAX_M",
    "TABLE_MAX_M",
]
