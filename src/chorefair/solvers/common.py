"""Shared solver plumbing: class gates, op counting, trace recording and
the epilogue that re-proves a solver's tag before it returns."""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..costs import CostFunction, _check_mask, _free_items, _least_drop
from ..costs import _marginal as marginal
from ..errors import InternalInvariantError, InvalidInputError, WrongClassError
from ..fairness import Allocation
from ..instances import CLASS_RANK, Instance, proves
from ..itemset import ItemSet, iter_items, size
from ..reports import GuaranteeTag, SolveReport, _prove

# Ground sets at most this large get their declared class verified
# exhaustively before a solver trusts it.
VERIFY_MAX_M = 12


def ensure_class(inst: Instance, required: str) -> None:
    """Gate an instance for a solver that assumes membership in ``required``.

    The declaration must not be broader than the solver handles.  Every
    agent must then be proved "general" (binary marginals) by
    :func:`proves`, at every ground-set size: the solvers' shortcuts rest
    on marginals of at most 1, and for a ``Table`` the test reads a flag
    computed at construction.  On small ground sets every agent is then
    proved to lie in ``required``; on larger ones an explicit table, the
    only agent that can be declared narrower than it is, rides on the
    declaration (runtime invariant checks inside the solvers catch
    mis-declared inputs there).  The one exception is additivity, which no
    runtime check can see but Pareto optimality rests on: tables are
    proved additive at every size they support.  A table keeps each
    verdict, which :func:`certify` then reads.
    """
    if CLASS_RANK[inst.declared_class] > CLASS_RANK[required]:
        raise WrongClassError(
            f"instance is declared {inst.declared_class!r}, solver requires "
            f"{required!r} or narrower"
        )
    # "general" is proved by the first test alone
    narrow = required != "general" and (inst.m <= VERIFY_MAX_M or required == "additive")
    for i, fn in enumerate(inst.agents):
        if not proves(fn, "general"):
            raise WrongClassError(f"agents[{i}] has marginals outside {{0, 1}}")
        witnesses: dict = {}
        if narrow and not proves(fn, required, witnesses):
            raise WrongClassError(
                f"agents[{i}] is declared {inst.declared_class!r} but is not "
                f"{required} (witness: {witnesses.get(required)})"
            )


def finish(
    inst: Instance,
    algorithm: str,
    guarantee: GuaranteeTag,
    bundles: list[ItemSet],
    ops: OpCounter,
    tr: Trace,
    counters: dict[str, int],
    verify: bool,
    notes: tuple[str, ...] = (),
) -> SolveReport:
    """The tail every solver shares: allocation, self-check, report.

    Items in no bundle are the unallocated pool.  One uncounted pass
    re-proves every property the tag promises on the original cost
    functions, so ``evals`` counts the solve alone, and the first that
    fails, Pareto optimality aside, aborts the run.  Only with ``verify``
    is Pareto optimality decided and the pass's certificate attached.
    """
    alloc = Allocation.make(inst.n, inst.m, bundles)
    cert = _prove(inst, alloc, guarantee, po_asked=verify)
    failed = [name for name in cert.failures if name != "po"]
    if failed:
        raise InternalInvariantError(
            f"{algorithm} output fails the {failed[0]!r} check of its "
            f"{guarantee.value!r} tag"
        )
    counters["evals"] = ops.evals
    return SolveReport(
        algorithm=algorithm,
        allocation=alloc,
        guarantee=guarantee,
        counters=counters,
        trace=tr.events,
        verification=cert if verify else None,
        notes=notes,
    )


class Trace:
    """Optional JSON-line event recorder; a no-op unless enabled."""

    __slots__ = ("events",)

    def __init__(self, enabled: bool):
        self.events: list[dict] | None = [] if enabled else None

    def emit(self, event: str, **data) -> None:
        if self.events is not None:
            self.events.append({"event": event, **data})


def check_items(m: int, masks: Iterable[ItemSet]) -> None:
    """Refuse item sets out of range for a ground set of size ``m`` or
    overlapping one another.

    The solver loops call it once on the sets a caller hands them; every
    query they ask afterwards goes through :class:`OpCounter` unchecked.
    """
    seen = 0
    for mask in masks:
        _check_mask(m, mask)
        if seen & mask:
            raise InvalidInputError(f"item set {bin(mask)} overlaps another given item set")
        seen |= mask


def unit_to_all(
    ops: OpCounter, funcs: Sequence, bases: Sequence, pool: ItemSet, debug: bool = False
) -> Iterator[int]:
    """Yield, in index order, the items of ``pool`` that every agent prices
    at 1 on top of her base, from one set of free items per agent, each
    charged as the paper's scan asks it: one agent, then the others in
    index order up to the first who refuses it.  An agent who refused two
    items in a row is asked first until another does: she tends to refuse
    the next item too, and the order changes no verdict.  (Switching after
    one refusal costs an extra query whenever she accepts an item a lower
    agent refuses.)  ``debug`` replays the scan uncounted."""
    n = len(funcs)
    free = [_free_items(fn, base, pool) for fn, base in zip(funcs, bases)]
    first, last = 0, None
    for e in iter_items(pool):
        bit = 1 << e
        refuser = first if free[first] & bit else next((i for i in range(n) if free[i] & bit), None)
        asked = 1 if refuser == first else n if refuser is None else refuser + 2 - (first < refuser)
        ops.charge(asked)
        if debug:
            order = [first, *(i for i in range(n) if i != first)]
            steps = (marginal(funcs[i], e, bases[i]) for i in order)
            k = next((k for k, step in enumerate(steps) if step != 1), n)
            if (order[k] if k < n else None, min(k + 1, n)) != (refuser, asked):
                raise InternalInvariantError(f"item {e}: the free sets and the scan disagree")
        if refuser is None:
            yield e
        elif refuser == last:
            first = refuser
        last = refuser


def evaluate(fn: CostFunction, mask: ItemSet) -> int:
    """c(mask) with no range check: the counted path's price primitive."""
    return fn.value(mask)


class OpCounter:
    """Counts cost-oracle queries in the paper's item-by-item model, the
    unit reported by the benchmarks.

    ``evaluate`` and ``marginal`` call this module's unchecked functions of
    the same names (the closed form, or the value difference for a protocol
    object without one), looked up per call so that a wrapper put on those
    names still sees them.  Set-level reads (``charge``, ``least_drop``)
    count what their scans ask.  Masks are the caller's to validate.
    """

    __slots__ = ("evals",)

    def __init__(self) -> None:
        self.evals = 0

    def evaluate(self, fn: CostFunction, mask: ItemSet) -> int:
        self.evals += 1
        return evaluate(fn, mask)

    def marginal(self, fn: CostFunction, item: int, mask: ItemSet) -> int:
        self.evals += 1
        return marginal(fn, item, mask)

    def charge(self, k: int) -> None:
        self.evals += k

    def least_drop(self, fn: CostFunction, mask: ItemSet) -> int:
        self.evals += size(mask)
        return _least_drop(fn, mask)


__all__ = ["VERIFY_MAX_M", "ensure_class", "finish", "check_items", "Trace", "OpCounter"]
