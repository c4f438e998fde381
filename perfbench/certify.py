"""Independent checks of every output the benchmark receives.

Solver outputs are re-proved from the instance and the allocation alone:
the tag decides which properties must hold, and each is recomputed with
the package's standalone checkers.  Oracle answers are checked against
each other and, once per run, against plain enumeration on a tiny
instance.  Nothing here looks at how the program reached its answer.
"""

from __future__ import annotations

from chorefair import (
    Additive,
    Allocation,
    analyze,
    check_class,
    enumerate_allocations,
    evaluate,
    is_alpha_ef,
    is_alpha_efx,
    is_po_bruteforce,
    social_cost,
)
from chorefair.costs import value_table
from chorefair.oracle import EnumerationReport

# Pareto optimality is scanned by brute force up to this many allocations,
# and certified through the additive social-cost floor beyond it.
PO_SCAN_MAX = 10**6
# Past PO_SCAN_MAX, a function that is not provably additive still gets a
# brute-force scan up to this size before the claim counts as unprovable.
PO_SCAN_FALLBACK_MAX = 10**7

# Properties each guarantee tag promises.
TAG_CHECKS = {
    "efx+po": ("complete", "efx", "po"),
    "efx": ("complete", "efx"),
    "2-ef": ("complete", "2-ef", "2-efx"),
    "2-efx": ("complete", "2-efx"),
    "partial-ef": ("ef", "leftover"),
}


def _provably_additive(inst) -> bool:
    return all(
        isinstance(fn, Additive) or (fn.m <= 20 and check_class(fn).additive)
        for fn in inst.agents
    )


def _pareto_optimal(inst, alloc: Allocation) -> bool:
    if not alloc.complete:
        return False
    total = inst.n**inst.m
    if total <= PO_SCAN_MAX:
        return is_po_bruteforce(inst, alloc, limit=PO_SCAN_MAX)[0]
    if _provably_additive(inst):
        # Every complete allocation pays at least the cheapest agent's price
        # for each item; an allocation meeting that floor is undominated.
        floor = sum(min(evaluate(fn, 1 << e) for fn in inst.agents) for e in range(inst.m))
        return social_cost(inst, alloc) == floor
    if total <= PO_SCAN_FALLBACK_MAX:
        return is_po_bruteforce(inst, alloc, limit=PO_SCAN_FALLBACK_MAX)[0]
    return False


_CHECKS = {
    "complete": lambda inst, a: a.complete,
    "efx": lambda inst, a: is_alpha_efx(inst, a, 1)[0],
    "ef": lambda inst, a: is_alpha_ef(inst, a, 1)[0],
    "2-ef": lambda inst, a: is_alpha_ef(inst, a, 2)[0],
    "2-efx": lambda inst, a: is_alpha_efx(inst, a, 2)[0],
    "leftover": lambda inst, a: a.unallocated.bit_count() <= inst.n - 1,
    "po": _pareto_optimal,
}


def certify_allocation(inst, alloc: Allocation, tag: str) -> list[str]:
    """Names of the properties ``tag`` promises that ``alloc`` lacks."""
    if (alloc.n, alloc.m) != (inst.n, inst.m):
        return ["shape"]
    checks = TAG_CHECKS.get(tag)
    if checks is None:
        return [f"unknown tag {tag!r}"]
    return [name for name in checks if not _CHECKS[name](inst, alloc)]


# ---------------------------------------------------------------------------
# Oracle answers
# ---------------------------------------------------------------------------


def check_full_report(inst, rep: EnumerationReport) -> list[str]:
    """Cross-check the sections of an all-sections report against each other."""
    if rep.total_allocations != inst.n**inst.m:
        return ["total"]
    if None in (rep.efx_allocations, rep.pareto_frontier, rep.efx_and_po_exists, rep.min_social_cost):
        return ["missing section"]
    failures = []
    efx, front = rep.efx_allocations, rep.pareto_frontier
    efx_keys = {a.bundles for a in efx}
    if rep.efx_and_po_exists != any(a.bundles in efx_keys for a in front):
        failures.append("efx-po flag vs list intersection")
    tables = [value_table(fn, max_m=26) for fn in inst.agents]
    front_min = min(
        sum(int(t[b]) for t, b in zip(tables, a.bundles)) for a in front
    ) if front else None
    if rep.min_social_cost != front_min:
        failures.append("min social cost vs frontier")
    for a in (efx[:1] + efx[-1:]):
        if not is_alpha_efx(inst, a, 1)[0]:
            failures.append("listed allocation is not efx")
    if front and not is_po_bruteforce(inst, front[0], limit=PO_SCAN_FALLBACK_MAX)[0]:
        failures.append("frontier allocation is dominated")
    return failures


def check_answer(kind: str, inst, answer, ref: EnumerationReport) -> list[str]:
    """Check a min-sc, efx-po or efx-exists answer against a certified all-sections report."""
    if kind == "min-sc":
        return [] if answer.min_social_cost == ref.min_social_cost else ["min social cost"]
    if kind == "efx-po":
        return [] if answer.efx_and_po_exists == ref.efx_and_po_exists else ["efx-po flag"]
    exists, witness = answer
    if exists != bool(ref.efx_allocations):
        return ["efx existence vs efx list"]
    if exists and (
        witness is None
        or witness.bundles != ref.efx_allocations[0].bundles
        or not is_alpha_efx(inst, witness, 1)[0]
    ):
        return ["efx witness"]
    return []


def enumeration_check(inst) -> list[str]:
    """Compare ``analyze`` with plain enumeration on a tiny instance."""
    allocs: list[Allocation] = []
    enumerate_allocations(inst, allocs.append)
    vectors = [tuple(evaluate(fn, b) for fn, b in zip(inst.agents, a.bundles)) for a in allocs]

    def dominated(v):
        return any(all(x <= y for x, y in zip(w, v)) and w != v for w in vectors)

    efx = [a.bundles for a in allocs if is_alpha_efx(inst, a, 1)[0]]
    front = [a.bundles for a, v in zip(allocs, vectors) if not dominated(v)]
    rep = analyze(inst)
    failures = []
    if [a.bundles for a in rep.efx_allocations] != efx:
        failures.append("efx list")
    if [a.bundles for a in rep.pareto_frontier] != front:
        failures.append("pareto frontier")
    if rep.efx_and_po_exists != bool(set(efx) & set(front)):
        failures.append("efx-po flag")
    if rep.min_social_cost != min(sum(v) for v in vectors):
        failures.append("min social cost")
    return failures
