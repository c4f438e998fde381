"""Solver output: guarantee tags, the properties each promises, the report.

One table, :data:`TAG_CHECKS`, says which properties a tag promises, and
one pass over one price matrix re-proves them.  The solvers run it on the
original cost functions before they return, :func:`certify` runs it for
anyone holding an instance and a report, and :func:`_pareto` alone decides
Pareto optimality, for both and for the CLI's ``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import fairness, oracle
from .errors import InvalidInputError
from .fairness import Allocation
from .instances import Instance, proves
from .itemset import size

# Above this many complete allocations, a certificate does not scan for
# Pareto optimality; unless the floor decides it, ``po`` fails unproved.
PO_SCAN_LIMIT = 10**6


class GuaranteeTag(Enum):
    """What a solver promises about its output.

    Tags are only attached after the matching checker has confirmed the
    property on the concrete allocation; a tag is never taken on faith.
    """

    EFX_AND_PO = "efx+po"
    EFX = "efx"
    PARTIAL_EF = "partial-ef"
    TWO_EF = "2-ef"


class Promise(NamedTuple):
    """Properties a tag implies, in the order they are checked and reported;
    with ``po_note`` a cheap Pareto scan that fails adds the note "not PO"."""

    checks: tuple[str, ...]
    po_note: bool = False


TAG_CHECKS: dict[GuaranteeTag, Promise] = {
    GuaranteeTag.EFX_AND_PO: Promise(("complete", "efx", "minimal-social-cost", "po")),
    GuaranteeTag.EFX: Promise(("complete", "efx"), po_note=True),
    GuaranteeTag.TWO_EF: Promise(("complete", "2-ef", "2-efx")),
    GuaranteeTag.PARTIAL_EF: Promise(("ef", "leftover-at-most-n-minus-1")),
}


def _additive_floor(inst: Instance) -> int:
    """Items no agent takes for free; under binary additive costs every
    complete allocation costs at least one per such item."""
    return sum(all(fairness.evaluate(fn, 1 << e) for fn in inst.agents) for e in range(inst.m))


def _minimal_social_cost(inst: Instance, alloc: Allocation) -> bool:
    """The allocation costs the least social cost of any complete one.

    That least cost is the additive floor when every agent is proved
    binary additive, the one agent's price of every item when there is
    one agent, and the oracle's exact minimum when n^m <= PO_SCAN_LIMIT;
    anywhere else the property is unproved and fails, as ``po`` does.
    """
    cost = fairness.social_cost(inst, alloc)
    if _binary_additive(inst):
        return cost == _additive_floor(inst)
    if inst.n == 1:
        return cost == fairness.evaluate(inst.agents[0], (1 << inst.m) - 1)
    if inst.n**inst.m <= PO_SCAN_LIMIT:
        return cost == oracle.analyze(inst, sections=("min-sc",)).min_social_cost
    return False


@dataclass(frozen=True)
class Certificate:
    """Outcome of re-proving a tag: each promised property, in table order."""

    tag: GuaranteeTag
    checks: dict[str, bool]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    @property
    def failures(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    def to_json(self) -> dict:
        return {"tag": self.tag.value, "checks": dict(self.checks), "passed": self.passed}


@dataclass
class SolveReport:
    algorithm: str
    allocation: Allocation
    guarantee: GuaranteeTag
    counters: dict[str, int] = field(default_factory=dict)
    trace: list[dict] | None = None
    verification: Certificate | None = None
    notes: tuple[str, ...] = ()

    @property
    def complete(self) -> bool:
        return self.allocation.complete

    def to_json(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "guarantee": self.guarantee.value,
            "complete": self.complete,
            "allocation": self.allocation.to_json(),
            "counters": dict(self.counters),
            "notes": list(self.notes),
            "verification": self.verification.to_json() if self.verification else None,
        }


def _binary_additive(inst: Instance) -> bool:
    """Every agent is proved additive with item costs in {0, 1}."""
    return all(proves(fn, "additive") for fn in inst.agents)


def _pareto(inst: Instance, alloc: Allocation, limit: int) -> tuple[bool | None, Allocation | None]:
    """PO of the complete ``alloc`` and a dominator if one is known, or
    (None, None): proved binary additive agents are PO iff at the floor,
    and above it the lowest item whose holder pays 1 moves to the lowest
    agent paying 0 (one price falls, none rises); any others are scanned
    if n^m <= ``limit``.  One agent is PO by either rule.
    """
    if not alloc.complete:
        raise InvalidInputError("Pareto check requires a complete allocation")
    if _binary_additive(inst):
        if fairness.social_cost(inst, alloc) == _additive_floor(inst):
            return True, None
        pays = [[fairness.evaluate(fn, 1 << e) for fn in inst.agents] for e in range(inst.m)]
        owner = [next(i for i, b in enumerate(alloc.bundles) if b >> e & 1) for e in range(inst.m)]
        e = next(e for e in range(inst.m) if pays[e][owner[e]] > min(pays[e]))
        owner[e] = pays[e].index(0)
        return False, Allocation.from_assignment(inst.n, inst.m, owner)
    if inst.n**inst.m <= limit:
        # looked up at call time, so that a wrapper put on it sees the scan
        return fairness.is_po_bruteforce(inst, alloc, limit)
    return None, None


def _prove(inst: Instance, alloc: Allocation, tag: GuaranteeTag, po_asked: bool) -> Certificate:
    """Re-prove every property ``tag`` promises for ``alloc``, in one pass:
    the envy properties off one uncounted :class:`CostMatrix`, the social
    cost and its least value priced once, and Pareto optimality, with the
    "not PO" note, only when ``po_asked`` (else ``po`` is left out).  Never
    raises on a failed property; the certificate records it.
    """
    fairness._check_consistent(inst, alloc)
    matrix = fairness.CostMatrix(inst.agents, alloc.bundles)
    promise = TAG_CHECKS[tag]
    wants_po = po_asked and ("po" in promise.checks or promise.po_note)
    po = alloc.complete and _pareto(inst, alloc, PO_SCAN_LIMIT)[0] if wants_po else None
    # binary additive: complete and PO iff at the floor, which ``po`` priced
    floor_read = po is not None and alloc.complete and _binary_additive(inst)
    proofs = {
        "complete": lambda: alloc.complete,
        "ef": lambda: not matrix.ef_violations(1),
        "efx": matrix.is_efx,
        "2-ef": lambda: not matrix.ef_violations(2),
        "2-efx": lambda: not matrix.efx_violations(2),
        "minimal-social-cost": lambda: po if floor_read else _minimal_social_cost(inst, alloc),
        "leftover-at-most-n-minus-1": lambda: size(alloc.unallocated) <= inst.n - 1,
        "po": lambda: bool(po),
    }
    checks = {name: proofs[name]() for name in promise.checks if po_asked or name != "po"}
    notes = ("not PO",) if promise.po_note and po is False else ()
    return Certificate(tag=tag, checks=checks, notes=notes)


def certify(inst: Instance, report: SolveReport) -> Certificate:
    """Re-prove every property the report's tag promises, from the instance
    and the allocation alone.

    Pareto optimality is decided by :func:`_pareto` up to PO_SCAN_LIMIT;
    unproved, ``po`` fails and no "not PO" note is added.
    """
    return _prove(inst, report.allocation, report.guarantee, po_asked=True)


__all__ = [
    "Certificate",
    "GuaranteeTag",
    "PO_SCAN_LIMIT",
    "Promise",
    "SolveReport",
    "TAG_CHECKS",
    "certify",
]
