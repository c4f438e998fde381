"""Solver output: guarantee tags, the properties each promises, the report.

One table, :data:`TAG_CHECKS`, says which properties a tag promises, and
one pass over one price matrix re-proves them.  The solvers run it on the
original cost functions before they return, and :func:`certify` runs it,
Pareto optimality included, for anyone holding an instance and a report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from . import fairness, oracle
from .fairness import Allocation
from .instances import Instance, proves
from .itemset import size

# Above this many complete allocations, Pareto optimality is not scanned
# by brute force; unless the instance is proved binary additive, an efx+po
# tag then fails its unproved ``po``.
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
    by_floor = wants_po and _binary_additive(inst)
    minimal = None
    if by_floor or "minimal-social-cost" in promise.checks:
        minimal = _minimal_social_cost(inst, alloc)
    po: bool | None = None
    if by_floor:
        po = alloc.complete and minimal
    elif wants_po and inst.n**inst.m <= PO_SCAN_LIMIT:
        # looked up at call time, so that a wrapper put on it sees the scan
        po = alloc.complete and fairness.is_po_bruteforce(inst, alloc)[0]
    proofs = {
        "complete": lambda: alloc.complete,
        "ef": lambda: not matrix.ef_violations(1),
        "efx": matrix.is_efx,
        "2-ef": lambda: not matrix.ef_violations(2),
        "2-efx": lambda: not matrix.efx_violations(2),
        "minimal-social-cost": lambda: minimal,
        "leftover-at-most-n-minus-1": lambda: size(alloc.unallocated) <= inst.n - 1,
        "po": lambda: bool(po),
    }
    checks = {name: proofs[name]() for name in promise.checks if po_asked or name != "po"}
    notes = ("not PO",) if promise.po_note and po is False else ()
    return Certificate(tag=tag, checks=checks, notes=notes)


def certify(inst: Instance, report: SolveReport) -> Certificate:
    """Re-prove every property the report's tag promises, from the instance
    and the allocation alone.

    Pareto optimality is decided exactly from the additive floor when every
    agent is proved binary additive, at every size: an allocation at the
    floor has the least social cost, which any Pareto improvement would
    lower, and one above it gives some item to an agent paying 1 for it
    while another pays 0.  Otherwise it is scanned by brute force when n^m
    <= PO_SCAN_LIMIT, and above that it is unproved: ``po`` fails, and no
    "not PO" note is added.
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
