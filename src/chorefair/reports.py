"""Solver output: guarantee tags, the properties each promises, the report.

One table, :data:`TAG_CHECKS`, says which properties a tag promises.  The
solvers re-prove those properties on the original cost functions before
they return, and :func:`certify` re-proves them for anyone holding an
instance and a report, the CLI's ``solve --verify`` included.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from . import fairness
from .fairness import Allocation
from .instances import Instance
from .itemset import size

# Above this many complete allocations, Pareto optimality is not scanned
# by brute force; an efx+po tag then rests on the social-cost minimum.
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
    """Items no agent takes for free; under additive costs every complete
    allocation costs at least one per such item."""
    return sum(all(fairness.evaluate(fn, 1 << e) for fn in inst.agents) for e in range(inst.m))


# Checkers are looked up on the fairness module at call time, so that a
# wrapper put on them (or on its ``evaluate``) sees every query.
CHECKS: dict[str, Callable[[Instance, Allocation], bool]] = {
    "complete": lambda inst, alloc: alloc.complete,
    "ef": lambda inst, alloc: fairness.is_alpha_ef(inst, alloc, 1)[0],
    "efx": lambda inst, alloc: fairness.is_alpha_efx(inst, alloc, 1)[0],
    "2-ef": lambda inst, alloc: fairness.is_alpha_ef(inst, alloc, 2)[0],
    "2-efx": lambda inst, alloc: fairness.is_alpha_efx(inst, alloc, 2)[0],
    "minimal-social-cost": lambda inst, alloc: (
        fairness.social_cost(inst, alloc) == _additive_floor(inst)
    ),
    "leftover-at-most-n-minus-1": lambda inst, alloc: size(alloc.unallocated) <= inst.n - 1,
    "po": lambda inst, alloc: alloc.complete and fairness.is_po_bruteforce(inst, alloc)[0],
}


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


def certify(inst: Instance, report: SolveReport) -> Certificate:
    """Re-prove every property the report's tag promises, from the instance
    and the allocation alone.

    Never raises on a failed property; the certificate records it.  Pareto
    optimality is scanned by brute force when n^m <= PO_SCAN_LIMIT; above
    that an efx+po tag gets a note instead, since the social-cost minimum
    certifies it under additive costs.
    """
    alloc = report.allocation
    promise = TAG_CHECKS[report.guarantee]
    scan_po = inst.n**inst.m <= PO_SCAN_LIMIT
    checks: dict[str, bool] = {}
    notes: list[str] = []
    for name in promise.checks:
        if name == "po" and not scan_po:
            notes.append(
                "po confirmed via the social-cost minimum; ground set too "
                "large for the brute-force scan"
            )
        else:
            checks[name] = CHECKS[name](inst, alloc)
    if promise.po_note and scan_po and not CHECKS["po"](inst, alloc):
        notes.append("not PO")
    return Certificate(tag=report.guarantee, checks=checks, notes=tuple(notes))


__all__ = [
    "CHECKS",
    "Certificate",
    "GuaranteeTag",
    "PO_SCAN_LIMIT",
    "Promise",
    "SolveReport",
    "TAG_CHECKS",
    "certify",
]
