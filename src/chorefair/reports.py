"""Solver output: guarantee tags and the report wrapper."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .fairness import Allocation, FairnessReport


class GuaranteeTag(Enum):
    """What a solver promises about its output.

    Tags are only attached after the matching checker has confirmed the
    property on the concrete allocation; a tag is never taken on faith.
    """

    EFX_AND_PO = "efx+po"
    EFX = "efx"
    PARTIAL_EF = "partial-ef"
    TWO_EF = "2-ef"


@dataclass
class SolveReport:
    algorithm: str
    allocation: Allocation
    guarantee: GuaranteeTag
    counters: dict[str, int] = field(default_factory=dict)
    trace: list[dict] | None = None
    verification: FairnessReport | None = None
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


__all__ = ["GuaranteeTag", "SolveReport"]
