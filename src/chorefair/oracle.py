"""Brute-force ground truth on small instances.

Walks all n^m complete allocations in lexicographic order of the
item-to-agent assignment vector (item 0 is the most significant digit) and
reports the removal-stable allocations, the Pareto frontier, whether the
two sets intersect, and the minimum social cost.  The scan is vectorised
over dense per-agent cost tables and can be partitioned across processes;
results are merged in rank order, so worker count never changes a report.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import InvalidInputError
from .fairness import (
    DEFAULT_ENUMERATION_LIMIT,
    Allocation,
    _cost_tables,
    _rank_blocks,
    _scan_size,
    allocation_from_rank,
)
from .instances import Instance, instance_to_json

SECTIONS = ("efx", "frontier", "efx-po", "min-sc")


@dataclass
class EnumerationReport:
    """Everything the exhaustive scan can say about an instance.

    The two lists hold every qualifying allocation in ascending rank
    order; on permissive limits they can get large (the default limit is
    10^7 allocations and the hard cap 10^8, all of which could qualify),
    so callers who only need the booleans should restrict ``sections``.
    """

    total_allocations: int
    efx_allocations: list[Allocation] | None = None
    pareto_frontier: list[Allocation] | None = None
    efx_and_po_exists: bool | None = None
    min_social_cost: int | None = None

    def to_json(self) -> dict:
        return {
            "total_allocations": self.total_allocations,
            "efx_allocations": None
            if self.efx_allocations is None
            else [a.to_json() for a in self.efx_allocations],
            "pareto_frontier": None
            if self.pareto_frontier is None
            else [a.to_json() for a in self.pareto_frontier],
            "efx_and_po_exists": self.efx_and_po_exists,
            "min_social_cost": self.min_social_cost,
        }


def enumerate_allocations(
    inst: Instance,
    visitor: Callable[[Allocation], None],
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> None:
    """Call ``visitor`` on every complete allocation, in rank order.

    This is the slow, obviously-correct route kept deliberately separate
    from the vectorised scan so the two can check each other.
    """
    total = _scan_size(inst, limit)
    n, m = inst.n, inst.m
    for rank in range(total):
        visitor(allocation_from_rank(n, m, rank))


def _worst_drops(table: np.ndarray, m: int) -> np.ndarray:
    """max over e in S of table[S - e] for every mask S, 0 for S empty.

    Viewed as ``reshape(-1, 2, 1 << e)``, the table pairs each mask
    without item e (middle index 0) with the mask plus e (index 1).
    """
    worst = np.zeros_like(table)
    for e in range(m):
        drops = worst.reshape(-1, 2, 1 << e)[:, 1]
        np.maximum(drops, table.reshape(-1, 2, 1 << e)[:, 0], out=drops)
    return worst


def _efx_flags(
    tables: list[np.ndarray], worst: list[np.ndarray], masks: list[np.ndarray]
) -> np.ndarray:
    """Which allocations of a block are removal-stable: each agent's worst
    drop is at most the cheapest bundle of a rival."""
    efx = np.ones(len(masks[0]), dtype=bool)
    for i, (table, drops) in enumerate(zip(tables, worst)):
        others = [table[theirs] for j, theirs in enumerate(masks) if j != i]
        if others:
            efx &= drops[masks[i]] <= np.minimum.reduce(others)
    return efx


def _scan_range(
    inst: Instance,
    start: int,
    stop: int,
    wants: set[str],
    frontier_vectors: set[tuple[int, ...]] | None,
) -> dict:
    """One contiguous rank range; the unit of parallel work.

    ``wants`` names what to collect: "efx" ranks, "min-sc", the distinct
    cost "vectors", and, against ``frontier_vectors``, "frontier" ranks
    and the "efx-po" flag.  Only what it names is computed.
    """
    tables = _cost_tables(inst)
    worst = None
    if wants & {"efx", "efx-po"}:
        worst = [_worst_drops(table, inst.m) for table in tables]
    found: dict = {"efx": [], "frontier": [], "vectors": set(), "min-sc": None, "efx-po": False}
    for first, masks in _rank_blocks(inst.n, inst.m, start, stop):
        efx = None if worst is None else _efx_flags(tables, worst, masks)
        if "efx" in wants:
            found["efx"].append(first + np.flatnonzero(efx))
        if wants == {"efx"}:  # the EFX ranks read no cost rows
            continue
        rows = np.stack([table[mine] for table, mine in zip(tables, masks)], axis=1)
        if "min-sc" in wants:
            low = int(rows.sum(axis=1).min())
            if found["min-sc"] is None or low < found["min-sc"]:
                found["min-sc"] = low
        if "vectors" in wants:
            found["vectors"].update(map(tuple, np.unique(rows, axis=0).tolist()))
        if frontier_vectors is not None:
            uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
            flags = [tuple(row) in frontier_vectors for row in uniq.tolist()]
            member = np.array(flags, dtype=bool)[inverse.reshape(-1)]
            if "frontier" in wants:
                found["frontier"].append(first + np.flatnonzero(member))
            if "efx-po" in wants and (efx & member).any():
                found["efx-po"] = True
    return found


def _nondominated(vectors: set[tuple[int, ...]]) -> set[tuple[int, ...]]:
    """Cost vectors no other vector beats on every coordinate."""
    arr = np.array(sorted(vectors), dtype=np.int64)
    keep = np.ones(len(arr), dtype=bool)
    block = 256
    for lo in range(0, len(arr), block):
        sub = arr[lo : lo + block]
        le = (arr[None, :, :] <= sub[:, None, :]).all(axis=2)
        lt = (arr[None, :, :] < sub[:, None, :]).any(axis=2)
        keep[lo : lo + block] = ~(le & lt).any(axis=1)
    return {tuple(int(x) for x in row) for row in arr[keep]}


def _split_ranges(total: int, jobs: int) -> list[tuple[int, int]]:
    jobs = max(1, min(jobs, total or 1))
    step = -(-total // jobs)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def _run_ranges(
    inst: Instance,
    total: int,
    jobs: int,
    wants: set[str],
    frontier_vectors: set[tuple[int, ...]] | None = None,
) -> list[dict]:
    ranges = _split_ranges(total, jobs)
    if len(ranges) <= 1:
        return [_scan_range(inst, lo, hi, wants, frontier_vectors) for lo, hi in ranges]
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [
            pool.submit(_scan_range, inst, lo, hi, wants, frontier_vectors) for lo, hi in ranges
        ]
        return [f.result() for f in futures]


def _allocations(n: int, m: int, parts: list[dict], key: str) -> list[Allocation]:
    return [
        allocation_from_rank(n, m, int(rank))
        for part in parts
        for ranks in part[key]
        for rank in ranks
    ]


def analyze(
    inst: Instance,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    jobs: int = 1,
    sections: Iterable[str] = SECTIONS,
) -> EnumerationReport:
    """Exhaustive report over all complete allocations.

    ``sections`` selects what to compute: "efx" and "frontier" materialise
    allocation lists, "efx-po" the intersection flag, "min-sc" the
    social-cost minimum.  A first pass yields "efx" and "min-sc", and
    collects the distinct cost vectors only when "frontier" or "efx-po"
    is asked for; only those two run the second pass, against the
    non-dominated vectors.  EFX tests run only for "efx" and "efx-po".
    Results are deterministic and independent of ``jobs``; ``jobs`` is
    capped at the machine's CPU count.
    """
    wanted = set(sections)
    unknown = wanted.difference(SECTIONS)
    if unknown:
        raise InvalidInputError(f"unknown report sections: {sorted(unknown)}")
    total = _scan_size(inst, limit)
    if jobs < 1:
        raise InvalidInputError(f"jobs must be positive, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    n, m = inst.n, inst.m

    report = EnumerationReport(total_allocations=total)
    second = wanted & {"frontier", "efx-po"}
    first = wanted & {"efx", "min-sc"} | ({"vectors"} if second else set())
    if first:
        parts = _run_ranges(inst, total, jobs, first)
        if "min-sc" in wanted:
            report.min_social_cost = min(part["min-sc"] for part in parts)
        if "efx" in wanted:
            report.efx_allocations = _allocations(n, m, parts, "efx")
    if second:
        vectors = set().union(*(part["vectors"] for part in parts))
        parts = _run_ranges(inst, total, jobs, second, _nondominated(vectors))
        if "frontier" in wanted:
            report.pareto_frontier = _allocations(n, m, parts, "frontier")
        if "efx-po" in wanted:
            report.efx_and_po_exists = any(part["efx-po"] for part in parts)
    return report


def efx_exists_search(
    inst: Instance,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    dump_path: str | None = None,
) -> tuple[bool, Allocation | None]:
    """First removal-stable complete allocation, if any.

    Scans in rank order with early exit.  With ``dump_path`` the instance
    and verdict are written there as JSON either way; for binary
    submodular inputs a negative answer would settle an open existence
    question, so it must never vanish into a log.
    """
    total = _scan_size(inst, limit)
    tables = _cost_tables(inst)
    worst = [_worst_drops(table, inst.m) for table in tables]
    witness: Allocation | None = None
    for first, masks in _rank_blocks(inst.n, inst.m, 0, total):
        ranks = first + np.flatnonzero(_efx_flags(tables, worst, masks))
        if len(ranks):
            witness = allocation_from_rank(inst.n, inst.m, int(ranks[0]))
            break
    if dump_path is not None:
        payload = {
            "instance": instance_to_json(inst),
            "efx_exists": witness is not None,
            "total_allocations": total,
        }
        if witness is not None:
            payload["witness"] = witness.to_json()
        with open(dump_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return witness is not None, witness


__all__ = [
    "SECTIONS",
    "EnumerationReport",
    "enumerate_allocations",
    "analyze",
    "efx_exists_search",
]
