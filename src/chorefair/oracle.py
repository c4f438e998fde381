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

from .costs import value_table
from .errors import InvalidInputError, UnsupportedSizeError
from .fairness import (
    DEFAULT_ENUMERATION_LIMIT,
    ENUMERATION_HARD_CAP,
    Allocation,
    _assignment_masks,
    allocation_from_rank,
)
from .instances import Instance, instance_to_json

SECTIONS = ("efx", "frontier", "efx-po", "min-sc")

_DEFAULT_CHUNK = 1 << 16


@dataclass
class EnumerationReport:
    """Everything the exhaustive scan can say about an instance.

    The two lists hold every qualifying allocation in ascending rank
    order; on permissive limits they can get large (the scan caps out at
    10^7 allocations, all of which could qualify), so callers who only
    need the booleans should restrict ``sections``.
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


def _check_size(inst: Instance, limit: int) -> int:
    if limit < 1:
        raise InvalidInputError(f"limit must be positive, got {limit}")
    if limit > ENUMERATION_HARD_CAP:
        raise InvalidInputError(f"limit exceeds the hard cap of {ENUMERATION_HARD_CAP}")
    total = inst.n**inst.m
    if total > limit:
        raise UnsupportedSizeError(
            f"{inst.n}^{inst.m} = {total} complete allocations exceed the "
            f"limit of {limit}"
        )
    return total


def enumerate_allocations(
    inst: Instance,
    visitor: Callable[[Allocation], None],
    limit: int = DEFAULT_ENUMERATION_LIMIT,
) -> None:
    """Call ``visitor`` on every complete allocation, in rank order.

    This is the slow, obviously-correct route kept deliberately separate
    from the vectorised scan so the two can check each other.
    """
    total = _check_size(inst, limit)
    n, m = inst.n, inst.m
    for rank in range(total):
        visitor(allocation_from_rank(n, m, rank))


@dataclass
class _ScanTables:
    """Dense per-agent lookup tables driving the vectorised scan."""

    cost: list[np.ndarray]
    worst_drop: list[np.ndarray]

    @classmethod
    def build(cls, inst: Instance) -> "_ScanTables":
        cost = [value_table(fn, max_m=26).astype(np.int32) for fn in inst.agents]
        worst = []
        for table in cost:
            wd = np.zeros_like(table)
            masks = np.arange(len(table), dtype=np.int64)
            for e in range(inst.m):
                bit = 1 << e
                has = (masks & bit) != 0
                wd[has] = np.maximum(wd[has], table[masks[has] ^ bit])
            worst.append(wd)
        return cls(cost=cost, worst_drop=worst)


def _chunk_stats(
    inst: Instance,
    tables: _ScanTables,
    ranks: np.ndarray,
    frontier_vectors: set[tuple[int, ...]] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Cost matrix, EFX mask, social costs and frontier mask for a rank chunk."""
    n = inst.n
    masks = _assignment_masks(n, inst.m, ranks)
    rows = np.stack([tables.cost[i][masks[i]] for i in range(n)], axis=1)
    social = rows.sum(axis=1)
    efx = np.ones(len(ranks), dtype=bool)
    if n > 1:
        for i in range(n):
            wd = tables.worst_drop[i][masks[i]]
            others = np.min(
                np.stack([tables.cost[i][masks[j]] for j in range(n) if j != i]),
                axis=0,
            )
            efx &= wd <= others
    member = None
    if frontier_vectors is not None:
        uniq, inverse = np.unique(rows, axis=0, return_inverse=True)
        flags = np.array(
            [tuple(int(x) for x in row) in frontier_vectors for row in uniq],
            dtype=bool,
        )
        member = flags[inverse.reshape(-1)]
    return rows, efx, social, member


def _scan_range(
    inst: Instance,
    start: int,
    stop: int,
    frontier_vectors: set[tuple[int, ...]] | None,
    want_efx_ranks: bool,
    chunk: int,
) -> dict:
    """One contiguous rank range; the unit of parallel work."""
    tables = _ScanTables.build(inst)
    vectors: set[tuple[int, ...]] = set()
    min_sc: int | None = None
    efx_ranks: list[np.ndarray] = []
    frontier_ranks: list[np.ndarray] = []
    intersects = False
    for lo in range(start, stop, chunk):
        ranks = np.arange(lo, min(lo + chunk, stop), dtype=np.int64)
        rows, efx, social, member = _chunk_stats(inst, tables, ranks, frontier_vectors)
        uniq = np.unique(rows, axis=0)
        vectors.update(tuple(int(x) for x in row) for row in uniq)
        low = int(social.min()) if len(social) else None
        if low is not None and (min_sc is None or low < min_sc):
            min_sc = low
        if want_efx_ranks and efx.any():
            efx_ranks.append(ranks[efx])
        if member is not None:
            if member.any():
                frontier_ranks.append(ranks[member])
            if bool((efx & member).any()):
                intersects = True
    return {
        "vectors": vectors,
        "min_sc": min_sc,
        "efx_ranks": efx_ranks,
        "frontier_ranks": frontier_ranks,
        "intersects": intersects,
    }


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
    frontier_vectors: set[tuple[int, ...]] | None,
    want_efx_ranks: bool,
    chunk: int,
) -> list[dict]:
    ranges = _split_ranges(total, jobs)
    if len(ranges) <= 1:
        return [
            _scan_range(inst, lo, hi, frontier_vectors, want_efx_ranks, chunk)
            for lo, hi in ranges
        ]
    with ProcessPoolExecutor(max_workers=len(ranges)) as pool:
        futures = [
            pool.submit(_scan_range, inst, lo, hi, frontier_vectors, want_efx_ranks, chunk)
            for lo, hi in ranges
        ]
        return [f.result() for f in futures]


def analyze(
    inst: Instance,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    jobs: int = 1,
    sections: Iterable[str] = SECTIONS,
    chunk: int = _DEFAULT_CHUNK,
) -> EnumerationReport:
    """Exhaustive report over all complete allocations.

    ``sections`` selects what to compute: "efx" and "frontier" materialise
    allocation lists, "efx-po" the intersection flag (forces the frontier
    pass), "min-sc" the social-cost minimum.  Results are deterministic
    and independent of ``jobs`` and ``chunk``; ``jobs`` is capped at the
    machine's CPU count.
    """
    wanted = set(sections)
    unknown = wanted.difference(SECTIONS)
    if unknown:
        raise InvalidInputError(f"unknown report sections: {sorted(unknown)}")
    total = _check_size(inst, limit)
    n, m = inst.n, inst.m
    if chunk < 1:
        raise InvalidInputError("chunk size must be positive")
    if jobs < 1:
        raise InvalidInputError(f"jobs must be positive, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)

    report = EnumerationReport(total_allocations=total)
    first = _run_ranges(inst, total, jobs, None, "efx" in wanted, chunk)
    vectors: set[tuple[int, ...]] = set()
    for part in first:
        vectors.update(part["vectors"])
    if "min-sc" in wanted:
        report.min_social_cost = min(part["min_sc"] for part in first)
    if "efx" in wanted:
        ranks = np.concatenate(
            [arr for part in first for arr in part["efx_ranks"]] or [np.array([], dtype=np.int64)]
        )
        report.efx_allocations = [allocation_from_rank(n, m, int(r)) for r in ranks]

    if "frontier" in wanted or "efx-po" in wanted:
        frontier_vectors = _nondominated(vectors)
        second = _run_ranges(inst, total, jobs, frontier_vectors, False, chunk)
        if "frontier" in wanted:
            ranks = np.concatenate(
                [arr for part in second for arr in part["frontier_ranks"]]
                or [np.array([], dtype=np.int64)]
            )
            report.pareto_frontier = [allocation_from_rank(n, m, int(r)) for r in ranks]
        if "efx-po" in wanted:
            report.efx_and_po_exists = any(part["intersects"] for part in second)
    return report


def efx_exists_search(
    inst: Instance,
    limit: int = DEFAULT_ENUMERATION_LIMIT,
    chunk: int = _DEFAULT_CHUNK,
    dump_path: str | None = None,
) -> tuple[bool, Allocation | None]:
    """First removal-stable complete allocation, if any.

    Scans in rank order with early exit.  With ``dump_path`` the instance
    and verdict are written there as JSON either way; for binary
    submodular inputs a negative answer would settle an open existence
    question, so it must never vanish into a log.
    """
    total = _check_size(inst, limit)
    if chunk < 1:
        raise InvalidInputError("chunk size must be positive")
    n, m = inst.n, inst.m
    tables = _ScanTables.build(inst)
    witness: Allocation | None = None
    for lo in range(0, total, chunk):
        ranks = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        _, efx, _, _ = _chunk_stats(inst, tables, ranks, None)
        if efx.any():
            rank = int(ranks[int(np.argmax(efx))])
            witness = allocation_from_rank(n, m, rank)
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
