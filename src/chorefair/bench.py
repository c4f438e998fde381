"""Timing and operation-count harness over generated instance grids.

The additive solver should do work proportional to n*m^2 cost-oracle
queries; the reshuffling phase of the cancelable solver should finish
within 2m loop iterations.  Neither claim is provable by measurement, so
the harness fits the constant on the smallest m column and checks the
larger columns against it, reporting wall-clock per instance alongside.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .errors import InvalidInputError
from .instances import generate
from .solvers import solve_auto

DEFAULT_NS = (2, 3, 4, 5, 6)
DEFAULT_MS = (8, 16, 24)
DEFAULT_RUNS = 5


@dataclass
class BenchCell:
    """Aggregated measurements for one (n, m) grid point."""

    n: int
    m: int
    runs: int
    max_evals: int
    mean_evals: float
    max_ms: float
    mean_ms: float
    max_phase2_iterations: int | None = None
    bound: float | None = None
    bound_ok: bool | None = None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "runs": self.runs,
            "max_evals": self.max_evals,
            "mean_evals": round(self.mean_evals, 1),
            "max_ms": round(self.max_ms, 3),
            "mean_ms": round(self.mean_ms, 3),
            "max_phase2_iterations": self.max_phase2_iterations,
            "bound": self.bound,
            "bound_ok": self.bound_ok,
        }


@dataclass
class BenchReport:
    family: str
    cells: list[BenchCell]
    fitted_constant: float | None = None
    all_bounds_ok: bool = True
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "fitted_constant": self.fitted_constant,
            "all_bounds_ok": self.all_bounds_ok,
            "notes": list(self.notes),
            "cells": [c.to_json() for c in self.cells],
        }

    def table(self) -> str:
        head = f"{'n':>3} {'m':>4} {'max evals':>10} {'mean ms':>9} {'max ms':>8} {'bound':>10} {'ok':>3}"
        lines = [head, "-" * len(head)]
        for c in self.cells:
            bound = "-" if c.bound is None else f"{c.bound:.0f}"
            ok = "-" if c.bound_ok is None else ("yes" if c.bound_ok else "NO")
            lines.append(
                f"{c.n:>3} {c.m:>4} {c.max_evals:>10} {c.mean_ms:>9.3f} "
                f"{c.max_ms:>8.3f} {bound:>10} {ok:>3}"
            )
        if self.fitted_constant is not None:
            lines.append(
                f"constant fitted on the m={self.cells[0].m} column: "
                f"{self.fitted_constant:.2f} (evals <= C*n*m^2)"
            )
        return "\n".join(lines)


def run_bench(
    family: str = "binary_additive",
    ns: tuple[int, ...] = DEFAULT_NS,
    ms: tuple[int, ...] = DEFAULT_MS,
    runs: int = DEFAULT_RUNS,
    base_seed: int = 0,
    params: dict | None = None,
) -> BenchReport:
    """Generate, solve and measure a grid of instances.

    Seeds are a deterministic function of the grid position, so repeated
    runs measure identical instances.  For additive-class grids the
    operation bound C*n*m^2 is fitted as the largest per-instance
    evals/(n*m^2) ratio on the smallest m column, then asserted on the
    rest; cancelable-class grids check phase-2 iterations against 2m
    instead.
    """
    if runs < 1:
        raise InvalidInputError(f"runs must be positive, got {runs}")
    ms = tuple(sorted(ms))
    cells: list[BenchCell] = []
    for n in ns:
        for m in ms:
            evals: list[int] = []
            times: list[float] = []
            iters: list[int] = []
            for r in range(runs):
                seed = base_seed + 7919 * (n * 1000 + m) + r
                inst = generate(family, n, m, seed, params=params)
                t0 = time.perf_counter()
                report = solve_auto(inst)
                times.append((time.perf_counter() - t0) * 1000.0)
                evals.append(report.counters.get("evals", 0))
                if "iterations" in report.counters:
                    iters.append(report.counters["iterations"])
            cells.append(
                BenchCell(
                    n=n,
                    m=m,
                    runs=runs,
                    max_evals=max(evals),
                    mean_evals=sum(evals) / len(evals),
                    max_ms=max(times),
                    mean_ms=sum(times) / len(times),
                    max_phase2_iterations=max(iters) if iters else None,
                )
            )

    report = BenchReport(family=family, cells=cells)
    if family == "binary_additive":
        m_fit = ms[0]
        constant = max(
            c.max_evals / (c.n * m_fit**2) for c in cells if c.m == m_fit
        )
        report.fitted_constant = constant
        for c in cells:
            c.bound = constant * c.n * c.m**2
            c.bound_ok = c.max_evals <= c.bound
        report.all_bounds_ok = all(c.bound_ok for c in cells)
        report.notes = (
            f"operation bound fitted on the m={m_fit} column and checked on "
            "the larger columns",
        )
    elif family in ("capped_additive", "cardinality"):
        for c in cells:
            c.bound = 2 * c.m
            c.bound_ok = (c.max_phase2_iterations or 0) <= c.bound
        report.all_bounds_ok = all(c.bound_ok for c in cells)
        report.notes = ("reshuffling-phase iterations checked against 2m",)
    return report


__all__ = [
    "BenchCell",
    "BenchReport",
    "run_bench",
    "DEFAULT_NS",
    "DEFAULT_MS",
    "DEFAULT_RUNS",
]
