"""Spans and counts at the package's layer boundaries, for the traced run.

The tracer wraps public functions at the module attributes the package
calls them through (``chorefair.solvers.cancelable.phase2`` is the name
``solve_cancelable`` looks up, for instance), so no file of the package
changes.  Wrappers are installed only for the traced run and removed after
it; they record nothing outside a request, so the benchmark's own checks
never show up in the numbers.

A span is ``[name, start, end, parent index, request id]``.  A layer's
self time is its span time minus the time of its direct child spans.
Reduced times are scaled by their request's speed factor (see run.py).
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module, attribute, span name).  Attributes a module lacks are skipped,
# so a layer that a later version removes simply reads 0.
SPAN_PATCHES = (
    ("chorefair.instances", "parse_instance", "instances.parse"),
    ("chorefair.solvers.common", "check_class", "costs.check_class"),
    ("chorefair.solvers.additive", "ensure_class", "solvers.ensure_class"),
    ("chorefair.solvers.cancelable", "ensure_class", "solvers.ensure_class"),
    ("chorefair.solvers.submodular", "ensure_class", "solvers.ensure_class"),
    ("chorefair.solvers.general", "ensure_class", "solvers.ensure_class"),
    ("chorefair.solvers.cancelable", "phase1", "solvers.cancelable.phase1"),
    ("chorefair.solvers.cancelable", "phase2", "solvers.cancelable.phase2"),
    ("chorefair.solvers.submodular", "phase2", "solvers.cancelable.phase2"),
    ("chorefair.solvers.general", "run_envy_loop", "solvers.general.envy_loop"),
    ("chorefair.solvers.submodular", "run_envy_loop", "solvers.general.envy_loop"),
    ("chorefair.solvers.cancelable", "is_efx_funcs", "fairness.is_efx_funcs"),
    ("chorefair.solvers.additive", "is_efx_funcs", "fairness.is_efx_funcs"),
    ("chorefair.solvers.additive", "is_alpha_efx", "fairness.self_check"),
    ("chorefair.solvers.cancelable", "is_alpha_efx", "fairness.self_check"),
    ("chorefair.solvers.submodular", "is_alpha_efx", "fairness.self_check"),
    ("chorefair.solvers.submodular", "is_alpha_ef", "fairness.self_check"),
    ("chorefair.solvers.general", "is_alpha_ef", "fairness.self_check"),
    ("chorefair.cli", "is_alpha_efx", "fairness.verify"),
    ("chorefair.cli", "is_alpha_ef", "fairness.verify"),
    ("chorefair.cli", "social_cost", "fairness.verify"),
    ("chorefair.cli", "partition_items", "fairness.verify"),
    ("chorefair.cli", "is_po_bruteforce", "fairness.po_scan"),
    ("chorefair.costs", "value_table", "costs.value_table"),
    ("chorefair.fairness", "value_table", "costs.value_table"),
    ("chorefair.oracle", "value_table", "costs.value_table"),
)

# Every cost query made from fairness and from the solvers' counted path.
QUERY_PATCHES = (
    ("chorefair.fairness", "evaluate"),
    ("chorefair.solvers.common", "evaluate"),
    ("chorefair.solvers.common", "marginal"),
)


def allocation_rank(alloc) -> int:
    """Enumeration rank of a complete allocation (item 0 most significant)."""
    owner = {}
    for i, bundle in enumerate(alloc.bundles):
        rest = bundle
        while rest:
            low = rest & -rest
            owner[low.bit_length() - 1] = i
            rest ^= low
    rank = 0
    for e in range(alloc.m):
        rank = rank * alloc.n + owner[e]
    return rank


class Tracer:
    """In-memory span recorder plus the counters kept at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.queries = 0
        # request id -> factor scaling its spans to the reference speed
        self.scale: dict[str, float] = {}
        self._stack: list[int] = []
        self._request: str | None = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, 0.0, 0.0, parent, self._request]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def request(self, rid: str, name: str):
        """The span of one whole request; layer wrappers record only inside one."""
        self._request = rid
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)
            self._request = None

    def _span_wrapper(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            # a hook runs once before the call (no result yet) and once
            # after it, receiving what it returned the first time
            before = after(args, kwargs, None, None) if after else None
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                after(args, kwargs, result, before)
            return result

        return wrapper

    def _query_wrapper(self, fn):
        # called hundreds of thousands of times per round: keep it lean
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._request is not None:
                self.queries += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        hooks = {
            "solvers.cancelable.phase2": self._iterations("solvers.phase2_iterations"),
            "solvers.general.envy_loop": self._iterations("solvers.envy_loop_iterations"),
            "fairness.po_scan": self._po_scan,
        }
        for module_name, attr, name in SPAN_PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                fn = getattr(module, attr)
                self._patch(module, attr, self._span_wrapper(name, fn, hooks.get(name)))
        for module_name, attr in QUERY_PATCHES:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._patch(module, attr, self._query_wrapper(getattr(module, attr)))
        # solve_auto and the CLI dispatch through this dict at call time.
        solvers = importlib.import_module("chorefair.solvers").SOLVERS
        for cls, fn in list(solvers.items()):
            self._undo.append((solvers, cls, fn))
            solvers[cls] = self._span_wrapper(f"solvers.{cls}", fn)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)

    def _iterations(self, counter: str):
        """Hook reading the loop's ``counters["iterations"]`` before and after."""

        def hook(args, kwargs, result, before):
            counters = kwargs.get("counters")
            now = counters.get("iterations", 0) if isinstance(counters, dict) else 0
            if before is not None:
                self.counts[counter] += now - before
            return now

        return hook

    def _po_scan(self, args, kwargs, result, before):
        if result is None:
            return None
        inst = args[0]
        ok, dominator = result
        self.counts["fairness.po_scan_allocations"] += (
            inst.n**inst.m if ok else allocation_rank(dominator) + 1
        )
        return None

    # -- reduction ---------------------------------------------------------

    def _children(self) -> list[list[int]]:
        kids: list[list[int]] = [[] for _ in self.spans]
        for idx, span in enumerate(self.spans):
            if span[3] is not None:
                kids[span[3]].append(idx)
        return kids

    def inclusive_ms(self, name: str) -> float:
        """Time inside spans called ``name``, nested repeats counted once."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent is None:
                total += (span[2] - span[1]) * self.scale.get(span[4], 1.0)
        return total * 1000.0

    def self_ms(self, name: str) -> float:
        """Time inside spans called ``name`` not covered by a direct child."""
        kids = self._children()
        total = 0.0
        for idx, span in enumerate(self.spans):
            if span[0] == name:
                child = sum(self.spans[k][2] - self.spans[k][1] for k in kids[idx])
                total += (span[2] - span[1] - child) * self.scale.get(span[4], 1.0)
        return total * 1000.0

    def calls(self, name: str) -> int:
        return sum(1 for span in self.spans if span[0] == name)

    def write(self, path: Path) -> None:
        fields = ("name", "start", "end", "parent", "request")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": [dict(zip(fields, s)) for s in self.spans]}, fh)
            fh.write("\n")
