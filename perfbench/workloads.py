"""Seeded request lists for the three workloads.

Every workload is a sequence of rounds.  A round is a fixed list of slots
(family, n, m and request kind); the seed, the round number and the slot
index only choose the random parameters of each slot's instance.  Rounds
therefore have the same mix whatever the seed, which keeps runs with
different seeds comparable, while every round still brings fresh inputs.

- ``solve-large``: ``solve_auto`` on closed-form instances at stress sizes.
  Cost queries, phase-2 EFX re-checks and the envy loop do the work; the
  class gate and the oracle do none (m > 12, descriptor kinds prove the
  class).  The additive slots keep n at 2-3: with more agents almost every
  item is free to someone and the round loop never runs.
- ``gate-small``: in-process CLI requests ``solve --input FILE --verify
  --json`` on explicit tables, n 2-3, m 8-13.  Parsing, the exhaustive
  class gate and the re-proof dominate.  m straddles the gate's limit of
  12, and about one request in ten is declared one class narrower than its
  source kind proves.  Those requests all have m <= 12, where the gate
  re-proves the declaration and refuses them.
- ``known_defect_requests``: gate-small requests declared too narrow at
  m = 13, past the gate.  The class is then trusted and the solver may
  return a false tag (ROADMAP item 4).  They are sent off the clock and
  tallied apart from the workload, so that the defect shows on every run
  without every run failing on it.
- ``oracle-scan``: ``analyze`` and ``efx_exists_search`` with n^m between
  10^5 and 10^6 and a fixed mix of request kinds: min-sc only, efx-po, all
  sections and efx-exists.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from chorefair import Cardinality, Instance, Table, Threshold, generate, serialize_instance
from chorefair.costs import value_table
from chorefair.solvers import VERIFY_MAX_M

WORKLOADS = ("solve-large", "gate-small", "oracle-scan")

# solve-large: cancelable n 6-20 / m 200-400, submodular n 4-6 / m 60-200,
# general n 6-10 / m 200-400, additive n 2-3 / m 200-400.  The fourth field
# holds the parameters that set a solve's cost (caps, thresholds, matroid
# group counts) to a band, so that a round costs about the same whatever
# the seed; the generator draws everything else freely.  Latencies spread
# from milliseconds to about a second, with no one slot taking most of a
# round, and the middle and the top tenth each fall among several slots.
SOLVE_LARGE_SLOTS = (
    ("cardinality", 20, 400, {"cap": (6, 16)}),
    ("partition_matroid", 6, 140, {"groups": (20, 30)}),
    ("threshold", 10, 400, {"k": (50, 150)}),
    ("binary_additive", 3, 400, {}),
    ("capped_additive", 6, 200, {}),
    ("partition_matroid", 4, 60, {"groups": (5, 10)}),
    ("cardinality", 10, 300, {"cap": (5, 25)}),
    ("threshold", 8, 300, {"k": (0, 40)}),
    ("capped_additive", 16, 400, {}),
    ("partition_matroid", 5, 120, {"groups": (10, 20)}),
    ("binary_additive", 2, 200, {}),
    ("capped_additive", 10, 300, {}),
    ("partition_matroid", 4, 100, {"groups": (10, 20)}),
)
# Families whose cost parameter is drawn per agent: (kind, parameter, class).
PER_AGENT_BAND = {
    "cardinality": (Cardinality, "cap", "cancelable"),
    "threshold": (Threshold, "k", "general"),
}

GATE_SMALL_FAMILIES = (
    "binary_additive",
    "capped_additive",
    "cardinality",
    "partition_matroid",
    "threshold",
)
GATE_SMALL_SHAPES = ((2, 8), (3, 9), (2, 10), (3, 11), (2, 12), (3, 12), (2, 13), (3, 13))
# Requests per round declared one class too narrow (about one in ten).
GATE_SMALL_NARROW = 4
# Round number that seeds the known-defect requests; no run gets this far.
DEFECT_ROUND = 10**6
NARROWER = {"cancelable": "additive", "submodular": "cancelable", "general": "submodular"}

# Families and sizes whose EFX lists and Pareto frontiers stay below a few
# 10^4 allocations, so that all-sections answers, and with them peak
# memory, vary little from seed to seed.  One instance in four gets only
# the cheap questions: that puts the median latency inside the min-sc
# group, and the all-sections and efx-po answers still fill the top tenth.
# The capped_additive cap is drawn from a band: a cap of 0 or 1, which a
# free draw gives to some agent in about four instances in ten, makes
# nearly every allocation EFX (up to 1.2e5 of 1.8e5), and that one instance
# then sets the run's peak memory.
ALL_KINDS = ("all", "min-sc", "efx-po", "efx-exists")
CHEAP_KINDS = ("min-sc", "efx-exists")
ORACLE_SCAN_SLOTS = (
    ("binary_additive", 3, 11, {}, ALL_KINDS),
    ("partition_matroid", 2, 17, {}, CHEAP_KINDS),
    ("partition_matroid", 3, 11, {}, ALL_KINDS),
    ("capped_additive", 3, 11, {"cap": (3, 8)}, ALL_KINDS),
)


@dataclass(frozen=True)
class Request:
    """One call the client makes; ``rid`` is ``r<round>.<index>``."""

    rid: str
    kind: str  # "solve", "cli-solve", or one of ALL_KINDS
    inst: Instance
    path: str | None = None  # instance file of a CLI request
    narrow: bool = False  # declared one class narrower than the source kind
    group: str = ""  # requests sharing an instance share a group


def slot_seed(seed: int, rnd: int, slot: int) -> int:
    """Generator seed of one slot, derived from the run seed."""
    return int(np.random.SeedSequence([seed, rnd, slot]).generate_state(1)[0])


def _banded(fam: str, n: int, m: int, seed: int, bands: dict) -> Instance:
    rng = np.random.default_rng(seed)
    if fam in PER_AGENT_BAND:
        kind, param, declared = PER_AGENT_BAND[fam]
        lo, hi = bands[param]
        values = rng.integers(lo, hi + 1, size=n)
        return Instance(n, m, tuple(kind(int(v), m) for v in values), declared)
    params = {name: int(rng.integers(lo, hi + 1)) for name, (lo, hi) in bands.items()}
    return generate(fam, n, m, seed, params=params or None)


def build_round(workload: str, seed: int, rnd: int, workdir: Path) -> list[Request]:
    """The requests of round ``rnd``; gate-small writes its files to ``workdir``."""
    if workload == "solve-large":
        return [
            Request(f"r{rnd}.{k}", "solve", _banded(fam, n, m, slot_seed(seed, rnd, k), bands))
            for k, (fam, n, m, bands) in enumerate(SOLVE_LARGE_SLOTS)
        ]
    if workload == "gate-small":
        return _gate_small(seed, rnd, workdir)
    if workload == "oracle-scan":
        out = []
        for k, (fam, n, m, bands, kinds) in enumerate(ORACLE_SCAN_SLOTS):
            inst = _banded(fam, n, m, slot_seed(seed, rnd, k), bands)
            # "all" comes first, so the other answers on the instance can be
            # checked against its lists
            for kind in kinds:
                out.append(Request(f"r{rnd}.{len(out)}", kind, inst, group=f"r{rnd}.g{k}"))
        return out
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def _gate_small(seed: int, rnd: int, workdir: Path) -> list[Request]:
    slots = [(fam, n, m) for n, m in GATE_SMALL_SHAPES for fam in GATE_SMALL_FAMILIES]
    # misdeclared requests only where the gate re-proves the declaration
    narrowable = [
        k for k, (fam, _, m) in enumerate(slots)
        if fam != "binary_additive" and m <= VERIFY_MAX_M
    ]
    rng = np.random.default_rng(np.random.SeedSequence([seed, rnd, len(slots)]))
    narrow = set(int(k) for k in rng.choice(narrowable, GATE_SMALL_NARROW, replace=False))
    return [
        _table_request(f"r{rnd}.{k}", slot, slot_seed(seed, rnd, k), k in narrow, workdir)
        for k, slot in enumerate(slots)
    ]


def _table_request(rid: str, slot: tuple, gen_seed: int, narrow: bool, workdir: Path) -> Request:
    """A CLI request on the source instance's value tables, written to ``workdir``."""
    fam, n, m = slot
    source = generate(fam, n, m, gen_seed)
    tables = tuple(
        Table(m=m, values=tuple(int(v) for v in value_table(fn))) for fn in source.agents
    )
    # generate() declares the narrowest class the source kind proves
    declared = NARROWER[source.declared_class] if narrow else source.declared_class
    inst = Instance(n=n, m=m, agents=tables, declared_class=declared)
    path = workdir / f"{rid}.json"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return Request(rid, "cli-solve", inst, path=str(path), narrow=narrow)


def cap7_pair() -> Instance:
    """ROADMAP item 4's instance: two min(|S|, 7) tables on 13 items, declared additive."""
    cap7 = Table(m=13, values=tuple(min(s.bit_count(), 7) for s in range(1 << 13)))
    return Instance(n=2, m=13, agents=(cap7, cap7), declared_class="additive")


def known_defect_requests(seed: int, workdir: Path) -> list[Request]:
    """Requests declared too narrow past the gate, where false tags are known to occur.

    One per narrowable family and gate-small shape with m > VERIFY_MAX_M,
    plus the fixed instance of ROADMAP item 4, on which the solver tags a
    dominated 7/6 split ``efx+po``.
    """
    slots = [
        (fam, n, m) for n, m in GATE_SMALL_SHAPES if m > VERIFY_MAX_M
        for fam in GATE_SMALL_FAMILIES if fam != "binary_additive"
    ]
    out = [
        _table_request(f"d.{k}", slot, slot_seed(seed, DEFECT_ROUND, k), True, workdir)
        for k, slot in enumerate(slots)
    ]
    cap7 = cap7_pair()
    path = workdir / "d.cap7.json"
    path.write_text(serialize_instance(cap7), encoding="utf-8")
    out.append(Request("d.cap7", "cli-solve", cap7, path=str(path), narrow=True))
    return out


def inputs_digest(requests: list[Request]) -> str:
    """Hash of everything the program is given, for seed-determinism checks."""
    h = hashlib.sha256()
    for req in requests:
        h.update(f"{req.rid} {req.kind} {req.narrow}\n".encode())
        h.update(serialize_instance(req.inst).encode())
    return h.hexdigest()
