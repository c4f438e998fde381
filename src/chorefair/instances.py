"""Problem instances: JSON schema, seeded generators, built-in examples.

An instance is ``n`` agents, ``m`` items, one cost descriptor per agent and
a declared function class.  The declared class is a promise the solvers
rely on; it must be at least as broad as the class each descriptor kind's
parameters prove (an agent ``Threshold(k, m)`` with 0 < k < m cannot live in
an instance declared narrower than general).

All generators draw from ``numpy``'s PCG64 stream seeded through
``SeedSequence(seed)``, with one spawned child stream per agent, so a given
(family, n, m, seed, params) tuple serialises to byte-identical JSON on any
platform.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import costs
from .costs import (
    Additive,
    CappedAdditive,
    Cardinality,
    Descriptor,
    FunctionClassReport,
    PartitionMatroidRank,
    Table,
    Threshold,
    Witness,
)
from .errors import InvalidInputError, ParseError
from .itemset import from_indices, iter_items

CLASSES = ("additive", "cancelable", "submodular", "general")
CLASS_RANK = {name: rank for rank, name in enumerate(CLASSES)}

GENERATOR_FAMILIES = (
    "binary_additive",
    "capped_additive",
    "cardinality",
    "partition_matroid",
    "threshold",
    "table",
)

BUILTIN_NAMES = (
    "ternary-no-efxpo",
    "cancelable-cap5-n2",
    "appendixA-submodular-4",
    "appendixA-cap5-function",
)

# Random explicit tables need dense storage during generation.
TABLE_FAMILY_MAX_M = 12
# generate() refuses larger sizes before drawing anything (n * m values).
GENERATE_MAX_N, GENERATE_MAX_M = 1_000, 10_000


def kind_class(fn: Descriptor) -> str | None:
    """The narrowest class a closed-form kind is in, decided by its
    parameters, or None for a :class:`Table` or any other cost function.

    Every kind is monotone with binary marginals.  A capped kind is
    additive iff its cap is 0 or reaches its unit items, and cancelable
    otherwise; ``Threshold(k, m)`` is additive iff k = 0 or k >= m, and
    only general otherwise; a partition matroid is additive iff no group
    binds (0 < cap < |group|), cancelable iff exactly one binds and no
    group is free (cap >= |group| > 0), and submodular otherwise.
    """
    if isinstance(fn, Additive):
        return "additive"
    if isinstance(fn, Threshold):
        return "additive" if fn.k == 0 or fn.k >= fn.m else "general"
    if isinstance(fn, (CappedAdditive, Cardinality)):
        units = fn._ones.bit_count() if isinstance(fn, CappedAdditive) else fn.m
        return "additive" if fn.cap == 0 or fn.cap >= units else "cancelable"
    if isinstance(fn, PartitionMatroidRank):
        binding, free = _matroid_groups(fn)
        if not binding:
            return "additive"
        return "cancelable" if len(binding) == 1 and free is None else "submodular"
    return None


def _matroid_groups(fn: PartitionMatroidRank) -> tuple[list, tuple | None]:
    """The (group, cap) pairs that bind, and the first free group or None."""
    pairs = list(zip(fn.groups, fn.capacities))
    binding = [(g, cap) for g, cap in pairs if 0 < cap < len(g)]
    return binding, next((g for g, cap in pairs if cap >= len(g) > 0), None)


def declaration_bound(fn: Descriptor) -> str:
    """Narrowest class an instance containing this agent may declare.

    A closed-form kind pins the declaration to its :func:`kind_class`;
    any other cost function proves nothing and may only be declared
    general.  Explicit tables are unconstrained here; a declaration
    naming a narrower class is a claim that solver gates verify
    exhaustively on small ground sets.
    """
    if isinstance(fn, Table):
        return "additive"
    return kind_class(fn) or "general"


def kind_report(fn: Descriptor) -> FunctionClassReport:
    """The class report of a closed-form kind, exact at every m and built
    without evaluating a set: every class its :func:`kind_class` nests in
    holds, and each narrower one fails with one falsifying triple.
    """
    narrowest = kind_class(fn)
    if narrowest is None:
        raise InvalidInputError(f"{type(fn).__name__} is not a closed-form kind")
    witnesses = {
        cls: _kind_witness(fn, cls)
        for cls in ("submodular", "cancelable", "additive")
        if CLASS_RANK[cls] < CLASS_RANK[narrowest]
    }
    return FunctionClassReport(
        binary_marginal=True,
        monotone=True,
        additive="additive" not in witnesses,
        cancelable="cancelable" not in witnesses,
        submodular="submodular" not in witnesses,
        witnesses=witnesses,
    )


def _kind_witness(fn: Descriptor, cls: str) -> Witness:
    """The triple that falsifies ``cls`` for a closed-form kind whose
    :func:`kind_class` lies outside it."""
    if isinstance(fn, Threshold):
        first = (1 << fn.k) - 1
        return {
            "additive": (first, 0, fn.k),
            "cancelable": (first, first >> 1, fn.k),
            "submodular": (0, first, fn.k),
        }[cls]
    if isinstance(fn, (CappedAdditive, Cardinality)):
        units = list(iter_items(fn._ones)) if isinstance(fn, CappedAdditive) else range(fn.m)
        return from_indices(units[: fn.cap]), 0, units[fn.cap]
    binding, free = _matroid_groups(fn)
    g, cap = binding[0]
    if cls == "additive":
        return from_indices(g[:cap]), 0, g[cap]
    if len(binding) > 1:
        h, cap_h = binding[1]
        s, t = g[:cap] + h[: cap_h - 1], g[: cap - 1] + h[:cap_h]
        return from_indices(s), from_indices(t), h[cap_h]
    return from_indices(g[: cap - 1] + free[:1]), from_indices(g[:cap]), g[cap]


# The exhaustive test that proves a binary-marginal table narrower than
# "general", on its value table and a witness dict.
_KERNELS = {
    "additive": costs._check_additive,
    "cancelable": costs._check_cancelable,
    "submodular": costs._check_submodular,
}


def proves(fn: Descriptor, cls: str, witnesses: dict | None = None) -> bool:
    """True when ``fn`` provably belongs to ``cls``, binary marginals
    included: the one place that decides class membership.

    A closed-form kind answers by comparing its :func:`kind_class` with
    ``cls``.  A cost function of no known kind proves only "general", by
    the marginals of its value table.  A binary-marginal :class:`Table`
    proves a narrower class by that class's exhaustive kernel; the table
    keeps each verdict and its witness, so a (table, class) pair is tested
    once however often it is asked.  On a failed kernel test the
    falsifying triple goes into ``witnesses[cls]``.
    """
    if not isinstance(fn, Table):
        narrowest = kind_class(fn)
        if narrowest is not None:
            return CLASS_RANK[narrowest] <= CLASS_RANK[cls]
        return cls == "general" and costs._check_marginals(fn.m, costs.value_table(fn), {})[0]
    if cls == "general" or not fn.binary_marginal:
        return fn.binary_marginal
    verdict = fn._proofs.get(cls)
    if verdict is None:
        found: dict = {}
        verdict = fn._proofs[cls] = (_KERNELS[cls](fn.m, fn._view, found), found.get(cls))
    proved, witness = verdict
    if not proved and witnesses is not None:
        witnesses[cls] = witness
    return proved


@dataclass(frozen=True)
class Instance:
    n: int
    m: int
    agents: tuple[Descriptor, ...]
    declared_class: str
    metadata: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise InvalidInputError(f"need at least one agent, got n={self.n}")
        if self.m < 0:
            raise InvalidInputError(f"item count must be non-negative, got m={self.m}")
        if len(self.agents) != self.n:
            raise InvalidInputError(f"n={self.n} but {len(self.agents)} agent descriptors")
        object.__setattr__(self, "agents", tuple(self.agents))
        for i, fn in enumerate(self.agents):
            if fn.m != self.m:
                raise InvalidInputError(
                    f"agents[{i}] has ground-set size {fn.m}, instance has m={self.m}"
                )
            # kinds and tables price ∅ at 0 by construction, with no query
            if not isinstance(fn, (Table, *costs._KINDS)) and (empty := fn.value(0)) != 0:
                raise InvalidInputError(f"agents[{i}] prices the empty set at {empty}, not 0")
        if self.declared_class not in CLASSES:
            raise InvalidInputError(
                f"declared_class must be one of {CLASSES}, got {self.declared_class!r}"
            )
        need = max(CLASS_RANK[declaration_bound(fn)] for fn in self.agents)
        if CLASS_RANK[self.declared_class] < need:
            raise InvalidInputError(
                f"declared_class {self.declared_class!r} is narrower than the "
                f"descriptor kinds allow (need at least {CLASSES[need]!r})"
            )

    @property
    def name(self) -> str:
        return str(self.metadata.get("name", ""))


# ---------------------------------------------------------------------------
# JSON codec
# ---------------------------------------------------------------------------


def descriptor_to_json(fn: Descriptor) -> dict:
    if isinstance(fn, Additive):
        return {"type": "additive", "costs": list(fn.costs)}
    if isinstance(fn, CappedAdditive):
        return {"type": "capped_additive", "costs": list(fn.costs), "cap": fn.cap}
    if isinstance(fn, Cardinality):
        return {"type": "cardinality", "cap": fn.cap}
    if isinstance(fn, PartitionMatroidRank):
        return {
            "type": "partition_matroid",
            "groups": [list(g) for g in fn.groups],
            "capacities": list(fn.capacities),
        }
    if isinstance(fn, Threshold):
        return {"type": "threshold", "k": fn.k}
    if isinstance(fn, Table):
        return {"type": "table", "m": fn.m, "values": fn.tolist()}
    raise InvalidInputError(f"unknown descriptor kind: {type(fn).__name__}")


def _require(obj: dict, key: str, where: str) -> Any:
    if key not in obj:
        raise ParseError(f"{where}: missing required field {key!r}")
    return obj[key]


def _int_field(obj: dict, key: str, where: str) -> int:
    val = _require(obj, key, where)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ParseError(f"{where}.{key}: expected an integer, got {val!r}")
    return val


def _int_list(val: Any, where: str) -> list[int]:
    if not isinstance(val, list) or costs._first_non_int(val) is not None:
        raise ParseError(f"{where}: expected a list of integers")
    return val


def descriptor_from_json(obj: Any, m: int, where: str = "descriptor") -> Descriptor:
    """Decode one cost-function descriptor; ``m`` comes from the instance."""
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {type(obj).__name__}")
    kind = _require(obj, "type", where)
    try:
        if kind == "additive":
            return Additive(tuple(_int_list(_require(obj, "costs", where), f"{where}.costs")))
        if kind == "capped_additive":
            return CappedAdditive(
                tuple(_int_list(_require(obj, "costs", where), f"{where}.costs")),
                cap=_int_field(obj, "cap", where),
            )
        if kind == "cardinality":
            return Cardinality(cap=_int_field(obj, "cap", where), m=m)
        if kind == "partition_matroid":
            groups = _require(obj, "groups", where)
            if not isinstance(groups, list):
                raise ParseError(f"{where}.groups: expected a list of lists")
            groups = tuple(
                tuple(_int_list(g, f"{where}.groups[{gi}]")) for gi, g in enumerate(groups)
            )
            caps = tuple(_int_list(_require(obj, "capacities", where), f"{where}.capacities"))
            return PartitionMatroidRank(groups, caps)
        if kind == "threshold":
            return Threshold(k=_int_field(obj, "k", where), m=m)
        if kind == "table":
            table_m = _int_field(obj, "m", where)
            values = _int_list(_require(obj, "values", where), f"{where}.values")
            # walked once above: the table takes the packed buffer as checked
            buf = costs._int64_buffer(values)
            return Table(m=table_m, values=values if buf is None else buf)
    except InvalidInputError as exc:
        raise ParseError(f"{where}: {exc}") from exc
    raise ParseError(f"{where}.type: unknown descriptor type {kind!r}")


def instance_to_json(inst: Instance) -> dict:
    out = {
        "n": inst.n,
        "m": inst.m,
        "declared_class": inst.declared_class,
        "agents": [descriptor_to_json(fn) for fn in inst.agents],
    }
    if inst.metadata:
        out["metadata"] = inst.metadata
    return out


def _dumps(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _json_ints(v: np.ndarray) -> str:
    """``_dumps(v.tolist())`` for non-negative int64 values, written one
    decimal digit at a time over the whole array."""
    digits = np.ones(len(v), dtype=np.int64)
    power, top = 10, int(v.max())
    while power <= top:
        digits += v >= power
        power *= 10
    # value i ends at ends[i] - 1 and is followed by a comma, the last one
    # by the closing bracket
    ends = np.cumsum(digits + 1)
    out = np.full(int(ends[-1]) + 1, ord(","), dtype=np.uint8)
    out[0], out[-1] = ord("["), ord("]")
    rest = v.copy()
    for d in range(int(digits.max())):
        has = digits > d
        out[(ends - 1 - d)[has]] = rest[has] % 10 + ord("0")
        rest //= 10
    return out.tobytes().decode("ascii")


def _descriptor_text(fn: Descriptor) -> str:
    if not isinstance(fn, Table):
        return _dumps(descriptor_to_json(fn))
    # "values" sorts after "m" and "type"; table values are never negative
    return _dumps({"m": fn.m, "type": "table"})[:-1] + ',"values":' + _json_ints(fn._view) + "}"


def serialize_instance(inst: Instance) -> str:
    """Canonical JSON form (sorted keys, fixed separators, trailing newline):
    the text of ``json.dumps(instance_to_json(inst), sort_keys=True,
    separators=(",", ":"))``, with each table's values written straight
    from its int64 buffer."""
    head = {"n": inst.n, "m": inst.m, "declared_class": inst.declared_class}
    if inst.metadata:
        head["metadata"] = inst.metadata
    agents = ",".join(map(_descriptor_text, inst.agents))
    # "agents" sorts before every other top-level key
    return '{"agents":[' + agents + "]," + _dumps(head)[1:] + "\n"


def parse_instance(text: str | bytes) -> Instance:
    """Parse and validate an instance JSON document."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ParseError("instance: expected a JSON object at top level")
    n = _int_field(obj, "n", "instance")
    m = _int_field(obj, "m", "instance")
    declared = _require(obj, "declared_class", "instance")
    agents_json = _require(obj, "agents", "instance")
    if not isinstance(agents_json, list):
        raise ParseError("instance.agents: expected a list")
    if len(agents_json) != n:
        raise ParseError(f"instance.agents: expected {n} descriptors, found {len(agents_json)}")
    agents = tuple(
        descriptor_from_json(a, m, where=f"agents[{i}]") for i, a in enumerate(agents_json)
    )
    metadata = obj.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ParseError("instance.metadata: expected an object")
    try:
        return Instance(n=n, m=m, agents=agents, declared_class=declared, metadata=metadata)
    except InvalidInputError as exc:
        raise ParseError(f"instance: {exc}") from exc


def load_instance(path: str) -> Instance:
    with open(path, "rb") as handle:
        return parse_instance(handle.read())


# ---------------------------------------------------------------------------
# Seeded generators
# ---------------------------------------------------------------------------


def generate(
    family: str,
    n: int,
    m: int,
    seed: int,
    params: dict[str, Any] | None = None,
) -> Instance:
    """Build a pseudo-random instance of the given family.

    ``params`` tweaks the family: ``cap`` fixes the cap for every agent in
    the capped families, ``k`` fixes the threshold, ``groups`` the group
    count for partition matroids.  Left unset, those are drawn per agent.
    """
    params = dict(params or {})
    if family not in GENERATOR_FAMILIES:
        raise InvalidInputError(f"unknown family {family!r}; choose from {GENERATOR_FAMILIES}")
    if n < 1 or m < 0:
        raise InvalidInputError(f"need n >= 1 and m >= 0, got n={n}, m={m}")
    if n > GENERATE_MAX_N or m > GENERATE_MAX_M:
        bound = f"n <= {GENERATE_MAX_N} and m <= {GENERATE_MAX_M}"
        raise InvalidInputError(f"generate supports {bound}, got n={n}, m={m}")
    if seed < 0:
        raise InvalidInputError(f"seed must be non-negative, got {seed}")
    streams = [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(n)]

    agents: list[Descriptor] = []
    for i, rng in enumerate(streams):
        if family == "binary_additive":
            agents.append(Additive(tuple(int(b) for b in rng.integers(0, 2, size=m))))
        elif family == "capped_additive":
            row = tuple(int(b) for b in rng.integers(0, 2, size=m))
            cap = int(params.get("cap", rng.integers(0, m + 1)))
            agents.append(CappedAdditive(row, cap=cap))
        elif family == "cardinality":
            cap = int(params.get("cap", rng.integers(0, m + 1)))
            agents.append(Cardinality(cap=cap, m=m))
        elif family == "threshold":
            k = int(params.get("k", rng.integers(0, m + 1)))
            agents.append(Threshold(k=k, m=m))
        elif family == "partition_matroid":
            agents.append(_random_partition_matroid(m, rng, params))
        elif family == "table":
            if m > TABLE_FAMILY_MAX_M:
                raise InvalidInputError(
                    f"table family supports m <= {TABLE_FAMILY_MAX_M}, got {m}"
                )
            agents.append(Table(m=m, values=_random_binary_table(m, rng)))

    declared = {
        "binary_additive": "additive",
        "capped_additive": "cancelable",
        "cardinality": "cancelable",
        "partition_matroid": "submodular",
        "threshold": "general",
        "table": "general",
    }[family]
    metadata = {"name": f"{family}-n{n}-m{m}-s{seed}", "seed": seed}
    if params:
        metadata["params"] = params
    return Instance(n=n, m=m, agents=tuple(agents), declared_class=declared, metadata=metadata)


def _random_partition_matroid(m: int, rng: np.random.Generator, params: dict) -> PartitionMatroidRank:
    n_groups = int(params.get("groups", rng.integers(1, max(m, 1) + 1))) if m else 1
    n_groups = max(1, min(n_groups, max(m, 1)))
    assignment = [int(g) for g in rng.integers(0, n_groups, size=m)]
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    for item, g in enumerate(assignment):
        groups[g].append(item)
    kept = [g for g in groups if g] or [[]]
    caps = [int(rng.integers(0, len(g) + 1)) for g in kept]
    return PartitionMatroidRank(tuple(tuple(g) for g in kept), tuple(caps))


def _random_binary_table(m: int, rng: np.random.Generator) -> tuple[int, ...]:
    """Sample a monotone function with {0,1} marginals.

    Work up the subset lattice: each value is pinned between the max of its
    children and the min of its children plus one (those bounds never cross
    because any two children differ by at most 1), and a coin decides when
    there is slack.
    """
    values = [0] * (1 << m)
    coins = rng.integers(0, 2, size=1 << m)
    for mask in range(1, 1 << m):
        lo, hi = 0, 1 << 62
        rest = mask
        while rest:
            low = rest & -rest
            rest ^= low
            child = values[mask ^ low]
            lo = max(lo, child)
            hi = min(hi, child + 1)
        values[mask] = hi if (lo < hi and coins[mask]) else lo
    return tuple(values)


# ---------------------------------------------------------------------------
# Built-in instances
# ---------------------------------------------------------------------------


def _weighted_table(weights: tuple[int, ...]) -> Table:
    """Additive function with arbitrary integer weights stored explicitly."""
    m = len(weights)
    values = [0] * (1 << m)
    for mask in range(1 << m):
        values[mask] = sum(w for i, w in enumerate(weights) if mask >> i & 1)
    return Table(m=m, values=tuple(values))


def _four_item_submodular() -> Table:
    # |X| - 1 once all of {0,1,2} are present, |X| otherwise; submodular,
    # binary-marginal, but equal-valued sets can disagree on a marginal.
    values = []
    for mask in range(16):
        sz = mask.bit_count()
        values.append(sz - 1 if mask & 0b0111 == 0b0111 else sz)
    return Table(m=4, values=tuple(values))


def builtin(name: str) -> Instance:
    """Named instances used throughout the test-suite and docs.

    - ``ternary-no-efxpo``: two agents, three items, additive weights
      (2,1,0) / (2,0,1) stored as explicit tables.  No allocation is both
      EFX and Pareto-optimal.  Non-binary costs: checkers and the oracle
      only.
    - ``cancelable-cap5-n2``: two identical min(|S|,5) agents over ten
      items; every EFX allocation is a 5/5 split and none is Pareto-optimal.
    - ``appendixA-submodular-4``: single agent holding the four-item
      submodular-but-not-cancelable function.
    - ``appendixA-cap5-function``: single agent holding min(|S|,5) on eight
      items (cancelable but not additive).
    """
    if name == "ternary-no-efxpo":
        return Instance(
            n=2,
            m=3,
            agents=(_weighted_table((2, 1, 0)), _weighted_table((2, 0, 1))),
            declared_class="general",
            metadata={"name": name},
        )
    if name == "cancelable-cap5-n2":
        return Instance(
            n=2,
            m=10,
            agents=(Cardinality(cap=5, m=10), Cardinality(cap=5, m=10)),
            declared_class="cancelable",
            metadata={"name": name},
        )
    if name == "appendixA-submodular-4":
        return Instance(
            n=1,
            m=4,
            agents=(_four_item_submodular(),),
            declared_class="submodular",
            metadata={"name": name},
        )
    if name == "appendixA-cap5-function":
        return Instance(
            n=1,
            m=8,
            agents=(Cardinality(cap=5, m=8),),
            declared_class="cancelable",
            metadata={"name": name},
        )
    raise InvalidInputError(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


__all__ = [
    "Instance",
    "CLASSES",
    "CLASS_RANK",
    "GENERATOR_FAMILIES",
    "BUILTIN_NAMES",
    "declaration_bound",
    "kind_class",
    "kind_report",
    "proves",
    "descriptor_to_json",
    "descriptor_from_json",
    "instance_to_json",
    "serialize_instance",
    "parse_instance",
    "load_instance",
    "generate",
    "builtin",
]
