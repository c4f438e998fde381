import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorefair.costs import (
    Additive,
    CappedAdditive,
    Cardinality,
    PartitionMatroidRank,
    Threshold,
    evaluate,
    marginal,
    residual,
)
from chorefair import fairness
from chorefair.errors import InternalInvariantError, InvalidInputError, UnsupportedSizeError
from chorefair.fairness import (
    Allocation,
    CostMatrix,
    EnvyGraph,
    Violation,
    _assignment_masks,
    _CheckedQueries,
    _rank_blocks,
    allocation_from_rank,
    build_envy_graph,
    find_cycle_through_edge,
    is_alpha_ef,
    is_alpha_efx,
    is_po_bruteforce,
    social_cost,
    tail_scc,
)
from chorefair.instances import Instance, builtin, generate
from chorefair.itemset import iter_items, size
from chorefair.solvers import solve_auto
from chorefair.solvers.common import OpCounter
from helpers import EagerCostMatrix, random_monotone_table


def ternary():
    return builtin("ternary-no-efxpo")


def test_allocation_validation():
    Allocation(n=2, m=3, bundles=(0b101, 0b010))
    Allocation(n=2, m=3, bundles=(0b001, 0b010), unallocated=0b100)
    with pytest.raises(InvalidInputError):
        Allocation(n=2, m=3, bundles=(0b101,))
    with pytest.raises(InvalidInputError):
        Allocation(n=2, m=3, bundles=(0b101, 0b011))
    with pytest.raises(InvalidInputError):
        Allocation(n=2, m=3, bundles=(0b101, 0b010), unallocated=0b001)
    with pytest.raises(InvalidInputError):
        Allocation(n=2, m=3, bundles=(0b001, 0b010))
    with pytest.raises(InvalidInputError):
        Allocation(n=2, m=2, bundles=(0b101, 0b010))


def test_allocation_constructors():
    alloc = Allocation.make(2, 3, (0b001, 0b010))
    assert alloc.unallocated == 0b100 and not alloc.complete
    alloc = Allocation.from_assignment(2, 3, [0, 1, 0])
    assert alloc.bundles == (0b101, 0b010) and alloc.complete
    with pytest.raises(InvalidInputError):
        Allocation.from_assignment(2, 3, [0, 1])
    with pytest.raises(InvalidInputError):
        Allocation.from_assignment(2, 3, [0, 2, 0])


def test_allocation_json_roundtrip():
    alloc = Allocation(n=2, m=4, bundles=(0b0011, 0b0100), unallocated=0b1000)
    obj = alloc.to_json()
    assert obj == {"bundles": [[0, 1], [2]], "unallocated": [3]}
    assert Allocation.from_json(obj, 2, 4) == alloc
    with pytest.raises(InvalidInputError):
        Allocation.from_json({"nope": []}, 2, 4)
    with pytest.raises(InvalidInputError):
        Allocation.from_json({"bundles": [[0, 1], [2]]}, 2, 4)


def test_social_cost():
    inst = ternary()
    assert social_cost(inst, Allocation(n=2, m=3, bundles=(0b101, 0b010))) == 2
    assert social_cost(inst, Allocation(n=2, m=3, bundles=(0b111, 0))) == 3
    with pytest.raises(InvalidInputError):
        social_cost(inst, Allocation(n=2, m=2, bundles=(0b01, 0b10)))


def test_efx_and_ef_on_ternary():
    inst = ternary()
    named = Allocation(n=2, m=3, bundles=(0b101, 0b010))
    ok, viols = is_alpha_efx(inst, named, 1)
    assert not ok
    assert viols[0] == Violation("efx", 0, 1, 2)
    ok, viols = is_alpha_ef(inst, named, 1)
    assert not ok and viols == [Violation("ef", 0, 1, None)]
    stable = Allocation(n=2, m=3, bundles=(0b001, 0b110))
    assert is_alpha_efx(inst, stable, 1)[0]
    assert not is_alpha_ef(inst, stable, 1)[0]
    assert is_alpha_ef(inst, stable, 2)[0]
    assert is_alpha_ef(inst, stable, Fraction(2))[0]
    assert is_alpha_ef(inst, stable, "2/1")[0]


def test_alpha_validation():
    inst = ternary()
    alloc = Allocation(n=2, m=3, bundles=(0b101, 0b010))
    with pytest.raises(InvalidInputError):
        is_alpha_ef(inst, alloc, 1.5)
    with pytest.raises(InvalidInputError):
        is_alpha_ef(inst, alloc, "1/2")
    with pytest.raises(InvalidInputError):
        is_alpha_ef(inst, alloc, "x")
    # too long to print as a Fraction: the refusal names the text as given
    with pytest.raises(InvalidInputError, match="alpha must be >= 1, got 1e-5000"):
        is_alpha_ef(inst, alloc, "1e-5000")


@pytest.mark.parametrize("text", ["1e3000000", "2E-3000000", "1e3_000_000", "1" * 10_001])
def test_alpha_text_past_the_bound_is_refused_before_parsing(text):
    inst = ternary()
    alloc = Allocation(n=2, m=3, bundles=(0b101, 0b010))
    with pytest.raises(InvalidInputError, match="alpha text longer than"):
        is_alpha_ef(inst, alloc, text)


def test_empty_bundles_are_vacuously_stable():
    inst = ternary()
    alloc = Allocation(n=2, m=3, bundles=(0, 0b111))
    _, viols = is_alpha_efx(inst, alloc, 1)
    assert viols and all(v.i == 1 for v in viols)
    empty = Allocation(n=2, m=3, bundles=(0, 0), unallocated=0b111)
    assert is_alpha_ef(inst, empty, 1)[0]
    assert is_alpha_efx(inst, empty, 1)[0]


def test_cost_matrix_checks():
    funcs = (Additive((1, 1, 0)), Additive((1, 0, 1)))
    assert CostMatrix(funcs, (0b101, 0b010)).is_efx()
    assert not CostMatrix(funcs, (0b011, 0b100)).is_efx()
    assert CostMatrix((funcs[0],), (0b111,)).is_efx()
    viols = CostMatrix(funcs, (0b011, 0b100)).ef_violations(1)
    assert viols == [Violation("ef", 0, 1, None)]


class RecordingQueries:
    """Matrix queries answered by the checked free functions, each recorded."""

    def __init__(self):
        self.calls = []

    def evaluate(self, fn, mask):
        self.calls.append(("evaluate", mask))
        return evaluate(fn, mask)

    def marginal(self, fn, item, mask):
        self.calls.append(("marginal", item, mask))
        return marginal(fn, item, mask)

    def least_drop(self, fn, mask):
        self.calls.append(("least_drop", mask))
        return _CheckedQueries.least_drop(fn, mask)


def _prices(matrix):
    """Every entry read through ``price``, which asks the stale ones."""
    n = len(matrix.bundles)
    return [[matrix.price(i, j) for j in range(n)] for i in range(n)]


def test_cost_matrix_entries_and_queries():
    funcs = (Additive((1, 1, 0)), Additive((1, 0, 1)))
    ops = RecordingQueries()
    calls = ops.calls
    matrix = CostMatrix(funcs, [0b011, 0b100], ops)
    assert _prices(matrix) == [[2, 0], [1, 1]]
    assert calls == [("evaluate", 0b011), ("evaluate", 0b100)] * 2
    # the worst drop is the price less the least drop, one query per bundle
    assert matrix.worst_drop(0) == 1 and matrix.worst_drop(1) == 0
    assert calls[4:] == [("least_drop", 0b011), ("least_drop", 0b100)]
    # a growth asks its owner's price; the other row keeps its entry as a
    # lower bound, asked on read
    matrix.update(1, 0b110)
    assert matrix.bundles == [0b011, 0b110]
    assert calls[6:] == [("evaluate", 0b110)]
    assert matrix.price(0, 1, 0) == 0  # the bound reaches the floor
    assert calls[7:] == []
    assert _prices(matrix) == [[2, 1], [1, 1]]
    assert calls[7:] == [("evaluate", 0b110)]
    assert matrix.graph().edges == frozenset({(1, 0)})
    # any other change re-prices the bundle whole
    matrix.update(0, 0b001)
    assert calls[8:] == [("evaluate", 0b001)] * 2
    # a step the caller passes in is not asked
    matrix.update(0, 0b011, {0: 1})
    assert calls[10:] == []
    assert _prices(matrix) == [[2, 1], [1, 1]]
    assert calls[10:] == [("evaluate", 0b011)]
    matrix.check_against_rebuild()
    # the default queries refuse a grown set out of range as a price would
    message = "item set 0b1110 out of range for ground set of size 3"
    with pytest.raises(InvalidInputError, match=message):
        CostMatrix(funcs, [0b011, 0b110]).update(1, 0b1110)
    with pytest.raises(InvalidInputError):
        CostMatrix(funcs, [0b111])


def test_cost_matrix_rebuild_check_catches_drift():
    funcs = (Additive((1, 1, 0)), Additive((1, 0, 1)))
    matrix = CostMatrix(funcs, [0b011, 0b100])
    matrix.check_against_rebuild()
    matrix.cost[0][1] = 7
    with pytest.raises(InternalInvariantError):
        matrix.check_against_rebuild()


def _naive_is_efx(funcs, bundles):
    """Removal stability straight from the definition."""
    for i, fn in enumerate(funcs):
        for j, other in enumerate(bundles):
            for e in range(fn.m):
                if j != i and bundles[i] >> e & 1:
                    if evaluate(fn, bundles[i] & ~(1 << e)) > evaluate(fn, other):
                        return False
    return True


class ValueOnly:
    """A protocol cost function without ``marginal``: its marginals are
    answered by value differences."""

    def __init__(self, fn):
        self.m = fn.m
        self.value = fn.value


COST_KINDS = 6


def _random_descriptor(m, rng, kind=None):
    """A descriptor of the given kind (0 to COST_KINDS - 1), or of any kind;
    tables may have marginals up to 2."""
    kind = rng.randrange(COST_KINDS) if kind is None else kind
    if kind == 0:
        return Additive(tuple(rng.randint(0, 1) for _ in range(m)))
    if kind == 1:
        return CappedAdditive(tuple(rng.randint(0, 1) for _ in range(m)), cap=rng.randint(0, m))
    if kind == 2:
        return Cardinality(cap=rng.randint(0, m), m=m)
    if kind == 3:
        return Threshold(k=rng.randint(0, m), m=m)
    if kind == 4:
        return random_monotone_table(m, rng, steps=(0, 0, 1, 2))
    items = list(range(m))
    rng.shuffle(items)
    cuts = sorted(rng.sample(range(1, m), rng.randint(0, m - 1))) if m > 1 else []
    groups = [tuple(items[a:b]) for a, b in zip([0, *cuts], [*cuts, m]) if b > a]
    return PartitionMatroidRank(tuple(groups), tuple(rng.randint(0, 3) for _ in groups))


def _random_cost_function(m, rng, base, kind=None):
    """Every shape a matrix sees: a descriptor, a residual view of one on
    ``base``, or a protocol object without ``marginal``."""
    fn = _random_descriptor(m, rng, kind)
    shape = rng.randrange(3)
    if shape == 1:
        return residual(fn, base)
    if shape == 2:
        return ValueOnly(fn)
    return fn


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.booleans(),
    st.lists(
        st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 7), st.integers(0, 3)),
        max_size=12,
    ),
)
def test_cost_matrix_updates_match_fresh_build(n, m, seed, counted, moves):
    # one-item growths (re-priced from marginals, some steps passed in),
    # multi-item growths, removals, replacements and swaps, asked through
    # the checked default queries or a solver's unchecked counted ones
    rng = random.Random(seed)
    base = sum(1 << e for e in range(m) if rng.random() < 0.25)  # never allocated
    funcs = [_random_cost_function(m, rng, base) for _ in range(n)]
    # owner n is the unallocated pool, n + 1 the residual views' base
    owners = [n + 1 if base >> e & 1 else rng.randrange(n + 1) for e in range(m)]
    bundles = [sum(1 << e for e, o in enumerate(owners) if o == i) for i in range(n)]
    matrix = CostMatrix(funcs, bundles, OpCounter() if counted else None)

    def give(agent, items):
        old = bundles[agent]
        for e in items:
            owners[e] = agent
            bundles[agent] |= 1 << e
        known = None
        if len(items) == 1 and old and rng.random() < 0.5:
            known = {
                k: marginal(fn, items[0], old) for k, fn in enumerate(funcs) if rng.random() < 0.5
            }
        matrix.update(agent, bundles[agent], known)

    for op, agent, item, width in moves:
        agent %= n
        pool = [e for e in range(m) if owners[e] == n]
        if op == 0:
            # agent takes the unallocated items in item .. item + width
            give(agent, [e for e in pool if item <= e <= item + width])
        elif op == 1:
            # item goes back to the pool
            if item < m and owners[item] < n:
                holder = owners[item]
                owners[item] = n
                bundles[holder] &= ~(1 << item)
                matrix.update(holder, bundles[holder])
        elif op == 2:
            # agent swaps bundles with another
            other = (agent + item) % n
            for e in range(m):
                if owners[e] in (agent, other):
                    owners[e] = agent + other - owners[e]
            bundles[agent], bundles[other] = bundles[other], bundles[agent]
            matrix.update(agent, bundles[agent])
            matrix.update(other, bundles[other])
        else:
            # agent's bundle is replaced by up to width + 1 unallocated items
            for e in range(m):
                if owners[e] == agent:
                    owners[e] = n
            bundles[agent] = 0
            for e in [e for e in pool if e >= item][: width + 1]:
                owners[e] = agent
                bundles[agent] |= 1 << e
            matrix.update(agent, bundles[agent])
        fresh = CostMatrix(funcs, bundles)
        assert matrix.bundles == bundles
        # stale entries are checked as bounds before the readers ask them
        matrix.check_against_rebuild()
        assert matrix.is_efx() == _naive_is_efx(funcs, bundles)
        assert _prices(matrix) == fresh.cost
        for i, b in enumerate(bundles):
            if b:
                assert matrix.worst_drop(i) == fresh.worst_drop(i)
        matrix.check_against_rebuild()
        assert matrix.is_efx() == (not matrix.efx_violations(1))


def _lazy_move(rng, m, bundles, pool, funcs):
    """One random change to ``bundles`` (in place) and ``pool``, as the
    solver loops make them: a growth (from the pool or by absorbing another
    bundle, whose slot restarts), a swap, or a return to the pool.  Returns
    the pool and the ``update`` calls, with known price increases for some
    growths."""
    n = len(bundles)
    i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
    op = rng.randrange(4)
    if op == 0 and pool:
        take = rng.sample(list(iter_items(pool)), rng.randint(1, min(3, size(pool))))
        grown = bundles[i] | sum(1 << e for e in take)
        known = {
            k: evaluate(fn, grown) - evaluate(fn, bundles[i])
            for k, fn in enumerate(funcs)
            if rng.random() < 0.3
        }
        bundles[i] = grown
        return pool & ~grown, [(i, grown, known)]
    if op == 1 and i != j:
        # a merge: i absorbs j, and j restarts with a pool item if any
        restart = pool & -pool if rng.random() < 0.7 else 0
        bundles[i] |= bundles[j]
        bundles[j] = restart
        return pool & ~restart, [(i, bundles[i], None), (j, restart, None)]
    if op == 2 and i != j:
        bundles[i], bundles[j] = bundles[j], bundles[i]
        return pool, [(i, bundles[i], None), (j, bundles[j], None)]
    back = bundles[i] & -bundles[i]
    bundles[i] &= ~back
    return pool | back, [(i, bundles[i], None)]


def _read_everything(matrix, fresh, rng):
    """Ask every reader of ``matrix`` and check its verdict against the
    exact ``fresh`` matrix's."""
    n = len(matrix.bundles)
    rows = rng.getrandbits(n)
    assert matrix.is_efx(rows) == fresh.is_efx(rows)
    for i in range(n):
        assert matrix.envies_nobody(i) == fresh.envies_nobody(i)
        for j in range(n):
            floor = rng.randint(0, 3)
            got, want = matrix.price(i, j, floor), fresh.cost[i][j]
            assert got == want or want >= got >= floor
    assert matrix.graph().edges == fresh.graph().edges
    for alpha in (1, Fraction(3, 2), 2):
        assert matrix.efx_violations(alpha) == fresh.efx_violations(alpha)
        assert matrix.ef_violations(alpha) == fresh.ef_violations(alpha)
    assert matrix.is_efx() == fresh.is_efx()


@pytest.mark.parametrize("kind", range(COST_KINDS))
def test_lazy_matrix_reads_like_a_fresh_one(kind):
    # random growths (known price increases for some rows), merges, swaps
    # and returns over every cost kind; before each round of reads, every
    # entry a stale bound of its exact price; every reader's verdict that
    # of a fresh uncounted matrix; and never more counted queries than an
    # eager matrix asks on the same sequence and reads
    rng = random.Random(kind)
    for _ in range(40):
        n, m = rng.randint(1, 5), rng.randint(1, 9)
        base = sum(1 << e for e in range(m) if rng.random() < 0.2)
        funcs = [_random_cost_function(m, rng, base, kind) for _ in range(n)]
        owners = [n if base >> e & 1 else rng.randrange(n + 1) for e in range(m)]
        bundles = [sum(1 << e for e, o in enumerate(owners) if o == i) for i in range(n)]
        pool = sum(1 << e for e, o in enumerate(owners) if o == n and not base >> e & 1)
        lazy_ops, eager_ops = OpCounter(), OpCounter()
        lazy = CostMatrix(funcs, bundles, lazy_ops)
        eager = EagerCostMatrix(funcs, bundles, eager_ops)
        for _ in range(20):
            pool, calls = _lazy_move(rng, m, bundles, pool, funcs)
            for j, bundle, known in calls:
                lazy.update(j, bundle, known)
                eager.update(j, bundle, known)
            fresh = CostMatrix(funcs, bundles)
            lazy.check_against_rebuild()
            assert all(got <= want for a, b in zip(lazy.cost, fresh.cost) for got, want in zip(a, b))
            assert eager.cost == fresh.cost
            seed = rng.random()
            _read_everything(lazy, fresh, random.Random(seed))
            _read_everything(eager, fresh, random.Random(seed))
            assert lazy_ops.evals <= eager_ops.evals


def test_debug_never_moves_evals():
    # the debug cross-checks build fresh uncounted matrices and compare
    # stale entries as bounds, so they ask nothing the solve counts
    for family, n, m in [
        ("binary_additive", 3, 60),
        ("capped_additive", 6, 60),
        ("cardinality", 8, 90),
        ("partition_matroid", 4, 60),
        ("threshold", 5, 80),
    ]:
        for seed in range(4):
            inst = generate(family, n, m, seed)
            plain, checked = solve_auto(inst), solve_auto(inst, debug=True)
            assert checked.counters == plain.counters, (family, seed)


def test_is_po_bruteforce_on_ternary():
    inst = ternary()
    assert is_po_bruteforce(inst, Allocation(n=2, m=3, bundles=(0b101, 0b010))) == (
        True,
        None,
    )
    assert is_po_bruteforce(inst, Allocation(n=2, m=3, bundles=(0b100, 0b011)))[0]
    po, dom = is_po_bruteforce(inst, Allocation(n=2, m=3, bundles=(0b111, 0)))
    assert not po
    assert dom is not None and dom.bundles == (0b101, 0b010)


def _first_dominator(inst, alloc):
    """The first dominating allocation in rank order, by a plain loop."""
    own = [evaluate(fn, b) for fn, b in zip(inst.agents, alloc.bundles)]
    for rank in range(inst.n**inst.m):
        other = allocation_from_rank(inst.n, inst.m, rank)
        costs = [evaluate(fn, b) for fn, b in zip(inst.agents, other.bundles)]
        if all(c <= o for c, o in zip(costs, own)) and costs != own:
            return other
    return None


def test_is_po_bruteforce_does_not_depend_on_the_chunk_size(monkeypatch):
    rng = random.Random(5)
    seen_po = seen_dominated = 0
    for n, m in [(2, 5), (3, 4), (3, 5), (4, 3)]:
        inst = Instance(
            n=n,
            m=m,
            declared_class="general",
            agents=tuple(random_monotone_table(m, rng) for _ in range(n)),
        )
        # rank 0 gives every item to agent 0; the social-cost minimum is PO
        sums = [social_cost(inst, allocation_from_rank(n, m, r)) for r in range(n**m)]
        ranks = [0, sums.index(min(sums))] + [rng.randrange(n**m) for _ in range(4)]
        for rank in ranks:
            alloc = allocation_from_rank(n, m, rank)
            expected = _first_dominator(inst, alloc)
            for block in (1, 7, 1 << 14, 1 << 16):
                monkeypatch.setattr(fairness, "_SCAN_BLOCK", block)
                assert is_po_bruteforce(inst, alloc) == (expected is None, expected)
            seen_po += expected is None
            seen_dominated += expected is not None
    assert seen_po and seen_dominated


@given(
    st.integers(1, 4), st.integers(0, 6), st.integers(1, 100), st.floats(0, 1), st.floats(0, 1)
)
def test_rank_blocks_match_direct_masks_on_any_range(n, m, block, lo, hi):
    total = n**m
    start, stop = sorted((int(lo * total), int(hi * total)))
    direct = _assignment_masks(n, m, np.arange(start, stop, dtype=np.int64))
    with mock.patch.object(fairness, "_SCAN_BLOCK", block):
        pieces = list(_rank_blocks(n, m, start, stop))
    pos = start
    for first, masks in pieces:
        assert first == pos and len(masks[0]) <= block
        pos += len(masks[0])
    assert pos == stop
    for i in range(n):
        joined = [x for _, masks in pieces for x in masks[i].tolist()]
        assert joined == direct[i].tolist()


def test_is_po_bruteforce_respects_limit():
    inst = ternary()
    with pytest.raises(UnsupportedSizeError):
        is_po_bruteforce(inst, Allocation(n=2, m=3, bundles=(0b111, 0)), limit=4)


def test_is_po_bruteforce_refuses_bad_settings_as_the_oracle_does():
    alloc = Allocation(n=2, m=3, bundles=(0b111, 0))
    with pytest.raises(InvalidInputError, match="limit must be positive, got 0"):
        is_po_bruteforce(ternary(), alloc, limit=0)
    with pytest.raises(InvalidInputError, match="hard cap"):
        is_po_bruteforce(ternary(), alloc, limit=10**9)


def _no_tables(fn, max_m=None):
    raise AssertionError("a dense table was built")


def test_a_single_agent_is_po_without_a_scan(monkeypatch):
    monkeypatch.setattr(fairness, "value_table", _no_tables)
    for m in (0, 5, 30, 64):
        inst = Instance(n=1, m=m, agents=(Cardinality(3, m),), declared_class="cancelable")
        assert is_po_bruteforce(inst, Allocation(n=1, m=m, bundles=((1 << m) - 1,))) == (
            True,
            None,
        )
    with pytest.raises(InvalidInputError, match="complete"):
        is_po_bruteforce(inst, Allocation(n=1, m=64, bundles=(1,), unallocated=(1 << 64) - 2))


def test_oversized_po_tables_are_refused_before_any_is_built(monkeypatch):
    monkeypatch.setattr(fairness, "value_table", _no_tables)
    inst = Instance(n=2, m=25, agents=(Additive((1,) * 25),) * 2, declared_class="additive")
    alloc = Allocation(n=2, m=25, bundles=((1 << 25) - 1, 0))
    with pytest.raises(UnsupportedSizeError, match="over the cap of 33554432"):
        is_po_bruteforce(inst, alloc, limit=10**8)


def test_allocation_from_rank_is_a_bijection():
    seen = set()
    for rank in range(3**3):
        alloc = allocation_from_rank(3, 3, rank)
        assert alloc.complete
        seen.add(alloc.bundles)
    assert len(seen) == 27
    assert allocation_from_rank(2, 3, 2).bundles == (0b101, 0b010)
    assert allocation_from_rank(2, 3, 0).bundles == (0b111, 0)


def test_envy_graph_equality_edges():
    inst = Instance(
        n=2, m=3, agents=(Threshold(k=1, m=3), Threshold(k=1, m=3)),
        declared_class="general",
    )
    alloc = Allocation.make(2, 3, (0b001, 0b010))
    graph = build_envy_graph(inst, alloc)
    assert sorted(graph.edges) == [(0, 1), (1, 0)]
    assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
    assert graph.successors(0) == [1]
    assert sorted(tail_scc(graph)) == [0, 1]
    assert find_cycle_through_edge(graph, 0, 1) == [0, 1]


def test_envy_graph_no_self_edges():
    inst = ternary()
    alloc = Allocation(n=2, m=3, bundles=(0b101, 0b010))
    graph = build_envy_graph(inst, alloc)
    assert all(i != j for i, j in graph.edges)


@given(
    st.integers(min_value=1, max_value=6),
    st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5))),
)
def test_envy_graph_successors_match_an_edge_scan(n, pairs):
    edges = frozenset((i, j) for i, j in pairs if i != j and i < n and j < n)
    graph = EnvyGraph(n=n, edges=edges)
    for i in range(n):
        assert graph.successors(i) == sorted(j for a, j in edges if a == i)
    # the cached adjacency takes no part in equality, hashing or repr
    twin = EnvyGraph(n=n, edges=frozenset(sorted(edges)))
    assert graph == twin and hash(graph) == hash(twin) == hash((n, edges))
    assert repr(graph) == f"EnvyGraph(n={n}, edges={edges!r})"
    assert graph != EnvyGraph(n=n + 1, edges=edges)
    # the tail component against a plain closure: each member reaches
    # exactly the component, and no such component has a lower agent
    reach = [{i} for i in range(n)]
    grew = True
    while grew:
        grew = False
        for i, j in edges:
            if not reach[j] <= reach[i]:
                reach[i] |= reach[j]
                grew = True
    tail = tail_scc(graph)
    assert all(reach[v] == tail for v in tail)
    assert min(tail) == min(v for v in range(n) if all(reach[w] == reach[v] for w in reach[v]))


def test_cycle_search():
    ring = EnvyGraph(n=3, edges=frozenset({(0, 1), (1, 2), (2, 0)}))
    assert find_cycle_through_edge(ring, 0, 1) == [0, 1, 2]
    chain = EnvyGraph(n=2, edges=frozenset({(0, 1)}))
    assert find_cycle_through_edge(chain, 0, 1) is None
    shortcut = EnvyGraph(
        n=4, edges=frozenset({(0, 1), (1, 2), (2, 3), (3, 0), (1, 0)})
    )
    assert find_cycle_through_edge(shortcut, 0, 1) == [0, 1]


def test_tail_scc_selection():
    chain = EnvyGraph(n=2, edges=frozenset({(0, 1)}))
    assert tail_scc(chain) == frozenset({1})
    edgeless = EnvyGraph(n=3, edges=frozenset())
    assert tail_scc(edgeless) == frozenset({0})
    ring = EnvyGraph(n=3, edges=frozenset({(0, 1), (1, 2), (2, 0)}))
    assert tail_scc(ring) == frozenset({0, 1, 2})
