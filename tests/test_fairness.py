import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from chorefair.costs import Additive, Threshold, evaluate
from chorefair.errors import InternalInvariantError, InvalidInputError, UnsupportedSizeError
from chorefair.fairness import (
    Allocation,
    CostMatrix,
    EnvyGraph,
    Violation,
    allocation_from_rank,
    build_envy_graph,
    find_cycle_through_edge,
    is_alpha_ef,
    is_alpha_efx,
    is_po_bruteforce,
    social_cost,
    strongly_connected_components,
    tail_scc,
)
from chorefair.instances import Instance, builtin


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


def test_cost_matrix_entries_and_queries():
    funcs = (Additive((1, 1, 0)), Additive((1, 0, 1)))
    calls = []

    def query(fn, mask):
        calls.append(mask)
        return evaluate(fn, mask)

    matrix = CostMatrix(funcs, [0b011, 0b100], query)
    assert matrix.cost == [[2, 0], [1, 1]]
    assert len(calls) == 4
    assert matrix.worst_drop(0) == 1 and matrix.worst_drop(1) == 0
    matrix.update(1, 0b110)
    assert matrix.bundles == [0b011, 0b110]
    assert matrix.cost == [[2, 1], [1, 1]]
    assert calls[-2:] == [0b110, 0b110]
    assert matrix.graph().edges == frozenset({(1, 0)})
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


@given(
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 7)), max_size=12),
)
def test_cost_matrix_updates_match_fresh_build(n, m, seed, moves):
    rng = random.Random(seed)
    funcs = [
        Additive(tuple(rng.randint(0, 1) for _ in range(m)))
        if rng.random() < 0.5
        else Threshold(k=rng.randint(0, m), m=m)
        for _ in range(n)
    ]
    owners = [rng.randrange(n + 1) for _ in range(m)]  # n means unallocated
    bundles = [sum(1 << e for e, o in enumerate(owners) if o == i) for i in range(n)]
    matrix = CostMatrix(funcs, bundles)
    for agent, item in moves:
        agent %= n
        if item < m:
            # move item to agent's bundle, or back to the pool if she has it
            holder = owners[item]
            if holder < n:
                bundles[holder] &= ~(1 << item)
                matrix.update(holder, bundles[holder])
            owners[item] = n if holder == agent else agent
            if holder != agent:
                bundles[agent] |= 1 << item
                matrix.update(agent, bundles[agent])
        fresh = CostMatrix(funcs, bundles)
        assert matrix.bundles == bundles
        assert matrix.cost == fresh.cost
        for i, b in enumerate(bundles):
            if b:
                assert matrix.worst_drop(i) == fresh.worst_drop(i)
        matrix.check_against_rebuild()
        assert matrix.is_efx() == _naive_is_efx(funcs, bundles)
        assert matrix.is_efx() == (not matrix.efx_violations(1))


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


def test_is_po_bruteforce_respects_limit():
    inst = ternary()
    with pytest.raises(UnsupportedSizeError):
        is_po_bruteforce(inst, Allocation(n=2, m=3, bundles=(0b111, 0)), limit=4)


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


def test_strongly_connected_components_partition():
    edges = {0: [1], 1: [0], 2: [1]}
    comps = strongly_connected_components(3, lambda v: edges.get(v, []))
    assert sorted(sorted(c) for c in comps) == [[0, 1], [2]]
