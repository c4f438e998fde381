import json

import pytest

from chorefair.costs import (
    Additive,
    CappedAdditive,
    Cardinality,
    PartitionMatroidRank,
    Table,
    Threshold,
    check_class,
    evaluate,
)
from chorefair.errors import InvalidInputError, ParseError
from chorefair.instances import (
    BUILTIN_NAMES,
    GENERATE_MAX_M,
    GENERATE_MAX_N,
    GENERATOR_FAMILIES,
    Instance,
    builtin,
    declaration_bound,
    descriptor_from_json,
    descriptor_to_json,
    generate,
    instance_to_json,
    kind_class,
    load_instance,
    parse_instance,
    proves,
    serialize_instance,
)
from chorefair.itemset import full_set


def test_declaration_bounds_per_kind():
    assert declaration_bound(Additive((1, 0))) == "additive"
    assert declaration_bound(Table(m=1, values=(0, 1))) == "additive"
    # a cap below the unit items binds; one that reaches them, or 0, does not
    assert declaration_bound(CappedAdditive((1, 1), cap=1)) == "cancelable"
    assert declaration_bound(CappedAdditive((1, 0), cap=1)) == "additive"
    assert declaration_bound(Cardinality(cap=1, m=2)) == "cancelable"
    assert declaration_bound(Cardinality(cap=2, m=2)) == "additive"
    assert declaration_bound(Cardinality(cap=0, m=2)) == "additive"
    # one binding group and no free one is cancelable; a second binding
    # group, or a free one beside it, leaves only submodular
    one = PartitionMatroidRank(groups=((0, 1),), capacities=(1,))
    assert declaration_bound(one) == "cancelable"
    two = PartitionMatroidRank(groups=((0, 1), (2, 3)), capacities=(1, 1))
    assert declaration_bound(two) == "submodular"
    free = PartitionMatroidRank(groups=((0, 1), (2, 3)), capacities=(1, 2))
    assert declaration_bound(free) == "submodular"
    assert declaration_bound(PartitionMatroidRank(((0, 1), (2,)), (2, 0))) == "additive"
    assert declaration_bound(Threshold(k=1, m=2)) == "general"
    assert declaration_bound(Threshold(k=0, m=2)) == "additive"
    assert declaration_bound(Threshold(k=2, m=2)) == "additive"


def test_kind_class_nesting():
    add = Additive((1, 0))
    assert kind_class(add) == "additive"
    for cls in ("additive", "cancelable", "submodular", "general"):
        assert proves(add, cls)
    card = Cardinality(cap=1, m=2)
    assert kind_class(card) == "cancelable"
    assert not proves(card, "additive")
    assert proves(card, "cancelable")
    assert proves(card, "general")
    thr = Threshold(k=1, m=2)
    assert kind_class(thr) == "general"
    assert not proves(thr, "submodular")
    assert proves(thr, "general")
    binary_table = Table(m=1, values=(0, 1))
    assert kind_class(binary_table) is None
    assert proves(binary_table, "general")
    wide_table = Table(m=1, values=(0, 2))
    assert not proves(wide_table, "general")


def test_instance_validation():
    fn = Additive((1, 0))
    with pytest.raises(InvalidInputError):
        Instance(n=0, m=2, agents=(), declared_class="additive")
    with pytest.raises(InvalidInputError):
        Instance(n=2, m=2, agents=(fn,), declared_class="additive")
    with pytest.raises(InvalidInputError):
        Instance(n=1, m=3, agents=(fn,), declared_class="additive")
    with pytest.raises(InvalidInputError):
        Instance(n=1, m=2, agents=(fn,), declared_class="bogus")


class _OneForNothing:
    """A protocol object pricing every set, the empty one included, at 1."""

    m = 2

    def value(self, mask):
        return 1


def test_instance_refuses_an_agent_pricing_the_empty_set_above_zero():
    # the cost matrix prices empty bundles at 0 without asking
    with pytest.raises(InvalidInputError, match=r"^agents\[1\] prices the empty set at 1, not 0$"):
        Instance(n=2, m=2, agents=(Additive((1, 0)), _OneForNothing()), declared_class="general")


def test_declared_class_must_cover_descriptor_kinds():
    thr = Threshold(k=1, m=3)
    with pytest.raises(InvalidInputError):
        Instance(n=1, m=3, agents=(thr,), declared_class="cancelable")
    card = Cardinality(cap=2, m=3)
    with pytest.raises(InvalidInputError):
        Instance(n=1, m=3, agents=(card,), declared_class="additive")
    # broader declarations are always allowed
    Instance(n=1, m=3, agents=(Additive((1, 1, 0)),), declared_class="general")


def test_descriptor_json_roundtrip():
    fns = [
        Additive((1, 0, 1)),
        CappedAdditive((1, 1, 1), cap=2),
        Cardinality(cap=2, m=3),
        PartitionMatroidRank(groups=((0, 2), (1,)), capacities=(1, 1)),
        Threshold(k=1, m=3),
        Table(m=2, values=(0, 1, 1, 2)),
    ]
    for fn in fns:
        obj = descriptor_to_json(fn)
        back = descriptor_from_json(obj, m=fn.m)
        assert back == fn


def test_instance_roundtrip_through_text():
    inst = Instance(
        n=2,
        m=3,
        agents=(Additive((1, 1, 0)), Additive((1, 0, 1))),
        declared_class="additive",
        metadata={"name": "pair", "seed": 7},
    )
    text = serialize_instance(inst)
    assert text.endswith("\n")
    back = parse_instance(text)
    assert back == inst
    assert back.metadata == inst.metadata
    assert parse_instance(text.encode()) == inst


def test_load_instance(tmp_path):
    inst = generate("cardinality", 2, 4, seed=3)
    path = tmp_path / "inst.json"
    path.write_text(serialize_instance(inst))
    assert load_instance(str(path)) == inst


@pytest.mark.parametrize("bad", [
    "{not json",
    "[]",
    '{"n": 1, "m": 2, "agents": []}',
    '{"n": 1, "m": 2, "declared_class": "additive", "agents": []}',
    '{"n": 1, "m": 2, "declared_class": "additive", "agents": [{"type": "nope"}]}',
    '{"n": 1, "m": 2, "declared_class": "additive", "agents": [{"type": "additive"}]}',
    '{"n": 1, "m": 2, "declared_class": "additive", '
    '"agents": [{"type": "additive", "costs": [1, "x"]}]}',
    '{"n": 1, "m": 2, "declared_class": "additive", '
    '"agents": [{"type": "additive", "costs": [1, 2]}]}',
    '{"n": "1", "m": 2, "declared_class": "additive", '
    '"agents": [{"type": "additive", "costs": [1, 1]}]}',
    '{"n": 1, "m": 3, "declared_class": "additive", '
    '"agents": [{"type": "additive", "costs": [1, 1]}]}',
    '{"n": 1, "m": 2, "declared_class": "additive", '
    '"agents": [{"type": "threshold", "k": 1}]}',
    '{"n": 1, "m": 2, "declared_class": "additive", '
    '"agents": [{"type": "additive", "costs": [1, 1]}], "metadata": []}',
])
def test_parse_rejects_malformed_documents(bad):
    with pytest.raises(ParseError):
        parse_instance(bad)


@pytest.mark.parametrize("bad", ["true", "1.0", '"1"'])
def test_parse_refuses_a_non_integer_table_value_at_a_later_index(bad):
    text = (
        '{"n": 1, "m": 2, "declared_class": "general", '
        f'"agents": [{{"type": "table", "m": 2, "values": [0, 1, {bad}, 2]}}]}}'
    )
    with pytest.raises(ParseError, match=r"agents\[0\]\.values: expected a list of integers"):
        parse_instance(text)


def test_int_lists_accept_int_subclasses_other_than_bool():
    class Int(int):
        pass

    fn = descriptor_from_json({"type": "table", "m": 1, "values": [0, Int(1)]}, m=1)
    assert fn == Table(m=1, values=(0, 1))
    with pytest.raises(ParseError, match="expected a list of integers"):
        descriptor_from_json({"type": "table", "m": 1, "values": [0, True]}, m=1)


def test_generate_is_deterministic_and_seed_sensitive():
    for family in GENERATOR_FAMILIES:
        a = serialize_instance(generate(family, 3, 5, seed=11))
        b = serialize_instance(generate(family, 3, 5, seed=11))
        assert a == b, family
    texts = {serialize_instance(generate("binary_additive", 3, 8, seed=s)) for s in range(20)}
    assert len(texts) > 1


def test_generate_declared_class_is_truthful_on_small_instances():
    for family in GENERATOR_FAMILIES:
        for seed in range(8):
            inst = generate(family, 2, 5, seed=seed)
            flag = {
                "additive": lambda r: r.additive,
                "cancelable": lambda r: r.cancelable,
                "submodular": lambda r: r.submodular,
                "general": lambda r: r.binary_marginal and r.monotone,
            }[inst.declared_class]
            for fn in inst.agents:
                report = check_class(fn)
                assert report.binary_marginal
                assert flag(report), (family, seed)


def test_generate_params_are_respected():
    inst = generate("cardinality", 3, 6, seed=0, params={"cap": 2})
    assert all(fn.cap == 2 for fn in inst.agents)
    inst = generate("threshold", 3, 6, seed=0, params={"k": 1})
    assert all(fn.k == 1 for fn in inst.agents)
    inst = generate("partition_matroid", 2, 6, seed=0, params={"groups": 2})
    assert all(len(fn.groups) <= 2 for fn in inst.agents)
    assert inst.metadata["params"] == {"groups": 2}


def test_generate_rejects_bad_arguments():
    with pytest.raises(InvalidInputError):
        generate("nope", 2, 3, seed=0)
    with pytest.raises(InvalidInputError):
        generate("binary_additive", 0, 3, seed=0)
    with pytest.raises(InvalidInputError):
        generate("table", 2, 13, seed=0)
    with pytest.raises(InvalidInputError, match="seed must be non-negative, got -1"):
        generate("cardinality", 2, 3, seed=-1)


@pytest.mark.parametrize(
    "n, m", [(2, 10**8), (GENERATE_MAX_N + 1, 3), (2, GENERATE_MAX_M + 1)]
)
def test_generate_refuses_sizes_past_its_bound_before_drawing(n, m):
    with pytest.raises(InvalidInputError, match=f"got n={n}, m={m}"):
        generate("binary_additive", n, m, seed=0)


def test_builtin_catalog():
    assert set(BUILTIN_NAMES) == {
        "ternary-no-efxpo",
        "cancelable-cap5-n2",
        "appendixA-submodular-4",
        "appendixA-cap5-function",
    }
    with pytest.raises(InvalidInputError):
        builtin("missing")


def test_builtin_ternary_values():
    inst = builtin("ternary-no-efxpo")
    assert (inst.n, inst.m, inst.declared_class) == (2, 3, "general")
    a, b = inst.agents
    assert [evaluate(a, 1 << e) for e in range(3)] == [2, 1, 0]
    assert [evaluate(b, 1 << e) for e in range(3)] == [2, 0, 1]
    assert evaluate(a, full_set(3)) == 3
    assert not a.binary_marginal


def test_builtin_cap5_pair():
    inst = builtin("cancelable-cap5-n2")
    assert (inst.n, inst.m, inst.declared_class) == (2, 10, "cancelable")
    assert all(evaluate(fn, full_set(10)) == 5 for fn in inst.agents)


def test_builtin_four_item_submodular():
    inst = builtin("appendixA-submodular-4")
    fn = inst.agents[0]
    assert (inst.n, inst.m, inst.declared_class) == (1, 4, "submodular")
    assert evaluate(fn, full_set(4)) == 3
    assert evaluate(fn, 0b0111) == 2
    assert evaluate(fn, 0b1011) == 3
    assert fn.binary_marginal


def test_builtin_cap5_function():
    inst = builtin("appendixA-cap5-function")
    assert (inst.n, inst.m, inst.declared_class) == (1, 8, "cancelable")
    assert evaluate(inst.agents[0], full_set(8)) == 5


def test_instance_to_json_shape():
    inst = generate("threshold", 2, 4, seed=5)
    obj = instance_to_json(inst)
    assert obj["n"] == 2 and obj["m"] == 4
    assert obj["declared_class"] == "general"
    assert len(obj["agents"]) == 2
    assert json.dumps(obj)  # serialisable as-is
