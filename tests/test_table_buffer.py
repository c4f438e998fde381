"""A ``Table`` keeps its values once, in one int64 buffer.

Built from a tuple or parsed from JSON, a table is the same object to every
caller: equal, hashed alike, picklable, and read by ``value_table`` through
a read-only view of that buffer.  A value past +-COST_MAX is refused,
with one message from every route, and every refusal names the first bad
index.
"""

import json
import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from chorefair import analyze, solve_auto
from chorefair import costs as costs_module
from chorefair.costs import COST_MAX, Cardinality, Table, evaluate, marginal, value_table
from chorefair.errors import InvalidInputError, ParseError
from chorefair.instances import (
    GENERATOR_FAMILIES,
    Instance,
    descriptor_from_json,
    generate,
    instance_to_json,
    parse_instance,
    serialize_instance,
)
from chorefair.reports import certify


def _doc(m, values):
    return json.dumps(
        {
            "n": 1,
            "m": m,
            "declared_class": "general",
            "agents": [{"type": "table", "m": m, "values": values}],
        }
    )


def _parsed(m, values) -> Table:
    return parse_instance(_doc(m, list(values))).agents[0]


def _cap_table(m, cap):
    return tuple(min(s.bit_count(), cap) for s in range(1 << m))


def test_built_and_parsed_tables_are_equal_and_hash_alike():
    values = _cap_table(6, 4)
    built, parsed = Table(m=6, values=values), _parsed(6, values)
    assert built == parsed and hash(built) == hash(parsed) == hash((6, values))
    assert built.values == parsed.values == values
    assert repr(built) == f"Table(m=6, values={values!r}, binary_marginal=True)"
    assert built != Table(m=6, values=_cap_table(6, 3))
    assert built != Cardinality(cap=4, m=6)


def test_tables_survive_pickling_into_worker_processes():
    agents = (Table(m=5, values=_cap_table(5, 3)), _parsed(5, _cap_table(5, 2)))
    for fn in agents:
        again = pickle.loads(pickle.dumps(fn))
        assert again == fn and again.binary_marginal == fn.binary_marginal
        assert np.array_equal(value_table(again), value_table(fn))
    inst = Instance(n=2, m=5, agents=agents, declared_class="general")
    assert analyze(inst, jobs=2).to_json() == analyze(inst).to_json()


def test_value_table_is_a_read_only_view_of_the_buffer():
    for fn in (Table(m=4, values=_cap_table(4, 2)), _parsed(4, _cap_table(4, 2))):
        view = value_table(fn)
        assert view.dtype == np.int64 and view.tolist() == list(fn.values)
        assert np.shares_memory(view, np.frombuffer(fn._values, dtype=np.int64))
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[1] = 5


def test_tables_are_immutable():
    fn = Table(m=1, values=(0, 1))
    with pytest.raises(FrozenInstanceError):
        fn.m = 2
    with pytest.raises(FrozenInstanceError):
        del fn.binary_marginal


class _Listed:
    """A cost function given by its values, of no descriptor kind, so that
    ``value_table`` evaluates it mask by mask."""

    def __init__(self, values):
        self.values, self.m = values, len(values).bit_length() - 1

    def value(self, mask):
        return self.values[mask]


def test_values_at_cost_max_read_alike_everywhere():
    top = COST_MAX
    values = (0, top - 1, top - 1, top)
    for fn in (Table(m=2, values=values), _parsed(2, values)):
        assert fn.values == values
        assert [evaluate(fn, s) for s in range(4)] == list(values)
        assert marginal(fn, 1, 0b01) == 1 and marginal(fn, 0, 0) == top - 1
        assert fn.binary_marginal is False
        assert value_table(fn).tolist() == list(values)
        inst = Instance(n=1, m=2, agents=(fn,), declared_class="general")
        text = serialize_instance(inst)
        assert text == json.dumps(instance_to_json(inst), sort_keys=True, separators=(",", ":")) + "\n"
        assert parse_instance(text) == inst
    assert value_table(_Listed(values)).tolist() == list(values)


def test_minus_cost_max_passes_the_range_test_and_fails_monotonicity_alike():
    message = "table is not monotone: value(0) > value(1)"
    with pytest.raises(InvalidInputError) as built:
        Table(m=1, values=(0, -COST_MAX))
    with pytest.raises(ParseError) as parsed:
        _parsed(1, (0, -COST_MAX))
    assert str(built.value) == message
    assert str(parsed.value) == f"agents[0]: {message}"


# just past +-COST_MAX, and either side of +-2^62 and of the int64 range,
# where tables once changed storage
PAST_COST_MAX = (COST_MAX + 1, -COST_MAX - 1, 2**62 - 1, 2**62, 2**63 - 1, 2**63, 2**63 + 1)
PAST_COST_MAX += (-(2**62), -(2**62) - 1, -(2**63), -(2**63) - 1)


@pytest.mark.parametrize("top", PAST_COST_MAX)
def test_values_at_the_int64_edges_read_alike_everywhere(top):
    # Table, the JSON reader and value_table refuse alike, at the value's mask
    values = (0, 1, top, top)
    message = f"table value at mask 2 lies outside ±{COST_MAX}: {top}"
    with pytest.raises(InvalidInputError) as built:
        Table(m=2, values=values)
    with pytest.raises(ParseError) as parsed:
        _parsed(2, values)
    with pytest.raises(InvalidInputError) as evaluated:
        value_table(_Listed(values))
    assert str(built.value) == str(evaluated.value) == message
    assert str(parsed.value) == f"agents[0]: {message}"


class _Int(int):
    pass


@pytest.mark.parametrize("bad", [True, 1.0, "1"])
def test_parser_and_table_refuse_a_bad_value_at_index_2_as_before(bad):
    values = [0, 1, 1, 2]
    values[2] = bad
    with pytest.raises(InvalidInputError) as built:
        Table(m=2, values=tuple(values))
    with pytest.raises(ParseError) as parsed:
        parse_instance(_doc(2, values))
    assert str(built.value) == f"table value at mask 2 is not an integer: {bad!r}"
    assert str(parsed.value) == "agents[0].values: expected a list of integers"


def test_parser_and_table_accept_int_subclasses():
    values = [0, 1, _Int(1), 2]
    built = Table(m=2, values=tuple(values))
    parsed = descriptor_from_json({"type": "table", "m": 2, "values": values}, m=2)
    assert built == parsed == Table(m=2, values=(0, 1, 1, 2))
    assert built.values == (0, 1, 1, 2)


def test_serialized_text_matches_json_dumps():
    for family in GENERATOR_FAMILIES:
        for m in (0, 3, 8, 10):
            inst = generate(family, 2, m, seed=m)
            tables = Instance(
                n=2,
                m=m,
                agents=tuple(
                    Table(m=m, values=tuple(int(x) * k for x in value_table(fn)))
                    for fn, k in zip(inst.agents, (1, 10**8 + 7))
                ),
                declared_class="general",
                metadata={"name": "é", "z": [1, None], "a": {"y": 1, "b": True}},
            )
            for one in (inst, tables):
                expected = json.dumps(instance_to_json(one), sort_keys=True, separators=(",", ":"))
                assert serialize_instance(one) == expected + "\n"


def test_additivity_is_decided_once_per_table(monkeypatch):
    calls = []
    check = costs_module._check_additive
    monkeypatch.setattr(
        costs_module, "_check_additive", lambda *a: calls.append(1) or check(*a)
    )
    unit = Table(m=3, values=tuple(s.bit_count() for s in range(8)))
    inst = Instance(n=2, m=3, agents=(unit, unit), declared_class="additive")
    report = solve_auto(inst, verify=True)
    assert report.verification.passed
    assert certify(inst, report).passed
    assert calls == [1]
