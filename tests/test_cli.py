import io
import json
import logging
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chorefair import cli, fairness
from chorefair.cli import main
from chorefair.costs import (
    COST_MAX,
    Additive,
    CappedAdditive,
    Cardinality,
    PartitionMatroidRank,
    Table,
    Threshold,
)
from chorefair.instances import Instance, builtin, generate, load_instance, serialize_instance
from chorefair.reports import _additive_floor
from chorefair.solvers import solve_auto
from helpers import cap7_pair


def write_instance(tmp_path, inst, name="inst.json"):
    path = tmp_path / name
    path.write_text(serialize_instance(inst))
    return str(path)


def write_allocation(tmp_path, bundles, unallocated=(), name="alloc.json"):
    path = tmp_path / name
    path.write_text(
        json.dumps({"bundles": bundles, "unallocated": list(unallocated)})
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


class TestSolve:
    def test_additive_solve_verify(self, capsys, tmp_path):
        path = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        # ternary costs are not binary-marginal, so every solver refuses
        code, out, err = run(capsys, "solve", "--input", path)
        assert code == 2
        assert "marginals outside {0, 1}" in err

    @pytest.mark.parametrize("declared", ["general", "cancelable", "submodular"])
    @pytest.mark.parametrize("m", [12, 13])
    def test_non_binary_table_refused_at_every_size(self, capsys, tmp_path, declared, m):
        doubled = Table(m=m, values=tuple(2 * s.bit_count() for s in range(1 << m)))
        inst = Instance(n=2, m=m, agents=(doubled, doubled), declared_class=declared)
        code, out, err = run(capsys, "solve", "--input", write_instance(tmp_path, inst))
        assert code == 2
        assert out == ""
        assert err == "error: agents[0] has marginals outside {0, 1}\n"

    def test_cap5_verified_solve(self, capsys):
        code, payload, err = run_json(
            capsys, "solve", "--builtin", "cancelable-cap5-n2", "--verify"
        )
        assert code == 0
        assert payload["guarantee"] == "efx"
        assert payload["verification"]["passed"] is True
        assert payload["verification"]["checks"] == {"complete": True, "efx": True}
        assert "not PO" in payload["notes"]
        sizes = sorted(len(b) for b in payload["allocation"]["bundles"])
        assert sizes == [5, 5]

    def test_table_declared_additive_past_the_exhaustive_gate(self, capsys, tmp_path):
        path = write_instance(tmp_path, cap7_pair())
        code, out, err = run(capsys, "solve", "--input", path, "--verify", "--json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: agents[0] is declared 'additive' but is not additive")
        assert err.count("\n") == 1

    def test_solve_writes_allocation_file(self, capsys, tmp_path):
        out_path = tmp_path / "alloc.json"
        code, payload, _ = run_json(
            capsys,
            "solve",
            "--builtin",
            "appendixA-cap5-function",
            "--output",
            str(out_path),
        )
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc == {"bundles": [[0, 1, 2, 3, 4, 5, 6, 7]], "unallocated": []}
        assert payload["allocation"] == doc

    def test_trace_goes_to_stderr(self, capsys):
        code, out, err = run(
            capsys, "solve", "--builtin", "appendixA-submodular-4", "--trace"
        )
        assert code == 0
        events = [json.loads(line)["event"] for line in err.splitlines() if line]
        assert "seed" in events

    def test_wrong_algorithm_for_class(self, capsys):
        code, out, err = run(
            capsys,
            "solve",
            "--builtin",
            "cancelable-cap5-n2",
            "--algorithm",
            "additive",
        )
        assert code == 2
        assert "error:" in err

    def test_human_output_lists_bundles(self, capsys):
        code, out, err = run(capsys, "solve", "--builtin", "appendixA-submodular-4")
        assert code == 0
        assert "guarantee: 2-ef" in out
        assert "agent 0: 0 1 2 3" in out


class TestVerify:
    def test_efx_violation_fails(self, capsys, tmp_path):
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0, 2], [1]])
        code, out, err = run(
            capsys,
            "verify",
            "--input",
            inst,
            "--allocation",
            alloc,
            "--criteria",
            "efx,po",
        )
        assert code == 1
        assert "efx: FAIL (agent 0 against agent 1 dropping item 2)" in out
        assert "po: pass" in out

    def test_empty_allocation_is_envy_free(self, capsys, tmp_path):
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[], []], unallocated=[0, 1, 2])
        code, payload, _ = run_json(
            capsys, "verify", "--input", inst, "--allocation", alloc,
            "--criteria", "ef,social-cost",
        )
        assert code == 0
        assert payload["passed"] is True
        assert payload["complete"] is False
        assert payload["social_cost"] == 0

    def test_po_failure_names_dominator(self, capsys, tmp_path):
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0, 1, 2], []])
        code, payload, _ = run_json(
            capsys, "verify", "--input", inst, "--allocation", alloc,
            "--criteria", "po",
        )
        assert code == 1
        assert payload["criteria"]["po"]["dominated_by"]["bundles"] == [[0, 2], [1]]

    def test_a_single_agent_past_the_table_size_is_po(self, capsys, tmp_path):
        # one agent holding everything is PO with no table, at any m
        one = Instance(n=1, m=30, agents=(Cardinality(3, 30),), declared_class="cancelable")
        inst = write_instance(tmp_path, one)
        alloc = write_allocation(tmp_path, [list(range(30))])
        code, out, err = run(
            capsys, "verify", "--input", inst, "--allocation", alloc, "--criteria", "efx,po"
        )
        assert (code, out, err) == (0, "efx: pass\npo: pass\noverall: pass\n", "")
        code, payload, err = run_json(capsys, "solve", "--input", inst, "--verify")
        assert code == 0 and err == ""
        assert payload["verification"]["passed"] is True

    def test_scaled_criteria(self, capsys, tmp_path):
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0], [1, 2]])
        code, payload, _ = run_json(
            capsys, "verify", "--input", inst, "--allocation", alloc,
            "--criteria", "alpha-ef:2/1,alpha-efx:1",
        )
        assert code == 0
        assert payload["criteria"]["alpha-ef:2"]["pass"] is True
        assert payload["criteria"]["alpha-efx:1"]["pass"] is True

    def test_envy_criteria_read_one_price_matrix(self, capsys, tmp_path, monkeypatch):
        builds = []
        init = fairness.CostMatrix.__init__
        monkeypatch.setattr(
            fairness.CostMatrix, "__init__", lambda self, *a: builds.append(1) or init(self, *a)
        )
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0, 2], [1]])
        argv = ["verify", "--input", inst, "--allocation", alloc, "--criteria"]
        code, out, err = run(capsys, *argv, "ef,efx,alpha-ef:3/2,alpha-efx:2,social-cost")
        assert code == 1 and builds == [1]
        assert out.splitlines()[:4] == [
            "ef: FAIL (agent 0 against agent 1)",
            "efx: FAIL (agent 0 against agent 1 dropping item 2)",
            "alpha-ef:3/2: FAIL (agent 0 against agent 1)",
            "alpha-efx:2: pass",
        ]
        code, out, err = run(capsys, *argv, "po,social-cost")
        assert code == 0 and builds == [1]

    def test_unknown_criterion(self, capsys, tmp_path):
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0], [1, 2]])
        code, out, err = run(
            capsys, "verify", "--input", inst, "--allocation", alloc,
            "--criteria", "fairness",
        )
        assert code == 2
        assert "unknown criterion" in err

    def test_alpha_below_one(self, capsys, tmp_path):
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0], [1, 2]])
        code, out, err = run(
            capsys, "verify", "--input", inst, "--allocation", alloc,
            "--criteria", "alpha-efx:1/2",
        )
        assert code == 2
        assert "alpha must be >= 1" in err

    def test_malformed_allocation_file(self, capsys, tmp_path):
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        bad = tmp_path / "alloc.json"
        bad.write_text("{not json")
        code, out, err = run(
            capsys, "verify", "--input", inst, "--allocation", str(bad)
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"bundles": [[0, 1], [2, "x"]]}, "bundles[1]"),
            ({"bundles": [[0, 1], [2, 3.0]]}, "bundles[1]"),
            ({"bundles": [[0, 1], [2, None]]}, "bundles[1]"),
            ({"bundles": [[0, 1], [2, [3]]]}, "bundles[1]"),
            ({"bundles": [[0, True], [2, 3]]}, "bundles[0]"),
            ({"bundles": [[0, 1], 5]}, "bundles[1]"),
            ({"bundles": [[0, 1], "23"]}, "bundles[1]"),
            ({"bundles": [[0, 1], [2]], "unallocated": "3"}, "unallocated"),
            ({"bundles": [[0, 1], [2]], "unallocated": 3}, "unallocated"),
        ],
    )
    def test_damaged_allocation_items_are_refused_in_one_line(self, capsys, tmp_path, doc, field):
        # JSON true is no item 1: every item must be an integer, bools refused
        inst = write_instance(tmp_path, generate("cardinality", 2, 4, seed=0))
        path = tmp_path / "alloc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--input", inst, "--allocation", str(path))
        assert (code, out) == (2, "")
        assert err == f"error: allocation.{field}: expected a list of integer items\n"

    def test_po_of_proved_additive_agents_is_read_off_the_floor_at_any_size(
        self, capsys, tmp_path
    ):
        # every cap reaches its agent's unit items, so every agent is proved
        # additive; 3^40 allocations are far past the scan, and the floor
        # decides PO: the solver's EFX allocation costs 3 against a floor of 2
        inst = generate("capped_additive", 3, 40, seed=1, params={"cap": 40})
        alloc = solve_auto(inst).allocation
        assert fairness.social_cost(inst, alloc) == 3 and _additive_floor(inst) == 2
        inst_path = write_instance(tmp_path, inst)
        alloc_path = write_allocation(tmp_path, alloc.to_json()["bundles"])
        argv = ["verify", "--input", inst_path, "--allocation", alloc_path]
        code, payload, err = run_json(capsys, *argv, "--criteria", "po,social-cost")
        assert (code, err) == (1, "")
        assert payload["criteria"]["po"]["pass"] is False
        dominator = fairness.Allocation.from_json(
            payload["criteria"]["po"]["dominated_by"], inst.n, inst.m
        )
        before = [fairness.evaluate(fn, b) for fn, b in zip(inst.agents, alloc.bundles)]
        after = [fairness.evaluate(fn, b) for fn, b in zip(inst.agents, dominator.bundles)]
        assert all(a <= b for a, b in zip(after, before)) and after != before
        # each item to the lowest agent taking it for free, else to agent 0
        owners = [
            next((i for i, fn in enumerate(inst.agents) if not fairness.evaluate(fn, 1 << e)), 0)
            for e in range(inst.m)
        ]
        floor = fairness.Allocation.from_assignment(inst.n, inst.m, owners)
        alloc_path = write_allocation(tmp_path, floor.to_json()["bundles"])
        argv = ["verify", "--input", inst_path, "--allocation", alloc_path]
        code, out, err = run(capsys, *argv, "--criteria", "po,social-cost")
        assert (code, out, err) == (0, "po: pass\nsocial-cost: pass (value 2)\noverall: pass\n", "")

    def test_po_of_an_incomplete_allocation_is_refused(self, capsys, tmp_path):
        inst = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0], [1]], unallocated=[2])
        code, out, err = run(
            capsys, "verify", "--input", inst, "--allocation", alloc, "--criteria", "po"
        )
        assert (code, out) == (2, "")
        assert err == "error: Pareto check requires a complete allocation\n"

    def test_po_past_the_scan_without_additivity_is_refused_by_size(self, capsys, tmp_path):
        card = Cardinality(5, 15)
        inst = Instance(n=3, m=15, agents=(card,) * 3, declared_class="cancelable")
        inst_path = write_instance(tmp_path, inst)
        alloc = write_allocation(tmp_path, [list(range(5)), list(range(5, 10)), list(range(10, 15))])
        code, out, err = run(
            capsys, "verify", "--input", inst_path, "--allocation", alloc, "--criteria", "po"
        )
        assert (code, out) == (2, "")
        assert err == (
            "error: 3^15 = 14348907 complete allocations exceed the limit of 10000000\n"
        )


class TestCheckClass:
    def test_builtin_consistent(self, capsys):
        code, payload, _ = run_json(
            capsys, "check-class", "--builtin", "appendixA-cap5-function"
        )
        assert code == 0
        assert payload["consistent"] is True
        agent = payload["agents"][0]
        assert agent["cancelable"] is True
        assert agent["additive"] is False

    def test_witness_in_human_output(self, capsys):
        code, out, err = run(
            capsys, "check-class", "--builtin", "appendixA-cap5-function"
        )
        assert code == 0
        assert "witness against additive" in out
        assert "consistent" in out

    @pytest.mark.parametrize("m", [64, 200])
    def test_sampled_on_wide_ground_sets(self, capsys, tmp_path, m):
        inst = Instance(
            n=2,
            m=m,
            agents=(Cardinality(cap=3, m=m), Cardinality(cap=5, m=m)),
            declared_class="cancelable",
        )
        path = write_instance(tmp_path, inst)
        code, payload, err = run_json(capsys, "check-class", "--input", path)
        assert code == 0
        assert payload["consistent"] is True
        for agent in payload["agents"]:
            assert agent["cancelable"] is True and agent["additive"] is False

    def test_threshold_fails_every_narrow_class_past_twenty_items(self, capsys, tmp_path):
        inst = Instance(n=1, m=30, agents=(Threshold(k=28, m=30),), declared_class="general")
        path = write_instance(tmp_path, inst)
        code, payload, err = run_json(capsys, "check-class", "--input", path)
        assert code == 0 and payload["consistent"] is True
        agent = payload["agents"][0]
        assert not (agent["additive"] or agent["cancelable"] or agent["submodular"])
        assert set(agent["witnesses"]) == {"additive", "cancelable", "submodular"}
        code, out, err = run(capsys, "check-class", "--input", path)
        assert out.splitlines()[:2] == [
            "agent 0: binary_marginal=yes monotone=yes additive=no cancelable=no submodular=no",
            "  witness against submodular: S={-} T={" + " ".join(map(str, range(28))) + "} e=28",
        ]

    def test_binding_cap_is_not_additive_past_twenty_items(self, capsys, tmp_path):
        inst = Instance(n=1, m=30, agents=(CappedAdditive((1,) * 30, cap=29),),
                        declared_class="cancelable")
        path = write_instance(tmp_path, inst)
        code, payload, err = run_json(capsys, "check-class", "--input", path)
        assert code == 0 and payload["consistent"] is True
        agent = payload["agents"][0]
        assert agent["additive"] is False and agent["cancelable"] is True
        assert agent["witnesses"]["additive"] == {"S": list(range(29)), "T": [], "e": 29}

    def test_closed_form_kinds_are_classified_without_evaluating(
        self, capsys, tmp_path, monkeypatch
    ):
        path = write_instance(tmp_path, generate("partition_matroid", 3, 10_000, seed=0))

        def refuse(self, *args):
            raise AssertionError("a subset was evaluated")

        monkeypatch.setattr(PartitionMatroidRank, "value", refuse)
        monkeypatch.setattr(PartitionMatroidRank, "marginal", refuse)
        code, payload, err = run_json(capsys, "check-class", "--input", path)
        assert code == 0 and payload["consistent"] is True
        assert all(agent["submodular"] for agent in payload["agents"])

    def test_contradicted_declaration(self, capsys, tmp_path):
        # an explicit table may declare itself additive, but these values
        # are min(|S|, 2) and the audit catches the lie
        capped = tuple(min(mask.bit_count(), 2) for mask in range(16))
        inst = Instance(
            n=1,
            m=4,
            agents=(Table(m=4, values=capped),),
            declared_class="additive",
        )
        path = write_instance(tmp_path, inst, "lying.json")
        code, out, err = run(capsys, "check-class", "--input", path)
        assert code == 2
        assert "contradicted by agents [0]" in err


class TestEnumerate:
    def test_ternary_efx_po_impossible(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--builtin", "ternary-no-efxpo",
            "--report", "efx-po",
        )
        assert code == 0
        assert "efx and po together: impossible" in out

    def test_full_report_json(self, capsys):
        code, payload, _ = run_json(
            capsys, "enumerate", "--builtin", "ternary-no-efxpo", "--jobs", "2"
        )
        assert code == 0
        assert payload["total_allocations"] == 8
        assert payload["min_social_cost"] == 2
        assert len(payload["efx_allocations"]) == 2

    def test_exists_with_dump(self, capsys, tmp_path):
        dump = tmp_path / "verdict.json"
        code, payload, _ = run_json(
            capsys, "enumerate", "--builtin", "ternary-no-efxpo",
            "--report", "efx-exists", "--dump", str(dump),
        )
        assert code == 0
        assert payload["efx_exists"] is True
        assert payload["witness"]["bundles"] == [[0], [1, 2]]
        verdict = json.loads(dump.read_text())
        assert verdict["efx_exists"] is True

    @pytest.mark.parametrize("report", [[], ["--report", "all"], ["--report", "efx-po"]])
    def test_dump_without_exists_search_refused(self, capsys, tmp_path, report):
        # the dump was once ignored: exit 0 and no file
        dump = tmp_path / "verdict.json"
        code, out, err = run(
            capsys, "enumerate", "--builtin", "ternary-no-efxpo", *report, "--dump", str(dump)
        )
        assert (code, out, err) == (2, "", "error: --dump needs --report efx-exists\n")
        assert not dump.exists()

    def test_limit_refusal(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--builtin", "cancelable-cap5-n2",
            "--limit", "1000",
        )
        assert code == 2
        assert "exceed" in err

    def test_oversized_tables_refused_in_one_line(self, capsys, tmp_path):
        wide = Instance(n=1, m=26, agents=(Additive((1,) * 26),), declared_class="additive")
        code, out, err = run(
            capsys, "enumerate", "--input", write_instance(tmp_path, wide), "--report", "min-sc"
        )
        assert code == 2
        assert out == ""
        assert err == (
            "error: dense cost tables need n * 2^m = 67108864 entries, "
            "over the cap of 33554432\n"
        )

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--limit", "-5", "limit must be positive"), ("--jobs", "0", "jobs must be positive")],
    )
    def test_non_positive_settings_refused(self, capsys, flag, value, message):
        code, out, err = run(
            capsys, "enumerate", "--builtin", "ternary-no-efxpo", flag, value
        )
        assert code == 2
        assert err.strip() == f"error: {message}, got {value}"


class TestGenerate:
    def test_round_trip(self, capsys, tmp_path):
        path = tmp_path / "gen.json"
        code, out, err = run(
            capsys, "generate", "--family", "cardinality", "-n", "2", "-m", "6",
            "--seed", "3", "--params", '{"cap": 2}', "--output", str(path),
        )
        assert code == 0
        inst = load_instance(str(path))
        assert (inst.n, inst.m) == (2, 6)
        assert inst.metadata["params"] == {"cap": 2}

    def test_deterministic_stdout(self, capsys):
        code1, out1, _ = run(
            capsys, "generate", "--family", "table", "-n", "2", "-m", "4",
            "--seed", "11",
        )
        code2, out2, _ = run(
            capsys, "generate", "--family", "table", "-n", "2", "-m", "4",
            "--seed", "11",
        )
        assert code1 == code2 == 0
        assert out1 == out2

    def test_builtin_export(self, capsys, tmp_path):
        path = tmp_path / "ternary.json"
        code, out, err = run(
            capsys, "generate", "--builtin", "ternary-no-efxpo",
            "--output", str(path),
        )
        assert code == 0
        assert load_instance(str(path)).m == 3

    def test_bad_params_json(self, capsys):
        code, out, err = run(
            capsys, "generate", "--family", "table", "-n", "2", "-m", "4",
            "--params", "{cap}",
        )
        assert code == 2

    @pytest.mark.parametrize("params", ["[1]", '{"k": "a"}', '{"k": 1.5}'])
    def test_params_must_be_an_object_of_integers(self, capsys, params):
        code, out, err = run(
            capsys, "generate", "--family", "threshold", "-n", "2", "-m", "4",
            "--params", params,
        )
        assert code == 2
        assert out == ""
        assert err == "error: --params: expected a JSON object with integer values\n"

    def test_missing_dimensions(self, capsys):
        code, out, err = run(capsys, "generate", "--family", "table")
        assert code == 2
        assert "generate needs" in err


class TestBench:
    def test_small_grid_human(self, capsys):
        code, out, err = run(
            capsys, "bench", "--sizes", "2x4..3x8", "--runs", "2"
        )
        assert code == 0
        assert "max evals" in out
        assert "constant fitted on the m=4 column" in out

    def test_json_payload(self, capsys):
        code, payload, _ = run_json(
            capsys, "bench", "--family", "cardinality", "--sizes", "2x5..2x5",
            "--runs", "1",
        )
        assert code == 0
        assert payload["all_bounds_ok"] is True
        assert payload["cells"][0]["n"] == 2

    def test_bad_sizes(self, capsys):
        code, out, err = run(capsys, "bench", "--sizes", "nonsense")
        assert code == 2
        assert "--sizes" in err

    def test_zero_runs_refused(self, capsys):
        code, out, err = run(capsys, "bench", "--sizes", "2x4..2x4", "--runs", "0")
        assert code == 2
        assert err.strip() == "error: runs must be positive, got 0"


class TestPlumbing:
    def test_missing_file(self, capsys):
        code, out, err = run(capsys, "solve", "--input", "/nonexistent/x.json")
        assert code == 2
        assert "error:" in err

    def test_unhashable_declared_class(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(
            '{"n": 1, "m": 0, "declared_class": [], '
            '"agents": [{"type": "additive", "costs": []}]}'
        )
        code, out, err = run(capsys, "solve", "--input", str(path))
        assert code == 2
        assert err.splitlines() == [
            "error: instance: declared_class must be one of ('additive', "
            "'cancelable', 'submodular', 'general'), got []"
        ]

    @pytest.mark.parametrize("value", [2**31, 2**63, 10**30])
    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--verify"],
            ["verify", "--criteria", "efx,po"],
            ["check-class"],
            ["enumerate", "--report", "min-sc"],
        ],
    )
    def test_values_past_cost_max_exit_2_in_one_line(self, capsys, tmp_path, argv, value):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({
            "n": 2,
            "m": 1,
            "declared_class": "general",
            "agents": [
                {"type": "table", "m": 1, "values": [0, value]},
                {"type": "cardinality", "cap": 1},
            ],
        }))
        if argv[0] == "verify":
            argv = [*argv, "--allocation", write_allocation(tmp_path, [[0], []])]
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 2 and out == ""
        message = f"agents[0]: table value at mask 1 lies outside ±{COST_MAX}: {value}"
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "declared, agent",
        [
            ("cancelable", {"type": "cardinality", "cap": 2**63}),
            ("cancelable", {"type": "capped_additive", "costs": [1, 1, 0, 1], "cap": 2**63}),
            ("general", {"type": "threshold", "k": 2**63}),
            (
                "submodular",
                {"type": "partition_matroid", "groups": [[0, 1], [2, 3]], "capacities": [2**63, 1]},
            ),
        ],
    )
    @pytest.mark.parametrize(
        "argv", [["check-class"], ["enumerate", "--report", "min-sc"], ["solve", "--verify"]]
    )
    def test_parameters_past_int64_build_their_tables(
        self, capsys, tmp_path, declared, agent, argv
    ):
        # at m = 4 every cap or threshold past 4 acts as 4; the cancelable
        # kinds' certificate scans PO on tables
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"n": 2, "m": 4, "declared_class": declared, "agents": [agent, agent]}
        ))
        code, out, err = run(capsys, *argv, "--input", str(path))
        assert code == 0 and err == ""

    def test_negative_seed_exits_2_in_one_line(self, capsys):
        code, out, err = run(capsys, "generate", "--family", "cardinality", "-n", "2",
                             "-m", "3", "--seed", "-1")
        assert code == 2 and out == ""
        assert err == "error: seed must be non-negative, got -1\n"

    def test_generate_past_the_size_bound_exits_2_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "generate", "--family", "binary_additive", "-n", "2",
                             "-m", str(10**8))
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err == (
            "error: generate supports n <= 1000 and m <= 10000, got n=2, m=100000000\n"
        )

    def test_alpha_with_a_huge_exponent_exits_2_at_once(self, capsys, tmp_path):
        path = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0, 2], [1]])
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--input", path, "--allocation", alloc,
                             "--criteria", "alpha-ef:1e3000000")
        assert time.perf_counter() - start < 0.5
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: criterion 'alpha-ef:1e3000000': alpha text longer than")

    @pytest.mark.parametrize("criterion", ["alpha-ef:1e5000", "alpha-efx:2e5000"])
    def test_alpha_too_long_to_print_exits_2_in_one_line(self, capsys, tmp_path, criterion):
        path = write_instance(tmp_path, builtin("ternary-no-efxpo"))
        alloc = write_allocation(tmp_path, [[0, 2], [1]])
        code, out, err = run(capsys, "verify", "--input", path, "--allocation", alloc,
                             "--criteria", f"ef,{criterion}")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: criterion {criterion!r}: Exceeds the limit")

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_builtin_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--builtin", "mystery"])
        assert exc.value.code == 2

    def test_log_level_is_read_on_every_call(self, capsys, tmp_path, monkeypatch):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        monkeypatch.delenv("CHOREFAIR_LOG", raising=False)
        code, out, err = run(capsys, "solve", "--input", str(bad))
        assert code == 2 and "traceback" not in err
        monkeypatch.setenv("CHOREFAIR_LOG", "debug")
        code, out, err = run(capsys, "solve", "--input", str(bad))
        assert code == 2
        assert err.startswith("error: ")
        assert "DEBUG chorefair: traceback" in err
        monkeypatch.delenv("CHOREFAIR_LOG")
        code, out, err = run(capsys, "solve", "--input", str(bad))
        assert code == 2 and "traceback" not in err
        assert len(logging.getLogger("chorefair").handlers) == 1

    def test_one_parser_serves_every_subcommand(self, capsys, tmp_path):
        path = write_instance(tmp_path, builtin("cancelable-cap5-n2"))
        alloc = write_allocation(tmp_path, [[0, 2, 4, 6, 8], [1, 3, 5, 7, 9]])
        written = tmp_path / "written.json"
        calls = [
            ["solve", "--input", path, "--output", str(written), "--json"],
            ["solve", "--input", path],
            ["verify", "--input", path, "--allocation", alloc, "--criteria", "ef,po"],
            ["check-class", "--builtin", "ternary-no-efxpo", "--json"],
            ["enumerate", "--builtin", "ternary-no-efxpo", "--report", "min-sc"],
            ["generate", "--family", "cardinality", "-n", "2", "-m", "3"],
            ["solve", "--input", path, "--builtin", "ternary-no-efxpo"],
            ["verify", "--input", path, "--allocation", alloc, "--criteria", "bogus"],
        ]

        def outcome(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = f"exit {exc.code}"
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        first = []
        for argv in calls:
            cli._parser.cache_clear()
            first.append(outcome(argv))
            written.unlink(missing_ok=True)
        cli._parser.cache_clear()
        shared = []
        for argv in calls:
            shared.append(outcome(argv))
            if argv == calls[0]:
                assert written.exists()
                written.unlink()
        assert not written.exists()
        assert cli._parser.cache_info().misses == 1
        assert shared == first
        assert [code for code, _, _ in first] == [0, 0, 1, 2, 0, 0, "exit 2", 2]


# ---------------------------------------------------------------------------
# fuzzed inputs: every run ends in 0, 1 or 2, and a failure says so in one
# line on stderr
# ---------------------------------------------------------------------------

_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=16),
    st.lists(st.integers(-1, 3), max_size=3),
    st.integers(-3, 8),
)


def _monotone(m, steps):
    vals = [0] * (1 << m)
    for mask in range(1, 1 << m):
        vals[mask] = max(vals[mask ^ (1 << e)] for e in range(m) if mask >> e & 1)
        vals[mask] += steps[mask]
    return vals


# rank of each descriptor kind's type ceiling: the narrowest class that
# every parameter choice of the kind allows a declaration of
_KIND_CLASS = {"additive": 0, "capped_additive": 1, "cardinality": 1, "partition_matroid": 2}


@st.composite
def _descriptor(draw, m):
    kind = draw(
        st.sampled_from(
            ("additive", "capped_additive", "cardinality", "partition_matroid",
             "threshold", "table")
        )
    )
    bits = st.lists(st.integers(0, 1), min_size=m, max_size=m)
    small = st.integers(0, m + 1)
    if kind in ("additive", "capped_additive"):
        desc = {"type": kind, "costs": draw(bits)}
        if kind == "capped_additive":
            desc["cap"] = draw(small)
    elif kind == "cardinality":
        desc = {"type": kind, "cap": draw(small)}
    elif kind == "threshold":
        desc = {"type": kind, "k": draw(small)}
    elif kind == "partition_matroid":
        owner = draw(st.lists(st.integers(0, 2), min_size=m, max_size=m))
        groups = [[e for e in range(m) if owner[e] == g] for g in sorted(set(owner))]
        desc = {
            "type": kind,
            "groups": groups,
            "capacities": draw(st.lists(small, min_size=len(groups), max_size=len(groups))),
        }
    else:
        steps = draw(st.lists(st.integers(0, 2), min_size=1 << m, max_size=1 << m))
        desc = {"type": kind, "m": m, "values": _monotone(m, steps)}
    if draw(st.integers(0, 19)) == 19:  # break one field
        desc[draw(st.sampled_from(sorted(desc)))] = draw(_JUNK)
    return desc


@st.composite
def _input_texts(draw):
    """An instance document and an allocation document for it, each
    sometimes damaged."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(0, 5))
    agents = [draw(_descriptor(m)) for _ in range(n)]
    # mostly the narrowest class the kinds allow, else any name at all
    fit = max((_KIND_CLASS.get(str(a["type"]), 3) for a in agents), default=0)
    names = ("additive", "cancelable", "submodular", "general")
    declared = draw(st.sampled_from((names[fit],) * 3 + names + ("other",)))
    doc = {"n": n, "m": m, "declared_class": declared, "agents": agents}
    damage = draw(st.integers(0, 19))  # 0-15: none
    if damage == 16:
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif damage == 17:
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
    elif damage == 18:
        doc = draw(_JUNK)
    text = json.dumps(doc)
    if damage == 19:
        text = text[: draw(st.integers(0, len(text)))]

    owner = draw(st.lists(st.integers(-1, n - 1), min_size=m, max_size=m))
    alloc = {
        "bundles": [[e for e in range(m) if owner[e] == i] for i in range(n)],
        "unallocated": [e for e in range(m) if owner[e] == -1],
    }
    damage = draw(st.integers(0, 10))  # 0-7: none
    if damage == 8:
        alloc = draw(_JUNK)
    elif damage == 9:
        alloc["bundles"].append([draw(st.integers(-1, m))])
    elif damage == 10:  # junk inside a bundle, or as the pool
        if draw(st.booleans()):
            alloc["bundles"][draw(st.integers(0, n - 1))].append(draw(_JUNK))
        else:
            alloc["unallocated"] = draw(_JUNK)
    return text, json.dumps(alloc)


_FLAGS = {
    "solve": st.tuples(
        st.sampled_from(
            ([], ["--algorithm", "auto"], ["--algorithm", "additive"],
             ["--algorithm", "cancelable"], ["--algorithm", "submodular"],
             ["--algorithm", "general"])
        ),
        st.lists(st.sampled_from(["--verify", "--json", "--debug"]), unique=True),
    ),
    "check-class": st.tuples(st.lists(st.just("--json"), max_size=1)),
    "enumerate": st.tuples(
        st.sampled_from(["efx", "frontier", "efx-po", "min-sc", "all", "efx-exists"]).map(
            lambda r: ["--report", r]
        ),
        st.integers(-2, 400).map(lambda k: ["--limit", str(k)]),
        st.lists(st.sampled_from(["--json", "--jobs=1"]), unique=True),
    ),
    "verify": st.tuples(
        st.sampled_from(
            ["ef,efx", "po", "social-cost", "alpha-ef:3/2", "alpha-efx:0", "alpha-ef:1/0",
             "bogus", ""]
        ).map(lambda c: ["--criteria", c]),
        st.lists(st.just("--json"), max_size=1),
    ),
}


@settings(max_examples=150)
@given(
    st.sampled_from(sorted(_FLAGS)).flatmap(
        lambda sub: st.tuples(st.just(sub), _FLAGS[sub])
    ),
    _input_texts(),
)
def test_fuzzed_inputs_end_in_a_known_exit_code(command, texts):
    sub, flag_groups = command
    instance_text, allocation_text = texts
    with tempfile.TemporaryDirectory() as tmp:
        inst_path = os.path.join(tmp, "inst.json")
        alloc_path = os.path.join(tmp, "alloc.json")
        with open(inst_path, "w", encoding="utf-8") as fh:
            fh.write(instance_text)
        with open(alloc_path, "w", encoding="utf-8") as fh:
            fh.write(allocation_text)
        argv = [sub, "--input", inst_path]
        if sub == "verify":
            argv += ["--allocation", alloc_path]
        for group in flag_groups:
            argv += group
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert len(lines) == 1
    elif code == 1:
        # a failed verify reports on stdout; a failed solve --verify names
        # its failed check on stderr
        assert len(lines) <= 1
