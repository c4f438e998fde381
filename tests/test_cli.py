import json

import pytest

from chorefair.cli import main
from chorefair.costs import Cardinality, Table
from chorefair.instances import Instance, builtin, load_instance, serialize_instance
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
        assert {a["method"] for a in payload["agents"]} == {"sampled"}

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

    def test_limit_refusal(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "--builtin", "cancelable-cap5-n2",
            "--limit", "1000",
        )
        assert code == 2
        assert "exceed" in err

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

    def test_no_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_builtin_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--builtin", "mystery"])
        assert exc.value.code == 2
