"""One route for re-proving a guarantee tag: ``certify`` and the solver epilogue."""

import json

import pytest

from chorefair.cli import main
from chorefair.errors import ChoreFairError, InternalInvariantError
from chorefair.fairness import Allocation
from chorefair.instances import BUILTIN_NAMES, builtin, generate, serialize_instance
from chorefair.reports import (
    PO_SCAN_LIMIT,
    TAG_CHECKS,
    GuaranteeTag,
    SolveReport,
    certify,
)
from chorefair.solvers import solve_auto
from chorefair.solvers.common import OpCounter, Trace, finish
from helpers import cap7_pair


def tagged(alloc, tag):
    return SolveReport(algorithm="hand-built", allocation=alloc, guarantee=tag)


def test_certificate_records_each_promised_property():
    inst = builtin("ternary-no-efxpo")
    alloc = Allocation(n=2, m=3, bundles=(0b101, 0b010))
    cert = certify(inst, tagged(alloc, GuaranteeTag.EFX_AND_PO))
    assert list(cert.checks) == list(TAG_CHECKS[GuaranteeTag.EFX_AND_PO].checks)
    assert cert.checks == {
        "complete": True,
        "efx": False,
        "minimal-social-cost": False,
        "po": True,
    }
    assert not cert.passed
    assert cert.failures == ["efx", "minimal-social-cost"]
    assert cert.to_json() == {"tag": "efx+po", "checks": cert.checks, "passed": False}
    partial = certify(inst, tagged(alloc, GuaranteeTag.PARTIAL_EF))
    assert partial.checks == {"ef": False, "leftover-at-most-n-minus-1": True}
    scaled = certify(inst, tagged(alloc, GuaranteeTag.TWO_EF))
    assert scaled.passed and scaled.checks == {"complete": True, "2-ef": True, "2-efx": True}


def test_false_efx_po_split_fails_exactly_po():
    # the 7/6 split is EFX and meets the additive social-cost floor, but
    # handing everything to one agent costs 7 in total against its 13
    inst = cap7_pair()
    seven = (1 << 7) - 1
    split = Allocation(n=2, m=13, bundles=(seven, ((1 << 13) - 1) ^ seven))
    cert = certify(inst, tagged(split, GuaranteeTag.EFX_AND_PO))
    assert cert.failures == ["po"]
    assert certify(inst, tagged(split, GuaranteeTag.EFX)).notes == ("not PO",)


def test_certify_never_raises_on_a_failed_property():
    inst = cap7_pair()
    partial = Allocation(n=2, m=13, bundles=(0b1, 0b10), unallocated=((1 << 13) - 1) ^ 0b11)
    cert = certify(inst, tagged(partial, GuaranteeTag.EFX_AND_PO))
    assert cert.checks["complete"] is False and cert.checks["po"] is False
    cert = certify(inst, tagged(partial, GuaranteeTag.PARTIAL_EF))
    assert cert.checks["leftover-at-most-n-minus-1"] is False


def test_po_beyond_the_scan_limit_is_a_note():
    inst = generate("binary_additive", 3, 13, seed=2)
    assert inst.n**inst.m > PO_SCAN_LIMIT
    report = solve_auto(inst, verify=True)
    cert = report.verification
    assert report.guarantee is GuaranteeTag.EFX_AND_PO
    assert cert.passed and "po" not in cert.checks
    assert cert.notes == (
        "po confirmed via the social-cost minimum; ground set too large for "
        "the brute-force scan",
    )


def test_epilogue_names_the_first_failed_check():
    inst = generate("threshold", 2, 4, seed=0, params={"k": 0})
    counters: dict[str, int] = {}
    with pytest.raises(InternalInvariantError, match="fails the 'ef' check"):
        finish(
            inst,
            "general",
            GuaranteeTag.PARTIAL_EF,
            [0b1111, 0],
            ops=OpCounter(),
            tr=Trace(False),
            counters=counters,
            verify=False,
        )


def _seeded_instances():
    yield generate("binary_additive", 3, 8, seed=4)
    yield generate("binary_additive", 3, 13, seed=2)
    yield generate("cardinality", 3, 9, seed=7)
    yield generate("partition_matroid", 2, 6, seed=0)
    yield generate("threshold", 3, 7, seed=1)
    yield cap7_pair()
    for name in BUILTIN_NAMES:
        yield builtin(name)


def test_library_and_cli_certify_alike(tmp_path, capsys):
    tags = set()
    for k, inst in enumerate(_seeded_instances()):
        path = tmp_path / f"{k}.json"
        path.write_text(serialize_instance(inst))
        code = main(["solve", "--input", str(path), "--verify", "--json"])
        captured = capsys.readouterr()
        try:
            report = solve_auto(inst, verify=True)
        except ChoreFairError as exc:
            assert code == 2
            assert captured.err == f"error: {exc}\n"
            continue
        payload = json.loads(captured.out)
        cert = report.verification
        assert payload["verification"] == cert.to_json()
        assert payload["notes"] == list(report.notes) + list(cert.notes)
        assert code == (0 if cert.passed else 1)
        tags.add(report.guarantee)
    assert tags == set(GuaranteeTag)
