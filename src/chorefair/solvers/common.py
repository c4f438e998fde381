"""Shared solver plumbing: class gates, op counting, trace recording and
the epilogue that re-proves a solver's tag before it returns."""

from __future__ import annotations

from ..costs import (
    CostFunction,
    Table,
    _check_additive,
    check_class,
    evaluate,
    marginal,
    value_table,
)
from ..errors import InternalInvariantError, WrongClassError
from ..fairness import Allocation
from ..instances import CLASS_RANK, Instance, kind_guarantees
from ..itemset import ItemSet
from ..reports import CHECKS, TAG_CHECKS, GuaranteeTag, SolveReport, certify

# Ground sets at most this large get their declared class verified
# exhaustively before a solver trusts it.
VERIFY_MAX_M = 12


def ensure_class(inst: Instance, required: str) -> None:
    """Gate an instance for a solver that assumes membership in ``required``.

    The declaration must not be broader than the solver handles.  On small
    ground sets the declaration is then re-proved exhaustively per agent;
    on larger ones descriptor kinds that guarantee the class are trusted
    and the rest ride on the declaration (runtime invariant checks inside
    the solvers catch mis-declared inputs there).  The one exception is
    additivity, which no runtime check can see but Pareto optimality rests
    on: explicit tables, the only agents that can be declared narrower than
    they are, are proved additive at every size they support.
    """
    if CLASS_RANK[inst.declared_class] > CLASS_RANK[required]:
        raise WrongClassError(
            f"instance is declared {inst.declared_class!r}, solver requires "
            f"{required!r} or narrower"
        )
    for i, fn in enumerate(inst.agents):
        if kind_guarantees(fn, required):
            continue
        if inst.m > VERIFY_MAX_M:
            witnesses: dict = {}
            if required == "additive" and isinstance(fn, Table) and not (
                fn.binary_marginal and _check_additive(fn.m, value_table(fn), witnesses)
            ):
                raise WrongClassError(
                    f"agents[{i}] is declared {inst.declared_class!r} but is not "
                    f"additive (witness: {witnesses.get('additive')})"
                )
            continue
        report = check_class(fn)
        if not report.binary_marginal:
            raise WrongClassError(f"agents[{i}] has marginals outside {{0, 1}}")
        ok = {
            "additive": report.additive,
            "cancelable": report.cancelable,
            "submodular": report.submodular,
            "general": True,
        }[required]
        if not ok:
            raise WrongClassError(
                f"agents[{i}] is declared {inst.declared_class!r} but is not "
                f"{required} (witness: {report.witnesses.get(required)})"
            )


def finish(
    inst: Instance,
    algorithm: str,
    guarantee: GuaranteeTag,
    bundles: list[ItemSet],
    ops: OpCounter,
    tr: Trace,
    counters: dict[str, int],
    verify: bool,
    notes: tuple[str, ...] = (),
) -> SolveReport:
    """The tail every solver shares: allocation, self-check, report.

    Items in no bundle are the unallocated pool.  Every property the tag
    promises except Pareto optimality (a brute-force scan) is re-proved on
    the original cost functions, and the first that fails aborts the run.
    With ``verify`` the report also carries :func:`certify`'s certificate.
    Both use the uncounted checkers, so ``evals`` counts the solve alone.
    """
    alloc = Allocation.make(inst.n, inst.m, bundles)
    for name in TAG_CHECKS[guarantee].checks:
        if name != "po" and not CHECKS[name](inst, alloc):
            raise InternalInvariantError(
                f"{algorithm} output fails the {name!r} check of its "
                f"{guarantee.value!r} tag"
            )
    counters["evals"] = ops.evals
    report = SolveReport(
        algorithm=algorithm,
        allocation=alloc,
        guarantee=guarantee,
        counters=counters,
        trace=tr.events,
        notes=notes,
    )
    if verify:
        report.verification = certify(inst, report)
    return report


class Trace:
    """Optional JSON-line event recorder; a no-op unless enabled."""

    __slots__ = ("events",)

    def __init__(self, enabled: bool):
        self.events: list[dict] | None = [] if enabled else None

    def emit(self, event: str, **data) -> None:
        if self.events is not None:
            self.events.append({"event": event, **data})


class OpCounter:
    """Counts cost-oracle queries, the unit reported by the benchmarks."""

    __slots__ = ("evals",)

    def __init__(self) -> None:
        self.evals = 0

    def evaluate(self, fn: CostFunction, mask: ItemSet) -> int:
        self.evals += 1
        return evaluate(fn, mask)

    def marginal(self, fn: CostFunction, item: int, mask: ItemSet) -> int:
        self.evals += 1
        return marginal(fn, item, mask)


__all__ = ["VERIFY_MAX_M", "ensure_class", "finish", "Trace", "OpCounter"]
