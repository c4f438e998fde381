"""Command-line front end binding solvers, checkers, oracle and generators.

Exit codes are a stable contract: 0 on success, 1 when a requested
verification fails, 2 on invalid input (parse errors, wrong-class
declarations, unsupported sizes, internal invariant violations).  With
--json the payload on stdout is machine-readable; diagnostics always go
to stderr.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from fractions import Fraction

from .bench import DEFAULT_MS, DEFAULT_NS, DEFAULT_RUNS, run_bench
from .costs import CHECK_CLASS_MAX_M, check_class, sample_class
from .errors import ChoreFairError, InvalidInputError, ParseError
from .fairness import (
    Allocation,
    is_alpha_ef,
    is_alpha_efx,
    is_po_bruteforce,
    social_cost,
)
from .instances import (
    BUILTIN_NAMES,
    GENERATOR_FAMILIES,
    Instance,
    builtin,
    generate,
    load_instance,
    serialize_instance,
)
from .itemset import iter_items
from .oracle import SECTIONS, analyze, efx_exists_search
from .reports import SolveReport
from .solvers import SOLVERS, solve_auto

log = logging.getLogger("chorefair")


def _setup_logging() -> None:
    name = os.environ.get("CHOREFAIR_LOG", "").strip().upper()
    level = getattr(logging, name, None) if name else logging.WARNING
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(
        level=level, stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s"
    )


def _load_target(args: argparse.Namespace) -> Instance:
    if getattr(args, "builtin", None):
        return builtin(args.builtin)
    return load_instance(args.input)


def _emit(payload: dict, human: str, as_json: bool) -> None:
    if as_json:
        json.dump(payload, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(human)


def _items(mask: int) -> str:
    return " ".join(str(e) for e in iter_items(mask)) or "-"


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def _solve_text(report: SolveReport, notes: list[str]) -> str:
    alloc = report.allocation
    lines = [
        f"algorithm: {report.algorithm}",
        f"guarantee: {report.guarantee.value}",
        f"complete: {'yes' if alloc.complete else 'no'}",
    ]
    lines += [f"agent {i}: {_items(b)}" for i, b in enumerate(alloc.bundles)]
    if alloc.unallocated:
        lines.append(f"unallocated: {_items(alloc.unallocated)}")
    lines += [f"note: {note}" for note in notes]
    return "\n".join(lines)


def _run_solve(args: argparse.Namespace) -> int:
    inst = _load_target(args)
    solver = solve_auto if args.algorithm == "auto" else SOLVERS[args.algorithm]
    report = solver(inst, debug=args.debug, trace=args.trace, verify=args.verify)
    if report.trace:
        for event in report.trace:
            print(json.dumps(event, sort_keys=True), file=sys.stderr)

    notes = list(report.notes)
    payload = report.to_json()
    code = 0
    cert = report.verification
    if cert is not None:
        notes.extend(cert.notes)
        for name in cert.failures:
            print(f"verification failure: {name}", file=sys.stderr)
        if not cert.passed:
            code = 1
    payload["notes"] = notes

    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(report.allocation.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")
    _emit(payload, _solve_text(report, notes), args.json)
    return code


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

_PLAIN_CRITERIA = ("ef", "efx", "po", "social-cost")


def _parse_criteria(text: str) -> list[tuple[str, Fraction | None]]:
    out: list[tuple[str, Fraction | None]] = []
    for raw in text.split(","):
        raw = raw.strip()
        if not raw:
            continue
        if raw in _PLAIN_CRITERIA:
            out.append((raw, None))
            continue
        kind, sep, tail = raw.partition(":")
        if sep and kind in ("alpha-ef", "alpha-efx"):
            try:
                alpha = Fraction(tail)
            except (ValueError, ZeroDivisionError) as exc:
                raise InvalidInputError(f"criterion {raw!r}: {exc}") from exc
            if alpha < 1:
                raise InvalidInputError(f"criterion {raw!r}: alpha must be >= 1")
            out.append((kind, alpha))
            continue
        raise InvalidInputError(
            f"unknown criterion {raw!r}; choose from ef, efx, po, social-cost, "
            "alpha-ef:p/q, alpha-efx:p/q"
        )
    if not out:
        raise InvalidInputError("no verification criteria given")
    return out


def _load_allocation(path: str, inst: Instance) -> Allocation:
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    return Allocation.from_json(obj, inst.n, inst.m)


def _run_verify(args: argparse.Namespace) -> int:
    inst = load_instance(args.input)
    alloc = _load_allocation(args.allocation, inst)
    results: dict[str, dict] = {}
    ok_all = True
    for name, alpha in _parse_criteria(args.criteria):
        if name in ("ef", "alpha-ef"):
            ok, viols = is_alpha_ef(inst, alloc, alpha if alpha is not None else 1)
            entry = {"pass": ok, "violations": [v.to_json() for v in viols]}
        elif name in ("efx", "alpha-efx"):
            ok, viols = is_alpha_efx(inst, alloc, alpha if alpha is not None else 1)
            entry = {"pass": ok, "violations": [v.to_json() for v in viols]}
        elif name == "po":
            ok, dominator = is_po_bruteforce(inst, alloc)
            entry = {"pass": ok}
            if dominator is not None:
                entry["dominated_by"] = dominator.to_json()
        else:  # social-cost is informational, never a failure
            entry = {"pass": True, "value": social_cost(inst, alloc)}
        key = name if alpha is None else f"{name}:{alpha}"
        results[key] = entry
        ok_all = ok_all and entry["pass"]

    payload = {
        "passed": ok_all,
        "complete": alloc.complete,
        "social_cost": social_cost(inst, alloc),
        "criteria": results,
    }
    lines = []
    for key, entry in results.items():
        verdict = "pass" if entry["pass"] else "FAIL"
        detail = ""
        if "value" in entry:
            detail = f" (value {entry['value']})"
        elif entry.get("violations"):
            v = entry["violations"][0]
            item = "" if v["item"] is None else f" dropping item {v['item']}"
            detail = f" (agent {v['i']} against agent {v['j']}{item})"
        elif "dominated_by" in entry:
            detail = f" (dominated by {entry['dominated_by']['bundles']})"
        lines.append(f"{key}: {verdict}{detail}")
    lines.append(f"overall: {'pass' if ok_all else 'FAIL'}")
    _emit(payload, "\n".join(lines), args.json)
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# check-class
# ---------------------------------------------------------------------------

_CLASS_FLAG = {
    "additive": lambda r: r.additive,
    "cancelable": lambda r: r.cancelable,
    "submodular": lambda r: r.submodular,
    "general": lambda r: True,
}


def _run_check_class(args: argparse.Namespace) -> int:
    inst = _load_target(args)
    classify = check_class if inst.m <= CHECK_CLASS_MAX_M else sample_class
    reports = [classify(fn) for fn in inst.agents]
    bad = [
        i
        for i, r in enumerate(reports)
        if not (r.binary_marginal and _CLASS_FLAG[inst.declared_class](r))
    ]
    payload = {
        "declared_class": inst.declared_class,
        "consistent": not bad,
        "agents": [r.to_json() for r in reports],
    }
    lines = []
    for i, r in enumerate(reports):
        flags = " ".join(f"{k}={'yes' if v else 'no'}" for k, v in r.flags().items())
        lines.append(f"agent {i}: {flags} [{r.method}]")
        if r.witness is not None:
            s, t, e = r.witness
            lines.append(
                f"  witness against {r.witness_class}: "
                f"S={{{_items(s)}}} T={{{_items(t)}}} e={e}"
            )
    verdict = "consistent" if not bad else f"contradicted by agents {bad}"
    lines.append(f"declared class {inst.declared_class}: {verdict}")
    _emit(payload, "\n".join(lines), args.json)
    if bad:
        print(
            f"declared class {inst.declared_class!r} is contradicted by "
            f"agents {bad}",
            file=sys.stderr,
        )
        return 2
    return 0


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------


def _run_enumerate(args: argparse.Namespace) -> int:
    inst = _load_target(args)
    if args.report == "efx-exists":
        exists, witness = efx_exists_search(
            inst, limit=args.limit, dump_path=args.dump
        )
        payload = {
            "efx_exists": exists,
            "witness": witness.to_json() if witness else None,
        }
        human = (
            f"efx allocation found: bundles {witness.to_json()['bundles']}"
            if exists
            else "no efx allocation exists"
        )
        _emit(payload, human, args.json)
        return 0

    sections = SECTIONS if args.report == "all" else (args.report,)
    report = analyze(inst, limit=args.limit, jobs=args.jobs, sections=sections)
    payload = report.to_json()
    lines = [f"total allocations: {report.total_allocations}"]
    if report.efx_allocations is not None:
        lines.append(f"efx allocations: {len(report.efx_allocations)}")
    if report.pareto_frontier is not None:
        lines.append(f"pareto frontier size: {len(report.pareto_frontier)}")
    if report.efx_and_po_exists is not None:
        lines.append(
            f"efx and po together: "
            f"{'exists' if report.efx_and_po_exists else 'impossible'}"
        )
    if report.min_social_cost is not None:
        lines.append(f"minimum social cost: {report.min_social_cost}")
    _emit(payload, "\n".join(lines), args.json)
    return 0


# ---------------------------------------------------------------------------
# generate / bench
# ---------------------------------------------------------------------------


def _run_generate(args: argparse.Namespace) -> int:
    if args.builtin:
        inst = builtin(args.builtin)
    else:
        if args.family is None or args.agents is None or args.items is None:
            raise InvalidInputError("generate needs --family, -n and -m (or --builtin)")
        params = None
        if args.params:
            try:
                params = json.loads(args.params)
            except json.JSONDecodeError as exc:
                raise ParseError(f"--params: {exc}") from exc
            if not isinstance(params, dict) or not all(
                type(v) is int for v in params.values()
            ):
                raise InvalidInputError("--params: expected a JSON object with integer values")
        inst = generate(args.family, args.agents, args.items, args.seed, params=params)
    text = serialize_instance(inst)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _parse_sizes(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Grid syntax NxM..NxM: agent counts span the range, item counts step
    in multiples of the low value (2x8..4x24 gives n in 2..4, m in 8,16,24).
    """
    try:
        lo, hi = text.split("..")
        n0, m0 = (int(x) for x in lo.split("x"))
        n1, m1 = (int(x) for x in hi.split("x"))
    except ValueError as exc:
        raise InvalidInputError(f"--sizes {text!r}: expected NxM..NxM") from exc
    if n0 < 1 or m0 < 1 or n1 < n0 or m1 < m0:
        raise InvalidInputError(f"--sizes {text!r}: empty grid")
    return tuple(range(n0, n1 + 1)), tuple(range(m0, m1 + 1, m0))


def _run_bench(args: argparse.Namespace) -> int:
    ns, ms = _parse_sizes(args.sizes) if args.sizes else (DEFAULT_NS, DEFAULT_MS)
    report = run_bench(
        args.family, ns=ns, ms=ms, runs=args.runs, base_seed=args.seed
    )
    _emit(report.to_json(), report.table(), args.json)
    return 0 if report.all_bounds_ok else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_source(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--input", metavar="FILE", help="instance JSON file")
    g.add_argument(
        "--builtin",
        metavar="NAME",
        choices=BUILTIN_NAMES,
        help=f"named example instance: {', '.join(BUILTIN_NAMES)}",
    )


def _add_json(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON on stdout"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chorefair",
        description=(
            "Fair allocation of indivisible chores under binary-marginal "
            "cost functions."
        ),
        epilog=(
            "Set CHOREFAIR_LOG=debug|info|warning for stderr diagnostics. "
            f"Exhaustive class checks support up to {CHECK_CLASS_MAX_M} items; "
            "larger ground sets fall back to sampling."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("solve", help="allocate an instance and report the guarantee")
    _add_source(p)
    p.add_argument(
        "--algorithm",
        choices=("auto",) + tuple(SOLVERS),
        default="auto",
        help="auto dispatches on the declared class (default)",
    )
    p.add_argument("--output", metavar="FILE", help="also write the allocation JSON here")
    p.add_argument(
        "--verify",
        action="store_true",
        help="re-prove the guarantee tag with the independent checkers",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="emit solver events as JSON lines on stderr",
    )
    p.add_argument(
        "--debug", action="store_true", help="enable expensive internal checks"
    )
    _add_json(p)
    p.set_defaults(func=_run_solve)

    p = sub.add_parser("verify", help="check an allocation file against criteria")
    p.add_argument("--input", metavar="FILE", required=True, help="instance JSON file")
    p.add_argument(
        "--allocation", metavar="FILE", required=True, help="allocation JSON file"
    )
    p.add_argument(
        "--criteria",
        default="ef,efx",
        help=(
            "comma-separated: ef, efx, po, social-cost, alpha-ef:p/q, "
            "alpha-efx:p/q (default ef,efx)"
        ),
    )
    _add_json(p)
    p.set_defaults(func=_run_verify)

    p = sub.add_parser(
        "check-class", help="classify every agent and audit the declared class"
    )
    _add_source(p)
    _add_json(p)
    p.set_defaults(func=_run_check_class)

    p = sub.add_parser("enumerate", help="brute-force reports over all allocations")
    _add_source(p)
    p.add_argument(
        "--report",
        choices=SECTIONS + ("all", "efx-exists"),
        default="all",
        help="which sections to compute (default all)",
    )
    p.add_argument("--jobs", type=int, default=1, help="parallel scan workers")
    p.add_argument(
        "--limit",
        type=int,
        default=10**7,
        help="refuse instances with more than this many allocations",
    )
    p.add_argument(
        "--dump",
        metavar="FILE",
        help="with --report efx-exists: write the instance and verdict here "
        "as JSON",
    )
    _add_json(p)
    p.set_defaults(func=_run_enumerate)

    p = sub.add_parser("generate", help="write a pseudo-random or builtin instance")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument(
        "--family",
        choices=GENERATOR_FAMILIES,
        help="random instance family",
    )
    g.add_argument(
        "--builtin",
        metavar="NAME",
        choices=BUILTIN_NAMES,
        help=f"named example instance: {', '.join(BUILTIN_NAMES)}",
    )
    p.add_argument("-n", "--agents", type=int, help="number of agents")
    p.add_argument("-m", "--items", type=int, help="number of items")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    p.add_argument(
        "--params", metavar="JSON", help='family tweaks, e.g. \'{"cap": 5}\''
    )
    p.add_argument(
        "--output", metavar="FILE", help="write here instead of stdout"
    )
    p.set_defaults(func=_run_generate)

    p = sub.add_parser("bench", help="measure solver operation counts on a grid")
    p.add_argument(
        "--family",
        choices=GENERATOR_FAMILIES,
        default="binary_additive",
        help="instance family (default binary_additive)",
    )
    p.add_argument(
        "--sizes",
        metavar="NxM..NxM",
        help=f"grid corners (default {DEFAULT_NS[0]}x{DEFAULT_MS[0]}.."
        f"{DEFAULT_NS[-1]}x{DEFAULT_MS[-1]})",
    )
    p.add_argument(
        "--runs", type=int, default=DEFAULT_RUNS, help="instances per grid cell"
    )
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    _add_json(p)
    p.set_defaults(func=_run_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ChoreFairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        log.debug("traceback", exc_info=True)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
