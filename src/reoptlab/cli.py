"""Command line front end.

Subcommands: generate, reduce, solve, mutate, verify, experiment,
export-dot.  Exit codes: 0 success, 1 usage or input error, 2
verification counterexample or verdict mismatch, 3 search/oracle budget
exceeded.  Warnings raised while a subcommand runs print as
``warning: <message>`` lines on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import warnings
from pathlib import Path

from .cnf import apply_changes
from .dimacs import parse_changes, parse_dimacs, serialize_dimacs
from .dot import gadget_to_dot
from .enumeration import random_formula, random_graph, random_plansat_instance
from .experiments import (
    SCALE_FIELDS,
    ExperimentConfig,
    InvalidConfigError,
    VerdictMismatchError,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .gadgets import (
    apply_unit_changes,
    build_gadget,
    gadget_add_unit,
    gadget_from_json,
    gadget_remove_unit,
    gadget_to_json,
)
from .graphs import (
    GraphTooLargeError,
    decide_cover_stats,
    parse_edge_list,
    serialize_edge_list,
)
from .hints import TableBudgetError
from .reductions import make_nsat_instance, reduce_fixed_model, reduce_unique_model
from .replanning import sat_to_replanning
from .solvers import (
    DEFAULT_ORACLE_LIMIT,
    DpllBudgetError,
    OracleLimitError,
    solve_brute,
    solve_dpll_stats,
)
from .strips import SearchBudgetError, instance_from_json, instance_to_json, plan_exists_stats
from .verification import SUITES, run_suite


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reoptlab",
        description="Generate, transform, solve and verify modified-instance problems.",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format printed when --out is not given")
    parser.add_argument("--oracle-limit", type=int, default=DEFAULT_ORACLE_LIMIT,
                        help="variable cap for exhaustive solving")
    parser.add_argument("--out", type=Path, default=None, help="output path")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write seeded random instances")
    gen.add_argument("--problem", choices=("sat", "vc", "strips"), required=True)
    gen.add_argument("--gadget", action="store_true",
                     help="with --problem vc: emit the cover gadget of a random formula")
    _add_scale_options(gen)
    gen.add_argument("--conditions", type=int, default=6)
    gen.add_argument("--operators", type=int, default=6)
    gen.add_argument("--count", type=int, default=1, help="number of instances")
    gen.set_defaults(func=cmd_generate)

    red = sub.add_parser("reduce", help="apply a construction to a DIMACS file")
    red.add_argument("--kind", required=True,
                     choices=("fixed-model", "unique-model", "nsat", "vc-gadget", "replanning"))
    red.add_argument("--input", required=True, type=Path)
    red.set_defaults(func=cmd_reduce)

    sol = sub.add_parser("solve", help="solve one instance file")
    sol.add_argument("--problem", choices=("sat", "vc", "strips"), required=True)
    sol.add_argument("--input", required=True, type=Path)
    sol.add_argument("--method", choices=("dpll", "brute"), default="dpll")
    sol.add_argument("--budget", type=int, default=None, help="cover budget (vc)")
    sol.set_defaults(func=cmd_solve)

    mut = sub.add_parser("mutate", help="apply changes to a formula or gadget")
    mut.add_argument("--input", required=True, type=Path)
    mut.add_argument("--changes", type=Path, default=None, help="change-list file (DIMACS mode)")
    mut.add_argument("--gadget", action="store_true", help="treat input as a gadget file")
    mut.add_argument("--add-unit", type=int, action="append", default=[],
                     help="unit literal to add (gadget mode, repeatable)")
    mut.add_argument("--remove-unit", type=int, action="append", default=[],
                     help="unit literal to remove (gadget mode, repeatable)")
    mut.set_defaults(func=cmd_mutate)

    ver = sub.add_parser("verify", help="run oracle-equivalence sweeps")
    ver.add_argument("--suite", required=True, choices=(*sorted(SUITES), "all"))
    ver.add_argument("--max-vars", type=int, default=None)
    ver.add_argument("--max-clauses", type=int, default=None)
    ver.add_argument("--samples", type=int, default=None)
    ver.set_defaults(func=cmd_verify)

    exp = sub.add_parser("experiment", help="cold-versus-hinted trials")
    exp.add_argument("--problem", choices=("sat", "vc", "strips"), required=True)
    exp.add_argument("--scenario", default="")
    exp.add_argument("--trials", type=int, default=20)
    _add_scale_options(exp, leave_unset=True)
    exp.set_defaults(func=cmd_experiment)

    dot = sub.add_parser("export-dot", help="render a gadget file as DOT")
    dot.add_argument("--input", required=True, type=Path)
    dot.set_defaults(func=cmd_export_dot)
    return parser


SCALE_DEFAULTS = {"variables": 4, "clauses": 4, "clause_size": 3, "nodes": 10, "edges": 14}


def _add_scale_options(parser, leave_unset: bool = False) -> None:
    """Instance-size options; with ``leave_unset`` an option not given stays off the namespace."""
    for name, default in SCALE_DEFAULTS.items():
        parser.add_argument("--" + name.replace("_", "-"), type=int,
                            default=argparse.SUPPRESS if leave_unset else default)


def _emit(args, text: str, path: Path | None = None) -> None:
    target = path if path is not None else args.out
    if target is None:
        sys.stdout.write(text)
    else:
        target.write_text(text)
        print(f"wrote {target}")


def cmd_generate(args) -> int:
    if args.gadget and args.problem != "vc":
        raise InvalidConfigError("gadget", "only the vc problem has a gadget mode")
    if args.problem == "vc" and args.gadget and args.clause_size > 3:
        raise InvalidConfigError("clause_size", "gadgets take clauses of at most 3 literals")
    if args.count < 1:
        raise InvalidConfigError("count", "must be at least 1")
    if args.count > 1 and args.out is None:
        raise InvalidConfigError("count", "--out is required when generating several instances")
    rng = random.Random(args.seed)
    for index in range(args.count):
        if args.problem == "sat":
            text = serialize_dimacs(random_formula(rng, args.variables, args.clauses,
                                                   args.clause_size))
        elif args.problem == "vc" and args.gadget:
            f = random_formula(rng, args.variables, args.clauses, min(args.clause_size, 3))
            text = gadget_to_json(build_gadget(f))
        elif args.problem == "vc":
            text = serialize_edge_list(random_graph(rng, args.nodes, args.edges))
        else:
            text = instance_to_json(random_plansat_instance(rng, args.conditions, args.operators))
        _emit(args, text, _indexed(args.out, index) if args.count > 1 else args.out)
    return 0


def _indexed(path: Path, index: int) -> Path:
    return path.with_name(f"{path.stem}-{index:03d}{path.suffix}")


def cmd_reduce(args) -> int:
    f = parse_dimacs(args.input.read_text())
    if args.kind == "fixed-model":
        inst = reduce_fixed_model(f)
        obj = {
            "formula": serialize_dimacs(inst.formula),
            "change_clause": list(inst.change_clause),
            "hint_model": sorted(inst.hint_model),
        }
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    elif args.kind == "unique-model":
        inst = reduce_unique_model(f)
        obj = {
            "formula": serialize_dimacs(inst.formula),
            "add_clause": list(inst.add_clause),
            "del_clause": list(inst.del_clause),
        }
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    elif args.kind == "nsat":
        inst = make_nsat_instance(f)
        obj = {"unary_part": inst.unary_part, "formula": serialize_dimacs(inst.formula)}
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    elif args.kind == "vc-gadget":
        text = gadget_to_json(build_gadget(f))
    else:
        case = sat_to_replanning(f)
        obj = {
            "instance": json.loads(instance_to_json(case.instance)),
            "original_plan": list(case.original_plan),
            "add_to_initial": sorted(case.add_to_initial),
            "remove_from_initial": sorted(case.remove_from_initial),
        }
        text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    _emit(args, text)
    return 0


def cmd_solve(args) -> int:
    if args.problem == "sat":
        f = parse_dimacs(args.input.read_text())
        if args.method == "brute":
            model = solve_brute(f, limit=args.oracle_limit)
            work = None
        else:
            model, work = solve_dpll_stats(f)
        obj = {
            "method": args.method,
            "satisfiable": model is not None,
            "model": None if model is None else sorted(model),
            "work": work,
        }
    elif args.problem == "vc":
        if args.budget is None:
            raise InvalidConfigError("budget", "--budget is required for vc solving")
        g = parse_edge_list(args.input.read_text())
        cover, explored = decide_cover_stats(g, args.budget)
        obj = {
            "budget": args.budget,
            "within_budget": cover is not None,
            "cover": None if cover is None else sorted(cover),
            "work": explored,
        }
    else:
        instance = instance_from_json(args.input.read_text())
        plan, expanded = plan_exists_stats(instance)
        obj = {"plan": None if plan is None else list(plan), "work": expanded}
    _emit(args, json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_mutate(args) -> int:
    if args.gadget:
        gadget = gadget_from_json(args.input.read_text())
        for lit in args.remove_unit:
            gadget = gadget_remove_unit(gadget, lit)
        for lit in args.add_unit:
            gadget = gadget_add_unit(gadget, lit)
        if args.changes is not None:
            gadget = apply_unit_changes(gadget, parse_changes(args.changes.read_text()))
        _emit(args, gadget_to_json(gadget))
        return 0
    if args.changes is None:
        raise InvalidConfigError("changes", "--changes is required in DIMACS mode")
    f = parse_dimacs(args.input.read_text())
    changes = parse_changes(args.changes.read_text())
    _emit(args, serialize_dimacs(apply_changes(f, changes)))
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    overrides = {
        "max_vars": args.max_vars,
        "max_clauses": args.max_clauses,
        "samples": args.samples,
        "seed": args.seed,
    }
    bad = 0
    for name in names:
        failures = run_suite(name, **overrides)
        status = "PASS" if not failures else f"FAIL ({len(failures)} counterexamples)"
        print(f"suite {name}: {status}")
        for failure in failures[:5]:
            print(f"  counterexample: {failure}")
        bad += len(failures)
    return 2 if bad else 0


def cmd_experiment(args) -> int:
    scale = {name: getattr(args, name) for name in SCALE_DEFAULTS if hasattr(args, name)}
    unread = sorted(scale.keys() - SCALE_FIELDS[args.problem])
    if unread:
        raise InvalidConfigError(unread[0], f"the {args.problem} experiment does not read it")
    config = ExperimentConfig(
        seed=args.seed,
        problem=args.problem,
        scenario=args.scenario,
        trials=args.trials,
        oracle_limit=args.oracle_limit,
        **scale,
    )
    report = run_experiment(config)
    summary = report.summary()
    if args.out is None:
        text = report_to_csv(report) if args.format == "csv" else report_to_json(report)
        sys.stdout.write(text)
    else:
        base = args.out
        csv_path = base.with_suffix(".csv")
        json_path = base.with_suffix(".json")
        csv_path.write_text(report_to_csv(report))
        json_path.write_text(report_to_json(report))
        print(f"wrote {csv_path} and {json_path}")
    print(f"trials={summary['trials']} hint_rate={summary['hint_rate']:.2f} "
          f"cold_work={summary['cold_work']} hinted_work={summary['hinted_work']}")
    return 0


def cmd_export_dot(args) -> int:
    gadget = gadget_from_json(args.input.read_text())
    _emit(args, gadget_to_dot(gadget))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message
        return 0 if exc.code in (0, None) else 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = _run(args)
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    return status


def _run(args) -> int:
    """Run the chosen subcommand and map its errors to exit codes."""
    try:
        return args.func(args)
    except (OracleLimitError, DpllBudgetError, GraphTooLargeError, SearchBudgetError,
            TableBudgetError) as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except VerdictMismatchError as exc:
        print(f"verdict mismatch: {exc}", file=sys.stderr)
        return 2
    except InvalidConfigError as exc:
        print(f"invalid configuration: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
