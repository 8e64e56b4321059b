"""Command line front end.

Subcommands: generate, reduce, solve, mutate, verify, experiment,
export-dot.  Exit codes: 0 success, 1 usage or input error, 2
verification counterexample or verdict mismatch, 3 search/oracle budget
exceeded.  An option is accepted only where it is read: given to a
subcommand, ``--problem`` or ``verify --suite`` that does not read it,
given a negative size, or given to ``generate`` a size it cannot honour,
it is a usage error.  Every subcommand but
``verify`` writes one output, to ``--out`` or stdout.  Warnings raised
while a subcommand runs print as ``warning: <message>`` lines on stderr.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from .cnf import apply_changes
from .dimacs import parse_changes, parse_dimacs, serialize_dimacs
from .dot import gadget_to_dot
from .enumeration import clause_pool_size, random_formula, random_graph, random_plansat_instance
from .experiments import (
    SCALE_FIELDS,
    ExperimentConfig,
    InvalidConfigError,
    VerdictMismatchError,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .gadgets import apply_unit_changes, build_gadget, gadget_from_json, gadget_to_json
from .graphs import (
    GraphTooLargeError,
    decide_cover_stats,
    parse_edge_list,
    serialize_edge_list,
)
from .hints import TableBudgetError
from .reductions import make_nsat_instance, reduce_fixed_model, reduce_unique_model
from .replanning import sat_to_replanning
from .solvers import DpllBudgetError, OracleLimitError, solve_brute, solve_dpll_stats
from .strips import SearchBudgetError, instance_from_json, instance_to_json, plan_exists_stats
from .verification import SUITES, run_suite, suite_reads


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reoptlab",
        description="Generate, transform, solve and verify modified-instance problems.",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[seed, out], help="write seeded random instances")
    gen.add_argument("--problem", choices=("sat", "vc", "strips"), required=True)
    _add_problem_options(gen, GENERATE_READS)
    gen.add_argument("--count", type=int, default=1, help="number of instances")
    gen.set_defaults(func=cmd_generate)

    red = sub.add_parser("reduce", parents=[out], help="apply a construction to a DIMACS file")
    red.add_argument("--kind", required=True,
                     choices=("fixed-model", "unique-model", "nsat", "vc-gadget", "replanning"))
    red.add_argument("--input", required=True, type=Path)
    red.set_defaults(func=cmd_reduce)

    sol = sub.add_parser("solve", parents=[out], help="solve one instance file")
    sol.add_argument("--problem", choices=("sat", "vc", "strips"), required=True)
    sol.add_argument("--input", required=True, type=Path)
    sol.add_argument("--method", choices=("dpll", "brute"), default=argparse.SUPPRESS,
                     help="sat only (default dpll)")
    sol.add_argument("--budget", type=_size, default=argparse.SUPPRESS,
                     help="cover budget (vc only, required)")
    sol.set_defaults(func=cmd_solve)

    mut = sub.add_parser("mutate", parents=[out], help="apply changes to a formula or gadget")
    mut.add_argument("--input", required=True, type=Path)
    mut.add_argument("--changes", required=True, type=Path,
                     help="change-list file; a gadget takes unit clauses only")
    mut.add_argument("--gadget", action="store_true", help="treat input as a gadget file")
    mut.set_defaults(func=cmd_mutate)

    ver = sub.add_parser("verify", parents=[seed], help="run oracle-equivalence sweeps")
    ver.add_argument("--suite", required=True, choices=(*sorted(SUITES), "all"))
    for name in ("--max-vars", "--max-clauses", "--samples"):
        ver.add_argument(name, type=_size, default=None)
    ver.set_defaults(func=cmd_verify)

    exp = sub.add_parser("experiment", parents=[seed, out], help="cold-versus-hinted trials")
    exp.add_argument("--problem", choices=("sat", "vc", "strips"), required=True)
    exp.add_argument("--scenario", default="")
    exp.add_argument("--trials", type=int, default=CONFIG_DEFAULTS["trials"])
    exp.add_argument("--format", choices=("csv", "json"), default="csv", help="report format")
    _add_problem_options(exp, EXPERIMENT_READS)
    exp.set_defaults(func=cmd_experiment)

    dot = sub.add_parser("export-dot", parents=[out], help="render a gadget file as DOT")
    dot.add_argument("--input", required=True, type=Path)
    dot.set_defaults(func=cmd_export_dot)
    return parser


CONFIG_DEFAULTS = {f.name: f.default for f in fields(ExperimentConfig)}

# The problem-specific options of each subcommand: for each problem, the
# options it reads and their defaults.  Any other one given is refused.
EXPERIMENT_READS = {problem: {n: d for n, d in CONFIG_DEFAULTS.items() if n in names}
                    for problem, names in SCALE_FIELDS.items()}
GENERATE_READS = {**EXPERIMENT_READS, "strips": {"conditions": 6, "operators": 6}}
SOLVE_READS = {"sat": {"method": "dpll"}, "vc": {"budget": None}, "strips": {}}


def _add_problem_options(parser, reads) -> None:
    """Integer options that stay off the namespace unless given."""
    for name, default in {n: d for options in reads.values() for n, d in options.items()}.items():
        readers = "/".join(problem for problem, options in reads.items() if name in options)
        parser.add_argument("--" + name.replace("_", "-"), type=_size, default=argparse.SUPPRESS,
                            help=f"{readers} only (default {default})")


def _size(text: str) -> int:
    """The argparse type of every size: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _problem_options(args, reads) -> dict:
    """The options ``args.problem`` reads, defaults filled in; any other given is refused."""
    given = {name: getattr(args, name)
             for options in reads.values() for name in options if hasattr(args, name)}
    unread = sorted(given.keys() - reads[args.problem].keys())
    if unread:
        raise InvalidConfigError(unread[0],
                                 f"{args.command} --problem {args.problem} does not read it")
    return {**reads[args.problem], **given}


def _emit(args, text: str, path: Path | None = None) -> None:
    target = path if path is not None else args.out
    if target is None:
        sys.stdout.write(text)
    else:
        target.write_text(text)
        print(f"wrote {target}")


def cmd_generate(args) -> int:
    size = _problem_options(args, GENERATE_READS)
    # Refuse sizes the generators would silently shrink or fail on.
    if args.problem == "sat":
        if size["clause_size"] < 1:
            raise InvalidConfigError("clause_size", "must be at least 1")
        most = clause_pool_size(size["variables"], size["clause_size"])
        if size["clauses"] > most:
            raise InvalidConfigError("clauses", f"at most {most} distinct clauses fit these sizes")
    elif args.problem == "vc":
        most = size["nodes"] * (size["nodes"] - 1) // 2
        if size["edges"] > most:
            raise InvalidConfigError("edges", f"{size['nodes']} nodes hold at most {most} edges")
    elif size["conditions"] < 1 and size["operators"] > 0:
        raise InvalidConfigError("conditions", "operators need at least one condition")
    if args.count < 1:
        raise InvalidConfigError("count", "must be at least 1")
    if args.count > 1 and args.out is None:
        raise InvalidConfigError("count", "--out is required when generating several instances")
    rng = random.Random(args.seed)
    for index in range(args.count):
        if args.problem == "sat":
            text = serialize_dimacs(random_formula(rng, size["variables"], size["clauses"],
                                                   size["clause_size"]))
        elif args.problem == "vc":
            text = serialize_edge_list(random_graph(rng, size["nodes"], size["edges"]))
        else:
            text = instance_to_json(random_plansat_instance(rng, size["conditions"],
                                                            size["operators"]))
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
    options = _problem_options(args, SOLVE_READS)
    if args.problem == "sat":
        f = parse_dimacs(args.input.read_text())
        if options["method"] == "brute":
            model = solve_brute(f)
            work = None
        else:
            model, work = solve_dpll_stats(f)
        obj = {
            "method": options["method"],
            "satisfiable": model is not None,
            "model": None if model is None else sorted(model),
            "work": work,
        }
    elif args.problem == "vc":
        budget = options["budget"]
        if budget is None:
            raise InvalidConfigError("budget", "--budget is required for vc solving")
        g = parse_edge_list(args.input.read_text())
        cover, explored = decide_cover_stats(g, budget)
        obj = {
            "budget": budget,
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
    text = args.input.read_text()
    changes = parse_changes(args.changes.read_text())
    if args.gadget:
        _emit(args, gadget_to_json(apply_unit_changes(gadget_from_json(text), changes)))
    else:
        _emit(args, serialize_dimacs(apply_changes(parse_dimacs(text), changes)))
    return 0


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    overrides = {name: getattr(args, name) for name in ("max_vars", "max_clauses", "samples")}
    read = set().union(*map(suite_reads, names))
    unread = sorted({name for name, value in overrides.items() if value is not None} - read)
    if unread:
        raise InvalidConfigError(unread[0], f"verify --suite {args.suite} does not read it")
    bad = 0
    for name in names:
        failures = run_suite(name, **overrides, seed=args.seed)
        status = "PASS" if not failures else f"FAIL ({len(failures)} counterexamples)"
        print(f"suite {name}: {status}")
        for failure in failures[:5]:
            print(f"  counterexample: {failure}")
        bad += len(failures)
    return 2 if bad else 0


def cmd_experiment(args) -> int:
    scale = _problem_options(args, EXPERIMENT_READS)
    config = ExperimentConfig(
        seed=args.seed,
        problem=args.problem,
        scenario=args.scenario,
        trials=args.trials,
        **scale,
    )
    report = run_experiment(config)
    _emit(args, report_to_csv(report) if args.format == "csv" else report_to_json(report))
    summary = report.summary()
    print(f"trials={summary['trials']} hint_rate={summary['hint_rate']:.2f} "
          f"cold_work={summary['cold_work']} hinted_work={summary['hinted_work']}",
          file=sys.stderr)
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
    except (ValueError, KeyError, OSError, RecursionError) as exc:  # deep JSON recurses
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
