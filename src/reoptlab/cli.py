"""Command line front end.

Subcommands: generate, reduce, solve, mutate, verify, experiment,
export-dot.  ``generate``, ``solve`` and ``experiment`` take the problem
(``sat``, ``vc`` or ``strips``) and ``verify`` the suite as a sub-command
of their own, and the options follow it: ``solve vc --input g.edges
--budget 2``.  Every option is declared on the parser of the command,
problem or suite that reads it, so argparse refuses any other; a
``verify`` suite's options and defaults are its ``SUITES`` function's
parameters, and it gets only the options given.  Exit
codes: 0 success, 1 usage or input error (an undeclared option, a
negative size, or a size ``generate`` cannot honour among them), 2
verification counterexample or verdict mismatch, 3 any
``BudgetExceededError`` (a limit refused the input before any work) or
its subclass ``SearchBudgetError`` (a search ran past its cap); every
type mapped to a code is defined in ``errors``.
Every subcommand but ``verify`` writes one output, to ``--out`` or
stdout.  Warnings raised while a subcommand runs print as
``warning: <message>`` lines on stderr.
"""

from __future__ import annotations

import argparse
import inspect
import random
import sys
import warnings
from dataclasses import fields
from pathlib import Path

from .cnf import CnfFormula, apply_changes
from .dimacs import parse_changes, parse_dimacs, serialize_dimacs
from .dot import gadget_to_dot
from .enumeration import random_formula, random_graph, random_plansat_instance
from .errors import BudgetExceededError, InvalidConfigError, VerdictMismatchError, from_json, to_json
from .experiments import (
    SCALE_FIELDS,
    SCENARIOS,
    ExperimentConfig,
    check_formula_sizes,
    report_to_csv,
    report_to_json,
    run_experiment,
)
from .gadgets import apply_unit_changes, build_gadget, gadget_from_json, gadget_to_json
from .graphs import decide_cover_stats, parse_edge_list, serialize_edge_list
from .reductions import NsatInstance, reduce_fixed_model, reduce_unique_model
from .replanning import sat_to_replanning
from .solvers import solve_brute, solve_dpll_stats
from .strips import StripsInstance, instance_from_json, instance_to_json, plan_exists_stats
from .verification import SUITES


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reoptlab",
        description="Generate, transform, solve and verify modified-instance problems.",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for all randomness")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", type=Path, default=None, help="output path (default stdout)")
    source = argparse.ArgumentParser(add_help=False)
    source.add_argument("--input", required=True, type=Path)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = _nested(sub, "generate", "problem", cmd_generate, help="write seeded random instances")
    for problem, sizes in GENERATE_SIZES.items():
        instance = gen.add_parser(problem, parents=[seed, out])
        _add_sizes(instance, sizes)
        instance.add_argument("--count", type=int, default=1, help="number of instances")

    red = sub.add_parser("reduce", parents=[source, out],
                         help="apply a construction to a DIMACS file")
    red.add_argument("--kind", required=True, choices=(*_RECORD_BUILDERS, "vc-gadget"))
    red.set_defaults(func=cmd_reduce)

    sol = _nested(sub, "solve", "problem", cmd_solve, help="solve one instance file")
    sol.add_parser("sat", parents=[source, out]).add_argument(
        "--method", choices=("dpll", "brute"), default="dpll", help="(default: %(default)s)")
    sol.add_parser("vc", parents=[source, out]).add_argument(
        "--budget", type=_size, required=True, help="cover budget")
    sol.add_parser("strips", parents=[source, out])

    mut = sub.add_parser("mutate", parents=[source, out],
                         help="apply changes to a DIMACS formula or gadget JSON file")
    mut.add_argument("--changes", required=True, type=Path,
                     help="change-list file; a gadget takes unit clauses only")
    mut.set_defaults(func=cmd_mutate)

    ver = _nested(sub, "verify", "suite", cmd_verify, help="run oracle-equivalence sweeps")
    for suite in (*sorted(SUITES), "all"):
        options = ver.add_parser(suite, conflict_handler="resolve")  # all: one flag per option
        for run in SUITES.values() if suite == "all" else [SUITES[suite]]:
            for name, param in inspect.signature(run).parameters.items():
                default = "each suite's own" if suite == "all" else param.default
                options.add_argument("--" + name.replace("_", "-"), default=argparse.SUPPRESS,
                                     type=int if name == "seed" else _size,
                                     help=f"(default: {default})")

    exp = _nested(sub, "experiment", "problem", cmd_experiment, help="cold-versus-hinted trials")
    for problem in SCALE_FIELDS:
        trials = exp.add_parser(problem, parents=[seed, out])
        trials.add_argument("--scenario", choices=SCENARIOS[problem],
                            default=next(iter(SCENARIOS[problem])), help="(default: %(default)s)")
        trials.add_argument("--trials", type=int, default=ExperimentConfig.trials,
                            help="(default: %(default)s)")
        trials.add_argument("--format", choices=("csv", "json"), default="csv",
                            help="report format")
        _add_sizes(trials, _config_sizes(problem))

    dot = sub.add_parser("export-dot", parents=[source, out], help="render a gadget file as DOT")
    dot.set_defaults(func=cmd_export_dot)
    return parser


def _nested(sub, command: str, dest: str, func, help: str):
    """Subcommand ``command``, whose problem or suite ``dest`` is a sub-command."""
    parser = sub.add_parser(command, help=help)
    parser.set_defaults(func=func)
    return parser.add_subparsers(dest=dest, required=True)


def _config_sizes(problem: str) -> dict:
    """The sizes ``problem``'s trials read, with their ``ExperimentConfig`` defaults."""
    return {f.name: f.default for f in fields(ExperimentConfig) if f.name in SCALE_FIELDS[problem]}


# The sizes ``generate`` reads, with their defaults; it draws a planning
# instance directly, not from a formula.
GENERATE_SIZES = {**{problem: _config_sizes(problem) for problem in SCALE_FIELDS},
                  "strips": {"conditions": 6, "operators": 6}}


def _add_sizes(parser, sizes: dict) -> None:
    for name, default in sizes.items():
        parser.add_argument("--" + name.replace("_", "-"), type=_size, default=default,
                            help="(default: %(default)s)")


def _size(text: str) -> int:
    """The argparse type of every size: a non-negative integer."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be non-negative")
    return value


def _emit(args, text: str, path: Path | None = None) -> None:
    target = path if path is not None else args.out
    if target is None:
        sys.stdout.write(text)
    else:
        target.write_text(text)
        print(f"wrote {target}")


def cmd_generate(args) -> int:
    # Refuse sizes the generators would silently shrink or fail on.
    if args.problem == "sat":
        check_formula_sizes(args.variables, args.clauses, args.clause_size)
    elif args.problem == "vc":
        most = args.nodes * (args.nodes - 1) // 2
        if args.edges > most:
            raise InvalidConfigError("edges", f"{args.nodes} nodes hold at most {most} edges")
    if args.count < 1:
        raise InvalidConfigError("count", "must be at least 1")
    if args.count > 1 and args.out is None:
        raise InvalidConfigError("count", "--out is required when generating several instances")
    rng = random.Random(args.seed)
    for index in range(args.count):
        if args.problem == "sat":
            text = serialize_dimacs(random_formula(rng, args.variables, args.clauses,
                                                   args.clause_size))
        elif args.problem == "vc":
            text = serialize_edge_list(random_graph(rng, args.nodes, args.edges))
        else:
            text = instance_to_json(random_plansat_instance(rng, args.conditions, args.operators))
        _emit(args, text, _indexed(args.out, index) if args.count > 1 else args.out)
    return 0


def _indexed(path: Path, index: int) -> Path:
    return path.with_name(f"{path.stem}-{index:03d}{path.suffix}")


# The record each ``reduce --kind`` but ``vc-gadget`` writes, one key per
# field, and how a field of each type is written.
_RECORD_BUILDERS = {"fixed-model": reduce_fixed_model, "unique-model": reduce_unique_model,
                    "nsat": NsatInstance, "replanning": sat_to_replanning}
_FIELD_TO_JSON = {CnfFormula: serialize_dimacs, frozenset: sorted, tuple: list, str: str,
                  StripsInstance: lambda instance: from_json(instance_to_json(instance))}


def cmd_reduce(args) -> int:
    f = parse_dimacs(args.input.read_text())
    if args.kind == "vc-gadget":
        _emit(args, gadget_to_json(build_gadget(f)))
        return 0
    record = _RECORD_BUILDERS[args.kind](f)
    obj = {}
    for field in fields(record):
        value = getattr(record, field.name)
        obj[field.name] = _FIELD_TO_JSON[type(value)](value)
    _emit(args, to_json(obj))
    return 0


def cmd_solve(args) -> int:
    if args.problem == "sat":
        f = parse_dimacs(args.input.read_text())
        if args.method == "brute":
            model = solve_brute(f)
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
    _emit(args, to_json(obj))
    return 0


def cmd_mutate(args) -> int:
    text = args.input.read_text()
    changes = parse_changes(args.changes.read_text())
    # No DIMACS line starts with these, so a file that does is a gadget.
    if text.lstrip().startswith(("{", "[", '"')):
        _emit(args, gadget_to_json(apply_unit_changes(gadget_from_json(text), changes)))
    else:
        _emit(args, serialize_dimacs(apply_changes(parse_dimacs(text), changes)))
    return 0


def cmd_verify(args) -> int:
    bad = 0
    for name in sorted(SUITES) if args.suite == "all" else [args.suite]:
        suite = SUITES[name]
        failures = suite(**{key: value for key, value in vars(args).items()
                            if key in inspect.signature(suite).parameters})
        status = "PASS" if not failures else f"FAIL ({len(failures)} counterexamples)"
        print(f"suite {name}: {status}")
        for failure in failures[:5]:
            print(f"  counterexample: {failure}")
        bad += len(failures)
    return 2 if bad else 0


def cmd_experiment(args) -> int:
    config = ExperimentConfig(
        seed=args.seed,
        problem=args.problem,
        scenario=args.scenario,
        trials=args.trials,
        **{name: getattr(args, name) for name in SCALE_FIELDS[args.problem]},
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
    except BudgetExceededError as exc:
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
