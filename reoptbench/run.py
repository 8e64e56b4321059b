"""Cold-versus-hinted reoptimization benchmark.

One client, closed loop: each query (a changed instance plus its hint) is
answered cold and then through the hint engine, one at a time, and both
answers are checked outside the timed region.

    python3 reoptbench/run.py --workload constructions --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times whole passes over the query sequence,
one and then more until the routes used ``--seconds``, and reports the
end-to-end metrics over every query of the sequence, in times scaled to
a nominal machine speed (see ``speed.py``).  With ``--trace 1`` it
answers the probes and a fixed prefix of the query sequence twice per
query, untraced and then traced, and reports the per-layer metrics and
the tracing overhead; its counts repeat exactly for a seed.  The last
line of standard output is one JSON object; a wrong verdict or invalid
witness exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# ``reoptlab`` and the modules that import it or sit beside it (``W``,
# ``strips``, ``CapExceeded``, ``Speedometer``, ``Tracer``) are bound in the
# ``__main__`` block, once the sources of this checkout are known to be present.

SETUP_REPEATS = 3
# String hashing is salted per process, and the library iterates sets of
# string labels (graph nodes, STRIPS conditions), so its search order, and
# with it the work a query takes, changes from process to process: a pass
# over the same constructions inputs took 9.4 to 12.5 s under three salts.
# The benchmark fixes the salt so that a seed fixes the work.
HASH_SEED = "0"
# Queries answered in a traced run, per workload, after the probes: one
# pass over the query sequence (a third of it for constructions, whose
# queries are slow), and a fixed count so that per-layer counts repeat
# exactly for a seed.
TRACE_QUERIES = {"constructions": 66, "random-edits": 768}

# Half-widths, in percentile points, of the windows the reported p50 and
# p90 average over (see ``quantile_ms``).  Over ten seeds, widening the p90
# window from 5 to 7.5 points cut the spread of hinted_p90_ms from 0.14 to
# 0.09 on constructions and from 0.16 to 0.13 on random-edits.
MEDIAN_WIDTH = 10
TAIL_WIDTH = 7.5

OK, CAPPED, ERROR = "ok", "capped", "error"


@dataclasses.dataclass
class Record:
    family: str
    cold_s: float
    hinted_s: float
    failed: bool
    capped: bool
    hint_used: bool


def _on_alarm(signum, frame):
    raise CapExceeded()


def timed_call(fn, tracer, span_name):
    """Run one route under the wall-clock cap: (answer, seconds, status)."""
    try:
        signal.setitimer(signal.ITIMER_REAL, W.WALL_CAP_S)
        start = time.perf_counter()
        try:
            with tracer.span(span_name) if tracer else nullcontext():
                value = fn()
            status = OK
        except (CapExceeded, strips.SearchBudgetError):
            value, status = W.UNANSWERED, CAPPED
        except Exception:
            traceback.print_exc(file=sys.stderr)
            value, status = W.UNANSWERED, ERROR
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
        return value, elapsed, status
    except CapExceeded:
        # The one-shot alarm fired after the route returned.
        return W.UNANSWERED, W.WALL_CAP_S, CAPPED


def run_query(q, tracer=None) -> Record:
    cold, cold_s, cold_status = timed_call(q.cold, tracer, "route.cold")
    hinted, hinted_s, hinted_status = timed_call(q.hinted, tracer, "route.hinted")
    hint_used = False
    if hinted is not W.UNANSWERED:
        hinted, hint_used = hinted
    q.check(cold, hinted)
    statuses = (cold_status, hinted_status)
    return Record(q.family, cold_s, hinted_s, statuses != (OK, OK), CAPPED in statuses, hint_used)


def setup(workload, seed, tracer, meter):
    """Build the workload SETUP_REPEATS times; the inputs must be byte-identical.

    Returns the workload and the median build time, each build scaled to
    the nominal speed by the reference samples taken just before and after it.
    """
    times, prints, built = [], set(), None
    for _ in range(SETUP_REPEATS):
        built = None
        gc.collect()
        before = [meter.sample() for _ in range(Speedometer.WINDOW)][-1]
        start = time.perf_counter()
        built = W.build(workload, seed, tracer)
        elapsed = time.perf_counter() - start
        for _ in range(Speedometer.WINDOW):
            meter.sample()
        times.append(elapsed * meter.scale(before))
        prints.add(built.fingerprint())
    if len(prints) != 1:
        raise W.WrongAnswer("the same seed produced different inputs")
    gc.collect()
    gc.freeze()
    return built, statistics.median(times)


def quantile_ms(values, q, width):
    """The q-th percentile in ms, as the mean of the order statistics within ``width`` points of it.

    Query times are mixtures of families with gaps between them; a single
    order statistic jumps across a gap when the mix shifts by one query,
    while the window mean moves smoothly.  The median of a workload can sit
    at such a gap (random-edits' hinted median sits where fast hint checks
    end and model evaluations begin), so it gets the wider window.
    """
    ordered = sorted(values)
    n = len(ordered)
    lo = min(int((q - width) / 100 * n), n - 1)
    hi = max(lo + 1, int((q + width) / 100 * n + 0.5))
    window = ordered[lo:hi]
    return statistics.fmean(window) * 1000


def completed(records):
    """The queries both routes answered; capped and raising ones count only in ``failed``."""
    return [r for r in records if not r.failed]


def family_rows(records):
    """Per family: queries, failed queries, hint hit rate, and share, median and sum of route time.

    Times come from completed queries only, so a capped query adds its
    count and not the cap's wall time.
    """
    rows = {}
    for family in sorted({r.family for r in records}):
        mine = [r for r in records if r.family == family]
        done = completed(mine)
        rows[family] = {
            "queries": len(mine),
            "failed": len(mine) - len(done),
            "hit_rate": sum(r.hint_used for r in mine) / len(mine),
            "cold_s": sum(r.cold_s for r in done),
            "cold_p50_ms": statistics.median(r.cold_s for r in done) * 1000 if done else 0.0,
            "hinted_p50_ms": statistics.median(r.hinted_s for r in done) * 1000 if done else 0.0,
        }
    total = sum(row["cold_s"] for row in rows.values())
    for row in rows.values():
        row["cold_share"] = row["cold_s"] / total
    return rows


def end_to_end(records, setup_s):
    done = completed(records)
    cold = [r.cold_s for r in done]
    hinted = [r.hinted_s for r in done]
    values = {
        "cold_p50_ms": (quantile_ms(cold, 50, MEDIAN_WIDTH), "ms"),
        "cold_p90_ms": (quantile_ms(cold, 90, TAIL_WIDTH), "ms"),
        "hinted_p50_ms": (quantile_ms(hinted, 50, MEDIAN_WIDTH), "ms"),
        "hinted_p90_ms": (quantile_ms(hinted, 90, TAIL_WIDTH), "ms"),
        "cold_qps": (len(done) / sum(cold), "1/s"),
        "hinted_qps": (len(done) / sum(hinted), "1/s"),
        "completed_frac": (len(done) / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return values


def measure(workload, seed, seconds):
    """Whole passes over the query sequence: one, then more until the routes used ``seconds``.

    Every run times every query of the sequence, so its mix does not depend
    on where a cut falls.  Each route time is scaled to the nominal speed
    by the reference samples around it, and a query timed in several passes
    counts with the median of its scaled times per route.  Only route time
    counts against ``seconds``, so the checks (which may run an exhaustive
    oracle) do not change how many passes a run gets.  Returns the folded
    records, the number of route pairs answered and how many failed, and
    the end-to-end metrics.
    """
    meter = Speedometer()
    built, setup_s = setup(workload, seed, Tracer(), meter)
    samples: list[list[tuple[Record, int]]] = [[] for _ in built.queries]
    busy = 0.0
    while busy < seconds:
        for runs, q in zip(samples, built.queries):
            at = meter.tick()
            record = run_query(q)
            runs.append((record, at))
            busy += record.cold_s + record.hinted_s
            if busy >= seconds and samples[-1]:
                break
    meter.sample()
    answered = [r for runs in samples for r, _ in runs]
    records = [fold([scaled(r, meter.scale(at)) for r, at in runs]) for runs in samples]
    return records, len(answered), sum(r.failed for r in answered), end_to_end(records, setup_s)


def scaled(r: Record, factor: float) -> Record:
    return dataclasses.replace(r, cold_s=r.cold_s * factor, hinted_s=r.hinted_s * factor)


def fold(runs: list[Record]) -> Record:
    """One query's timed passes as one record: median times; failed if any pass failed."""
    return Record(runs[0].family,
                  statistics.median(r.cold_s for r in runs),
                  statistics.median(r.hinted_s for r in runs),
                  any(r.failed for r in runs), any(r.capped for r in runs), runs[0].hint_used)


# (metric prefix, phase, traced layer, statistics).  Query-phase metrics
# cover the two routes; setup-phase ones cover building the workload.
LAYER_METRICS = [
    ("solvers.solve_dpll", "query", "solvers.solve_dpll", ("calls", "time_s", "work")),
    ("graphs.decide_cover", "query", "graphs.decide_cover", ("calls", "time_s", "nodes", "capped")),
    ("graphs.warm_start_cover", "query", "graphs.warm_start_cover",
     ("calls", "time_s", "self_s", "hit_rate", "work")),
    ("strips.plan_exists", "query", "strips.plan_exists", ("calls", "time_s", "expanded", "capped")),
    ("strips.validate_plan", "query", "strips.validate_plan", ("calls", "time_s", "work")),
    ("hints.reuse_model", "query", "hints.reuse_model", ("calls", "time_s", "self_s", "hit_rate", "work")),
    ("hints.reuse_plan", "query", "hints.reuse_plan", ("calls", "time_s", "self_s", "hit_rate", "work")),
    ("hints.lookup", "query", "hints.lookup", ("calls", "time_s", "miss_rate")),
    ("cnf.apply_changes", "query", "cnf.apply_changes", ("calls", "time_s")),
    ("route.cold", "query", "route.cold", ("time_s",)),
    ("route.hinted", "query", "route.hinted", ("time_s",)),
    ("setup.solvers.solve_dpll", "setup", "solvers.solve_dpll", ("calls", "time_s", "work")),
    ("setup.graphs.decide_cover", "setup", "graphs.decide_cover", ("calls", "time_s", "nodes")),
    ("setup.strips.plan_exists", "setup", "strips.plan_exists", ("calls", "time_s", "expanded")),
    ("hints.compile_table", "setup", "hints.compile_table", ("calls", "time_s", "entries")),
    ("hints.table_json", "setup", "hints.table_json", ("time_s",)),
    ("dimacs.parse_dimacs", "setup", "dimacs.parse_dimacs", ("time_s",)),
    ("dimacs.serialize_dimacs", "setup", "dimacs.serialize_dimacs", ("time_s",)),
    ("graphs.parse_edge_list", "setup", "graphs.parse_edge_list", ("time_s",)),
    ("strips.instance_from_json", "setup", "strips.instance_from_json", ("time_s",)),
    ("gadgets.build_gadget", "setup", "gadgets.build_gadget", ("time_s",)),
    ("gadgets.unit_edit", "setup", "gadgets.unit_edit", ("time_s",)),
    ("reductions.reduce_unique_model", "setup", "reductions.reduce_unique_model", ("time_s",)),
    ("replanning.sat_to_replanning", "setup", "replanning.sat_to_replanning", ("time_s",)),
]
FAMILIES = ("unique_swap", "gadget_unit", "guard_removal", "cliff",
            "sat_add", "graph_edge", "strips_init", "table_hit", "table_miss")
FAMILY_STATS = {"cold_share": "ratio", "cold_p50_ms": "ms", "hinted_p50_ms": "ms"}
RUN_METRICS = {
    "bench.traced_queries": "count",
    "bench.capped_queries": "count",
    "hinted.hit_rate": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.overhead_ms": "ms",
}
UNITS = {"time_s": "s", "self_s": "s", "hit_rate": "ratio", "miss_rate": "ratio"}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {f"{prefix}.{stat}": UNITS.get(stat, "count")
             for prefix, _, _, stats in LAYER_METRICS for stat in stats}
    units.update({f"family.{family}.{stat}": unit for family in FAMILIES for stat, unit in FAMILY_STATS.items()})
    units.update(RUN_METRICS)
    return units


def _layer_value(row, stat):
    calls = row.get("calls", 0)
    if stat in ("hit_rate", "miss_rate"):
        key = "hits" if stat == "hit_rate" else "misses"
        return row.get(key, 0) / calls if calls else 0.0
    return row.get(stat, 0)


def per_layer(tracer, records, untraced_s, traced_s):
    """Every per-layer metric; layers a workload never touches read 0."""
    stats = {phase: tracer.layer_stats(phase) for phase in ("query", "setup")}
    values = {f"{prefix}.{stat}": _layer_value(stats[phase].get(layer, {}), stat)
              for prefix, phase, layer, wanted in LAYER_METRICS for stat in wanted}
    rows = family_rows(records)
    for family in FAMILIES:
        for stat in FAMILY_STATS:
            values[f"family.{family}.{stat}"] = rows.get(family, {}).get(stat, 0.0)
    n = len(records)
    values["bench.traced_queries"] = n
    values["bench.capped_queries"] = sum(r.capped for r in records)
    values["hinted.hit_rate"] = sum(r.hint_used for r in records) / n
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    values["trace.overhead_ms"] = (traced_s - untraced_s) * 1000 / len(completed(records))
    return {name: (values[name], unit) for name, unit in per_layer_units().items()}


def trace(workload, seed):
    tracer = Tracer()
    tracer.phase = "setup"
    with tracer.installed():
        built = W.build(workload, seed, tracer)
    tracer.phase = "query"
    queries = built.probes + built.queries[:TRACE_QUERIES[workload]]
    records, untraced_s, traced_s = [], 0.0, 0.0
    for q in queries:
        plain = run_query(q)
        with tracer.installed():
            traced = run_query(q, tracer)
        if not (plain.failed or traced.failed):
            untraced_s += plain.cold_s + plain.hinted_s
            traced_s += traced.cold_s + traced.hinted_s
        records.append(plain)
    # A probe may hit its cap by design; only the timed queries count as attempted.
    timed = records[len(built.probes):]
    return records, len(timed), sum(r.failed for r in timed), per_layer(tracer, records, untraced_s, traced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        run = trace if args.trace else functools.partial(measure, seconds=args.seconds)
        records, attempted, failed, metrics = run(args.workload, args.seed)
    except W.WrongAnswer as exc:
        print(f"wrong answer: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)

    print(f"workload {args.workload}  seed {args.seed}  queries {len(records)}"
          f"  answered {attempted}  (each answered cold and hinted; times and percentiles"
          f" over the {len(completed(records))} completed queries, per route)")
    for family, row in sorted(family_rows(records).items()):
        print(f"  family {family:<14} queries {row['queries']:>6}  failed {row['failed']:>3}"
              f"  cold-time share {row['cold_share']:.3f}  hint hit rate {row['hit_rate']:.3f}"
              f"  cold p50 {row['cold_p50_ms']:.4g} ms  hinted p50 {row['hinted_p50_ms']:.4g} ms")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, "PYTHONHASHSEED": HASH_SEED})
    if not (SRC / "reoptlab" / "__init__.py").is_file():
        print(f"reoptlab sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import reoptlab  # noqa: E402
    if Path(reoptlab.__file__).resolve().parent != SRC / "reoptlab":
        print(f"imported reoptlab from {reoptlab.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    from reoptlab import strips  # noqa: E402
    import workloads as W  # noqa: E402
    from speed import Speedometer  # noqa: E402
    from tracing import CapExceeded, Tracer  # noqa: E402
    sys.exit(main())
