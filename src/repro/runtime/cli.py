"""``repro`` -- command-line interface to the reproduction.

Six subcommands, all thin wrappers over :mod:`repro.runtime`:

``repro run``
    One protocol run on one graph instance; prints the result row.
    ``--protocol`` picks any entry of the protocol registry,
    ``--graph-param key=value`` tunes the generator, ``--graph-file``
    substitutes an edge list from disk for the generated family.
``repro sweep``
    A ``family x size x seed x scheduler x initial x protocol`` matrix
    executed by the parallel sweep engine, with optional on-disk caching
    and JSON export.
``repro bench``
    The paper's experiments E1-E8 on a named profile, optionally in
    parallel, with tables printed and optionally saved.
``repro report``
    Re-render previously saved report JSON (tables, CSV, aggregates).
``repro protocols``
    List the registered protocols (the :data:`repro.protocols.PROTOCOLS`
    registry) with their capabilities.
``repro graphs``
    List the registered graph families with their tunable parameters,
    whether each has a vectorized (array-fast) generator, and the
    practical size range.

The module doubles as an executable (``python -m repro.runtime.cli``) and
is installed as the ``repro`` console script by ``setup.py``.  All data
output goes to stdout; progress/statistics go to stderr so output files and
pipes stay clean.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from ..analysis.convergence import aggregate_records
from ..analysis.reporting import ExperimentReport
from ..analysis.tables import format_table
from ..exceptions import ConfigurationError, ReproError
from ..graphs.generators import (GRAPH_FAMILIES, family_info, family_names,
                                 validate_graph_params)
from ..protocols import PROTOCOLS, protocol_names
from .cache import ResultCache
from .engine import SweepEngine, default_workers, sweep_report
from .spec import RunSpec, SweepSpec
from .tasks import OBJECT_ONLY_TASKS, execute_spec, task_names

__all__ = ["main", "build_parser"]

#: Default columns shown by ``repro sweep`` for protocol-style rows (the
#: full row, including message histograms, is always in the JSON export).
SWEEP_COLUMNS = ("family", "n", "m", "seed", "scheduler", "initial",
                 "converged", "rounds", "messages", "tree_degree")

EXPERIMENT_IDS = ("E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8")


def _csv(text: str) -> List[str]:
    return [item.strip() for item in text.split(",") if item.strip()]


def _csv_ints(text: str) -> List[int]:
    return [int(item) for item in _csv(text)]


def _status(message: str) -> None:
    print(message, file=sys.stderr)


def _parse_graph_params(pairs: Optional[Sequence[str]]) -> dict:
    """``--graph-param key=value`` pairs as a dict, values coerced.

    Values try int, then float, then stay strings -- the generator
    signatures take numbers, so the common case round-trips without
    quoting gymnastics.
    """
    params: dict = {}
    for item in pairs or ():
        key, sep, raw = item.partition("=")
        key, raw = key.strip(), raw.strip()
        if not sep or not key or not raw:
            raise ReproError(
                f"--graph-param expects key=value (got {item!r})")
        try:
            value: object = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
        params[key] = value
    return params


def _check_families(families: Sequence[str]) -> None:
    """Reject unknown graph families before any work is dispatched.

    Failing here -- rather than deep inside a worker process mid-sweep --
    keeps the error cheap and actionable: the message lists every
    registered family name.
    """
    unknown = sorted(set(families) - set(GRAPH_FAMILIES))
    if unknown:
        noun = "family" if len(unknown) == 1 else "families"
        raise ReproError(
            f"unknown graph {noun} {', '.join(repr(f) for f in unknown)}; "
            f"registered families: {', '.join(family_names())}")


def _check_protocols(protocols: Sequence[str]) -> None:
    """Reject unknown protocol names before any work is dispatched,
    mirroring :func:`_check_families`: the error lists every registry
    entry so a typo is a one-line fix, not a mid-sweep stack trace."""
    unknown = sorted(set(protocols) - set(PROTOCOLS))
    if unknown:
        noun = "protocol" if len(unknown) == 1 else "protocols"
        raise ReproError(
            f"unknown {noun} {', '.join(repr(p) for p in unknown)}; "
            f"registered protocols: {', '.join(protocol_names())}")


# ---------------------------------------------------------------------------
# The scenario settings shared by ``run`` and ``sweep``
# ---------------------------------------------------------------------------

def _add_scenario_flags(sub: argparse.ArgumentParser) -> None:
    """The flags of every :class:`RunSpec` field ``run`` and ``sweep``
    share (read back by :func:`_spec_from_args`)."""
    sub.add_argument("--graph-param", action="append", default=None,
                     metavar="KEY=VALUE",
                     help="generator parameter, repeatable (e.g. "
                          "--graph-param p=0.05; see `repro graphs` for "
                          "each family's keys)")
    sub.add_argument("--max-rounds", type=int, default=5000)
    sub.add_argument("--task", default="protocol", choices=task_names())
    sub.add_argument("--fault-round", type=int, default=None,
                     help="inject a transient fault after this round")
    sub.add_argument("--fault-fraction", type=float, default=0.5,
                     help="fraction of nodes the fault corrupts")
    sub.add_argument("--churn-rate", type=float, default=0.0,
                     help="topology events per round (use with --task churn)")
    sub.add_argument("--churn-start", type=int, default=50,
                     help="first round after which churn may fire")
    sub.add_argument("--churn-events", type=int, default=0,
                     help="total scheduled topology events per run")
    sub.add_argument("--loss", type=float, default=0.0,
                     help="per-send probability of message loss")
    sub.add_argument("--dup", type=float, default=0.0,
                     help="per-send probability of message duplication")
    sub.add_argument("--reorder", type=float, default=0.0,
                     help="per-send probability of out-of-order insertion")
    sub.add_argument("--crash-count", type=int, default=0,
                     help="number of seeded-random nodes that crash")
    sub.add_argument("--crash-round", type=int, default=50,
                     help="round after which the crashes fire")
    sub.add_argument("--crash-recover", type=int, default=None,
                     help="rounds until crashed nodes recover with state "
                          "loss (omit for permanent crash-stop)")
    sub.add_argument("--byzantine-count", type=int, default=0,
                     help="number of seeded-random Byzantine nodes")
    sub.add_argument("--byzantine-start", type=int, default=10,
                     help="round after which Byzantine gossip starts")
    sub.add_argument("--byzantine-rounds", type=int, default=20,
                     help="length of the Byzantine activity window")
    sub.add_argument("--backend", default="object",
                     choices=("object", "array"),
                     help="simulation kernel: per-object message passing "
                          "or the vectorized array kernel (mdst only; "
                          "byte-identical results, much faster at large n)")


def _spec_from_args(args: argparse.Namespace, graph_params: dict,
                    **fields: object) -> RunSpec:
    """The :class:`RunSpec` of the shared scenario flags, plus ``fields``
    (``run`` passes its instance; ``sweep`` leaves those to its axes)."""
    return RunSpec(
        task=args.task,
        max_rounds=args.max_rounds,
        fault_round=args.fault_round,
        fault_fraction=args.fault_fraction,
        churn_rate=args.churn_rate,
        churn_start=args.churn_start,
        churn_events=args.churn_events,
        loss_rate=args.loss,
        dup_rate=args.dup,
        reorder_rate=args.reorder,
        crash_count=args.crash_count,
        crash_round=args.crash_round,
        crash_recover=args.crash_recover,
        byzantine_count=args.byzantine_count,
        byzantine_start=args.byzantine_start,
        byzantine_rounds=args.byzantine_rounds,
        backend=args.backend,
        graph_params=tuple(sorted(graph_params.items())),
        **fields,
    )


# ---------------------------------------------------------------------------
# Subcommand implementations
# ---------------------------------------------------------------------------

def cmd_run(args: argparse.Namespace) -> int:
    graph_params = _parse_graph_params(args.graph_param)
    if args.graph_file:
        # The file defines the instance; family/n/params would silently
        # not apply, so reject the combination outright.
        if graph_params:
            raise ReproError("--graph-param cannot be combined with "
                             "--graph-file (the file defines the instance)")
    else:
        _check_families([args.family])
        # Unknown parameter keys fail here, before any work is dispatched
        # (same rationale as _check_families).
        validate_graph_params(args.family, graph_params)
    _check_protocols([args.protocol])
    # Only the churn task reads the churn knobs; silently ignoring them
    # would let a static-topology row masquerade as a churn measurement.
    _check_churn_flags(args)
    _check_fault_flags(args)
    _check_adversarial_flags(args)
    _check_backend_flags(args)
    _check_capabilities(args, [args.protocol])
    spec = _spec_from_args(
        args, graph_params, protocol=args.protocol, family=args.family,
        n=args.n, seed=args.seed, scheduler=args.scheduler,
        initial=args.initial, graph_file=args.graph_file)
    outcome = execute_spec(spec)
    if args.json:
        print(json.dumps(outcome.to_dict(), indent=2, sort_keys=True, default=str))
    else:
        print(format_table([outcome.row], title=spec.label))
    return 0


#: Tasks that actually build a fault plan from the spec's fault knobs.
FAULT_CAPABLE_TASKS = ("protocol", "throughput", "churn", "adversary")

#: Tasks that actually build an adversary from the spec's adversary knobs.
ADVERSARY_CAPABLE_TASKS = ("protocol", "throughput", "churn", "adversary")


def _check_churn_flags(args: argparse.Namespace) -> None:
    """Churn knobs only mean something to the churn task (see cmd_run)."""
    if (args.churn_rate > 0 or args.churn_events > 0) and args.task != "churn":
        raise ReproError(
            f"--churn-rate/--churn-events require --task churn "
            f"(got --task {args.task})")


def _check_fault_flags(args: argparse.Namespace) -> None:
    """Only the protocol-style tasks inject the spec's fault plan; silently
    ignoring --fault-round elsewhere would let a clean-run row masquerade
    as a fault-recovery measurement (same rationale as the churn check)."""
    if args.fault_round is not None and args.task not in FAULT_CAPABLE_TASKS:
        raise ReproError(
            f"--fault-round requires --task "
            f"{'/'.join(FAULT_CAPABLE_TASKS)} (got --task {args.task})")


def _adversary_flags_set(args: argparse.Namespace) -> bool:
    """Whether any adversary knob is non-default."""
    return (args.loss > 0 or args.dup > 0 or args.reorder > 0
            or args.crash_count > 0 or args.byzantine_count > 0)


def _check_adversarial_flags(args: argparse.Namespace) -> None:
    """Early validation of the adversary knobs (see :func:`_check_churn_flags`).

    Rates must be probabilities, counts non-negative, and the knobs only
    mean something to the tasks that build an adversary from the spec;
    conversely ``--task adversary`` without any knob would measure nothing.
    """
    for name, rate in (("--loss", args.loss), ("--dup", args.dup),
                       ("--reorder", args.reorder)):
        if not (0.0 <= rate <= 1.0):
            raise ReproError(f"{name} must be in [0, 1] (got {rate})")
    for name, count in (("--crash-count", args.crash_count),
                        ("--byzantine-count", args.byzantine_count)):
        if count < 0:
            raise ReproError(f"{name} must be >= 0 (got {count})")
    if args.crash_recover is not None and args.crash_recover < 1:
        raise ReproError(
            f"--crash-recover must be >= 1 rounds (got {args.crash_recover}); "
            f"omit it for crash-stop")
    if _adversary_flags_set(args) and args.task not in ADVERSARY_CAPABLE_TASKS:
        raise ReproError(
            f"--loss/--dup/--reorder/--crash-*/--byzantine-* require --task "
            f"{'/'.join(ADVERSARY_CAPABLE_TASKS)} (got --task {args.task})")
    if args.task == "adversary" and not _adversary_flags_set(args):
        raise ReproError(
            "--task adversary needs at least one adversary knob "
            "(--loss/--dup/--reorder/--crash-count/--byzantine-count)")


def _check_backend_flags(args: argparse.Namespace) -> None:
    """Early validation of ``--backend`` (see :func:`_check_churn_flags`).

    The array kernel freezes the topology at build time and owns the
    channel objects, so churn and adversary models remain object-backend
    features, and the tasks of :data:`~repro.runtime.tasks.OBJECT_ONLY_TASKS`
    never run the array kernel; the tasks enforce the same gating, but
    failing here keeps the error a one-line CLI fix instead of a mid-sweep
    stack trace.
    """
    if args.backend == "object":
        return
    if args.task in OBJECT_ONLY_TASKS:
        raise ConfigurationError(
            f"--backend array does not support the {args.task} task (it "
            f"{OBJECT_ONLY_TASKS[args.task]})")
    if args.task == "churn" or args.churn_rate > 0 or args.churn_events > 0:
        raise ReproError("--backend array does not support topology churn")
    if args.task == "adversary" or _adversary_flags_set(args):
        raise ReproError("--backend array does not support adversary models")


def _check_capabilities(args: argparse.Namespace,
                        protocols: Sequence[str]) -> None:
    """Every protocol must declare the capabilities the run asks for.

    The same :meth:`~repro.protocols.base.ProtocolAdapter.require` check
    the runner and the churn task make, run before any work is dispatched.
    """
    for p in sorted(protocols):
        adapter = PROTOCOLS[p]
        if args.task == "churn":
            adapter.require("supports_churn", "topology churn")
        if args.backend == "array":
            adapter.require("supports_array_backend", "the array backend")


def cmd_sweep(args: argparse.Namespace) -> int:
    _check_families(args.families)
    graph_params = _parse_graph_params(args.graph_param)
    for family in args.families:
        # Every family of the matrix must accept every parameter key.
        validate_graph_params(family, graph_params)
    _check_protocols(args.protocols)
    _check_churn_flags(args)
    _check_fault_flags(args)
    _check_adversarial_flags(args)
    _check_backend_flags(args)
    _check_capabilities(args, args.protocols)
    sweep = SweepSpec(
        base=_spec_from_args(args, graph_params),
        families=tuple(args.families),
        sizes=tuple(args.sizes),
        repetitions=args.repetitions,
        master_seed=args.master_seed,
        seeds=tuple(args.seeds) if args.seeds else None,
        schedulers=tuple(args.schedulers),
        initials=tuple(args.initials),
        protocols=tuple(args.protocols),
    )
    specs = sweep.expand()
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    engine = SweepEngine(workers=args.workers, cache=cache)
    _status(f"sweep: {len(specs)} runs, {args.workers} worker(s)"
            + (f", cache at {args.cache_dir}" if args.cache_dir else ""))
    outcomes = engine.execute(specs)
    report = sweep_report(sweep, outcomes)
    stats = engine.last_stats
    _status(f"sweep: executed {stats.executed}, cache hits {stats.cache_hits}, "
            f"{stats.elapsed_s:.2f}s")
    columns = args.columns or (list(SWEEP_COLUMNS)
                               if sweep.base.task == "protocol" else None)
    if sweep.protocols != ("mdst",) and columns is not None and not args.columns:
        columns.insert(columns.index("initial") + 1, "protocol")
    if args.csv:
        print(report.to_csv(columns=columns))
    else:
        print(report.to_table(columns=columns))
        records = [o.record for o in outcomes if o.record]
        if records:
            print("aggregate: "
                  + json.dumps(aggregate_records(records), sort_keys=True))
    if args.output:
        path = Path(args.output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json(), encoding="utf-8")
        _status(f"sweep: report written to {path}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from ..experiments.experiments import EXPERIMENTS, run_all_experiments

    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    wanted = [e.upper() for e in args.experiments] if args.experiments else list(EXPERIMENT_IDS)
    unknown = sorted(set(wanted) - set(EXPERIMENT_IDS))
    if unknown:
        raise ReproError(f"unknown experiments {unknown}; known: {list(EXPERIMENT_IDS)}")
    reports = {}
    for exp_id in wanted:
        _status(f"bench: running {exp_id} on profile {args.profile!r} "
                f"with {args.workers} worker(s)")
        reports[exp_id] = EXPERIMENTS[exp_id](args.profile, workers=args.workers,
                                              cache=cache)
    for exp_id, report in reports.items():
        print(report.to_table())
        print()
    if args.output_dir:
        out = Path(args.output_dir)
        out.mkdir(parents=True, exist_ok=True)
        for exp_id, report in reports.items():
            report.save(out / f"{exp_id}.json")
        _status(f"bench: {len(reports)} report(s) written to {out}")
    return 0


def cmd_protocols(args: argparse.Namespace) -> int:
    """List the registered protocols and their capabilities."""
    rows = []
    for name in protocol_names():
        adapter = PROTOCOLS[name]
        rows.append({
            "protocol": name,
            "churn": "yes" if adapter.supports_churn else "no",
            "array": "yes" if adapter.supports_array_backend else "no",
            "initial policies": "/".join(adapter.initial_policies),
            "description": adapter.description,
        })
    if args.json:
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        print(format_table(rows, title="registered protocols"))
    return 0


def cmd_graphs(args: argparse.Namespace) -> int:
    """List the registered graph families, their parameters and size hints."""
    info = family_info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    rows = []
    for entry in info:
        rows.append({
            "family": entry["family"],
            "array-fast": "yes" if entry["array_fast"] else "no",
            "params": ", ".join(entry["params"]) if entry["params"] else "-",
            "size hint": entry["size_hint"],
        })
    print(format_table(rows, title="registered graph families"))
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    for path in args.paths:
        try:
            report = ExperimentReport.load(path)
        except (OSError, ValueError, KeyError) as exc:
            # malformed JSON (ValueError) or JSON that is not a report
            # (KeyError on the required keys)
            _status(f"error: cannot load report {path}: {exc!r}")
            return 1
        if args.group_by and args.value:
            aggregates = report.aggregate(args.group_by, args.value)
            print(format_table(
                [{args.group_by: k, f"mean_{args.value}": round(v, 3)}
                 for k, v in aggregates.items()],
                title=f"[{report.experiment}] mean {args.value} by {args.group_by}"))
        elif args.csv:
            print(report.to_csv(columns=args.columns))
        else:
            print(report.to_table(columns=args.columns))
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Self-stabilizing MDST reproduction: runs, sweeps, "
                    "benchmarks and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the protocol once on one graph")
    run.add_argument("--family", default="erdos_renyi_sparse",
                     help="graph family (see `repro graphs`)")
    run.add_argument("--n", type=int, default=16, help="target node count")
    run.add_argument("--graph-file", default=None, metavar="PATH",
                     help="run on this edge-list file (plain or .gz; "
                          "'#'/'%%' comments and SNAP headers accepted) "
                          "instead of a generated family")
    run.add_argument("--seed", type=int, default=1, help="graph + run seed")
    run.add_argument("--scheduler", default="synchronous",
                     choices=("synchronous", "random", "adversarial",
                              "weighted"))
    run.add_argument("--initial", default="isolated",
                     help="initial-configuration policy; each protocol "
                          "declares its own set (see `repro protocols`), "
                          "e.g. bfs_tree/random_tree/isolated/corrupted "
                          "for mdst")
    run.add_argument("--protocol", default="mdst",
                     help="registered protocol to run (see `repro protocols`)")
    _add_scenario_flags(run)
    run.add_argument("--json", action="store_true",
                     help="print the full outcome as JSON instead of a table")
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser(
        "sweep", help="run a matrix of configurations in parallel; the "
                      "scenario flags apply to every run of the matrix")
    sweep.add_argument("--families", type=_csv, default=["erdos_renyi_sparse"],
                       help="comma-separated graph families")
    sweep.add_argument("--sizes", type=_csv_ints, default=[12, 16],
                       help="comma-separated node counts")
    sweep.add_argument("--repetitions", type=int, default=1)
    sweep.add_argument("--master-seed", type=int, default=0,
                       help="per-repetition seeds are derived from this")
    sweep.add_argument("--seeds", type=_csv_ints, default=None,
                       help="explicit comma-separated seeds (overrides derivation)")
    sweep.add_argument("--schedulers", type=_csv, default=["synchronous"])
    sweep.add_argument("--initials", type=_csv, default=["isolated"])
    sweep.add_argument("--protocols", type=_csv, default=["mdst"],
                       help="comma-separated registered protocols; the "
                            "matrix multiplies across them "
                            "(see `repro protocols`)")
    _add_scenario_flags(sweep)
    sweep.add_argument("--workers", type=int, default=1,
                       help="worker processes (1 = serial fallback; "
                            f"this machine's default would be {default_workers()})")
    sweep.add_argument("--cache-dir", default=None,
                       help="on-disk result cache; re-runs become incremental")
    sweep.add_argument("--output", default=None, help="write the report JSON here")
    sweep.add_argument("--columns", type=_csv, default=None,
                       help="columns to print (default: protocol summary)")
    sweep.add_argument("--csv", action="store_true", help="print CSV instead of a table")
    sweep.set_defaults(func=cmd_sweep)

    bench = sub.add_parser("bench", help="run the paper's experiments E1-E8")
    bench.add_argument("--experiments", type=_csv, default=None,
                       help="comma-separated subset, e.g. E2,E4 (default: all)")
    bench.add_argument("--profile", default="quick", choices=("quick", "full"),
                       help="experiment scale profile")
    bench.add_argument("--workers", type=int, default=1)
    bench.add_argument("--cache-dir", default=None)
    bench.add_argument("--output-dir", default=None,
                       help="directory for per-experiment report JSON")
    bench.set_defaults(func=cmd_bench)

    report = sub.add_parser("report", help="re-render saved report JSON")
    report.add_argument("paths", nargs="+", help="report JSON file(s)")
    report.add_argument("--columns", type=_csv, default=None)
    report.add_argument("--csv", action="store_true")
    report.add_argument("--group-by", default=None,
                        help="aggregate: group rows by this column")
    report.add_argument("--value", default=None,
                        help="aggregate: mean of this column per group")
    report.set_defaults(func=cmd_report)

    protocols = sub.add_parser(
        "protocols", help="list the registered protocols")
    protocols.add_argument("--json", action="store_true",
                           help="print the registry as JSON")
    protocols.set_defaults(func=cmd_protocols)

    graphs = sub.add_parser(
        "graphs", help="list the registered graph families")
    graphs.add_argument("--json", action="store_true",
                        help="print the family registry as JSON")
    graphs.set_defaults(func=cmd_graphs)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        _status(f"error: {exc}")
        return 1
    except OSError as exc:
        _status(f"error: {exc}")
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess tests
    sys.exit(main())
