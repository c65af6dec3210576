"""Command-line interface: regenerate any of the paper's figures.

Usage::

    python -m repro fig4 --scale smoke
    python -m repro fig2 --scale medium --uls 2 8
    python -m repro fig5 --scale paper
    python -m repro solve --seed 42 --epsilon 1.3   # one-off solve demo
    python -m repro fig4 --scale smoke --trace run.jsonl
    python -m repro trace-summary run.jsonl         # inspect the trace
    python -m repro serve --port 8642 --workers 2   # scheduler service
    python -m repro serve --port 8642 --shards 4    # sharded deployment
    python -m repro submit --port 8642 --solver ga --epsilon 1.2
    python -m repro faults --scenario proc-failure  # fault injection
    python -m repro stream --load 1.5 --policy prune  # streaming workload
    python -m repro stream --grid --workers 4       # policy x load curves
    python -m repro energy --epsilons 1.0 1.3 1.6   # energy frontier study
    python -m repro energy --k 2 --workers 4        # 2-fault replication
    python -m repro algo-grid --rank-by r1          # scheduler catalogue sweep

or via the installed entry point ``repro-sched``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.experiments.config import PAPER_ULS, SCALES, ExperimentConfig
from repro.service.protocol import SOLVERS

__all__ = ["main", "build_parser"]

# Graph families of the algo-grid sweep.  Kept as a literal so parser
# construction stays import-light; pinned to
# repro.experiments.algo_grid.FAMILIES by tests/unit/test_algebra.py.
ALGO_FAMILIES = ("layered", "gauss", "fft", "forkjoin")


def _positive_int(text: str) -> int:
    """argparse type: strictly positive integer (clear error, no hangs)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {value}"
        )
    return value


def _trace_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL observability trace (spans, events, metrics) "
        "of the whole run to PATH; inspect with 'repro trace-summary'",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Reproduce 'Robust task scheduling in non-deterministic "
            "heterogeneous computing systems' (CLUSTER 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--scale",
            choices=sorted(SCALES),
            default="medium",
            help="experiment scale preset (default: medium)",
        )
        p.add_argument(
            "--seed", type=int, default=None, help="root seed (default: config default)"
        )
        p.add_argument(
            "--uls",
            type=float,
            nargs="+",
            default=list(PAPER_ULS),
            help="uncertainty levels to sweep (default: 2 4 6 8)",
        )
        p.add_argument(
            "--quiet", action="store_true", help="suppress progress output"
        )
        p.add_argument(
            "--workers",
            "--jobs",
            dest="workers",
            type=_positive_int,
            default=1,
            help="cluster worker processes (figs 2-8; results are identical "
            "for any value; crashed or hung workers are detected and their "
            "cells retried)",
        )
        p.add_argument(
            "--checkpoint",
            default=None,
            help="JSONL journal of finished cells for crash recovery "
            "(figs 2-8; default with --resume: "
            "results/checkpoints/<command>-<scale>-seed<seed>.jsonl)",
        )
        p.add_argument(
            "--resume",
            action="store_true",
            help="skip cells already journaled in the checkpoint; restored "
            "cells are bit-identical to recomputed ones (figs 2-8)",
        )
        _trace_arg(p)

    for fig, help_text in [
        ("fig2", "GA evolution, minimizing makespan (Sec. 5.1)"),
        ("fig3", "GA evolution, maximizing slack (Sec. 5.1)"),
        ("fig4", "improvement over HEFT at eps = 1.0 (Sec. 5.2)"),
        ("fig5", "R1 improvement vs eps (Sec. 5.2)"),
        ("fig6", "R2 improvement vs eps (Sec. 5.2)"),
        ("fig7", "best eps for overall performance, R1 (Sec. 5.2)"),
        ("fig8", "best eps for overall performance, R2 (Sec. 5.2)"),
    ]:
        p = sub.add_parser(fig, help=help_text)
        common(p)

    def instance_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=42, help="instance seed")
        p.add_argument(
            "--tasks", type=_positive_int, default=50, help="number of tasks"
        )
        p.add_argument(
            "--procs", type=_positive_int, default=4, help="number of processors"
        )
        p.add_argument(
            "--ul", type=float, default=2.0, help="mean uncertainty level"
        )
        _trace_arg(p)

    solve = sub.add_parser("solve", help="solve one random instance end-to-end")
    instance_args(solve)
    solve.add_argument("--epsilon", type=float, default=1.0, help="eps budget")
    solve.add_argument(
        "--realizations",
        type=_positive_int,
        default=500,
        help="Monte-Carlo realizations",
    )

    compare = sub.add_parser(
        "compare", help="run every scheduler on one instance and compare"
    )
    instance_args(compare)
    compare.add_argument(
        "--realizations",
        type=_positive_int,
        default=500,
        help="Monte-Carlo realizations",
    )

    gantt = sub.add_parser("gantt", help="render a schedule as an ASCII Gantt chart")
    instance_args(gantt)
    gantt.add_argument(
        "--scheduler",
        choices=("heft", "cpop", "peft", "minmin", "robust"),
        default="robust",
        help="which scheduler's result to draw",
    )
    gantt.add_argument("--epsilon", type=float, default=1.2, help="robust GA budget")
    gantt.add_argument("--width", type=int, default=78, help="chart width")

    pareto = sub.add_parser(
        "pareto", help="approximate the makespan/slack Pareto front with NSGA-II"
    )
    instance_args(pareto)
    pareto.add_argument(
        "--iterations", type=int, default=150, help="NSGA-II generations"
    )

    export = sub.add_parser(
        "export", help="generate an instance and write it (and its HEFT schedule)"
    )
    instance_args(export)
    export.add_argument(
        "--out", default="instance.json", help="output problem JSON path"
    )
    export.add_argument(
        "--dot", default=None, help="also write the task graph as DOT here"
    )

    zoo = sub.add_parser(
        "zoo", help="compare the whole scheduler zoo over the instance pool"
    )
    common(zoo)
    zoo.add_argument(
        "--zoo-ul", type=float, default=4.0, help="uncertainty level for the zoo"
    )
    zoo.add_argument(
        "--no-dynamic",
        action="store_true",
        help="skip the (slow) online-MCT dynamic baseline",
    )

    sens = sub.add_parser(
        "sensitivity",
        help="sweep a generator parameter and report the eps=1.0 gain",
    )
    common(sens)
    sens.add_argument(
        "--parameter", choices=("ccr", "alpha", "m"), default="ccr"
    )
    sens.add_argument(
        "--values", type=float, nargs="+", default=[0.1, 0.5, 1.0]
    )
    sens.add_argument(
        "--sens-ul", type=float, default=4.0, help="fixed uncertainty level"
    )

    faults = sub.add_parser(
        "faults",
        help="assess schedulers under injected fault scenarios "
        "(see docs/faults.md)",
    )
    instance_args(faults)
    faults.add_argument(
        "--scenario",
        action="append",
        default=None,
        metavar="NAME_OR_PATH",
        help="builtin scenario name or a JSON/YAML spec path; repeatable "
        "(default: every builtin; see --list-scenarios)",
    )
    faults.add_argument(
        "--epsilon", type=float, default=1.4, help="robust GA eps budget"
    )
    faults.add_argument(
        "--realizations",
        type=_positive_int,
        default=200,
        help="Monte-Carlo realizations per cell (default: 200)",
    )
    faults.add_argument(
        "--instances",
        type=_positive_int,
        default=1,
        help="instances to average over (default: 1)",
    )
    faults.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="cluster worker processes for the instance fan-out "
        "(results are identical for any value)",
    )
    faults.add_argument(
        "--policies",
        nargs="+",
        choices=("rerun-static", "repair", "dynamic"),
        default=["rerun-static", "repair", "dynamic"],
        help="reactive policies to grid over (default: all three)",
    )
    faults.add_argument(
        "--ga-iterations",
        type=_positive_int,
        default=80,
        help="robust GA generations (default: 80)",
    )
    faults.add_argument(
        "--ga-population",
        type=_positive_int,
        default=20,
        help="robust GA population size (default: 20)",
    )
    faults.add_argument(
        "--list-scenarios",
        action="store_true",
        help="print the builtin scenario library and exit",
    )
    faults.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    energy = sub.add_parser(
        "energy",
        help="energy/replication frontier study: HEFT vs robust GA vs "
        "energy GA (see docs/energy.md)",
    )
    instance_args(energy)
    energy.add_argument(
        "--epsilons",
        type=float,
        nargs="+",
        default=[1.0, 1.3, 1.6],
        help="makespan budgets as multiples of M_HEFT (default: 1.0 1.3 1.6)",
    )
    energy.add_argument(
        "--slack-ratio",
        type=float,
        default=0.5,
        help="reliability floor R as a fraction of HEFT's average slack "
        "(default: 0.5; must be <= 1 so HEFT keeps every cell feasible)",
    )
    energy.add_argument(
        "--power",
        choices=("default", "uniform", "null"),
        default="default",
        help="power model: 'default' heterogeneous with DVFS levels, "
        "'uniform' identical processors, 'null' zero power (degenerates "
        "to the paper's slack GA; default: default)",
    )
    energy.add_argument(
        "--k",
        type=int,
        default=1,
        help="permanent processor failures the replication plan must "
        "tolerate (0 skips replication; default: 1)",
    )
    energy.add_argument(
        "--deadline-factor",
        type=float,
        default=4.0,
        help="replication deadline as a multiple of M_HEFT (default: 4)",
    )
    energy.add_argument(
        "--realizations",
        type=_positive_int,
        default=200,
        help="Monte-Carlo realizations per cell (default: 200)",
    )
    energy.add_argument(
        "--replication-realizations",
        type=_positive_int,
        default=10,
        help="realizations per failure subset in survival verification "
        "(default: 10)",
    )
    energy.add_argument(
        "--instances",
        type=_positive_int,
        default=1,
        help="instances to average over (default: 1)",
    )
    energy.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="cluster worker processes for the instance fan-out "
        "(results are identical for any value)",
    )
    energy.add_argument(
        "--ga-iterations",
        type=_positive_int,
        default=80,
        help="GA generations (default: 80)",
    )
    energy.add_argument(
        "--ga-population",
        type=_positive_int,
        default=20,
        help="GA population size (default: 20)",
    )
    energy.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    algo = sub.add_parser(
        "algo-grid",
        help="sweep the component-algebra scheduler catalogue across "
        "graph families (see docs/algorithms.md)",
    )
    instance_args(algo)
    algo.add_argument(
        "--combos",
        nargs="+",
        default=None,
        metavar="NAME",
        help="catalogue combinations to sweep (default: all; "
        "see --list-combos)",
    )
    algo.add_argument(
        "--families",
        nargs="+",
        default=list(ALGO_FAMILIES),
        choices=ALGO_FAMILIES,
        help="graph families to draw instances from (default: all)",
    )
    algo.add_argument(
        "--instances",
        type=_positive_int,
        default=3,
        help="instances per family (default: 3)",
    )
    algo.add_argument(
        "--realizations",
        type=_positive_int,
        default=200,
        help="Monte-Carlo realizations per cell (default: 200)",
    )
    algo.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes (default: in-process; results are "
        "bit-identical for any value)",
    )
    algo.add_argument(
        "--rank-by",
        choices=("makespan", "r1", "r2"),
        default="makespan",
        help="ranking criterion for the summary table (default: makespan)",
    )
    algo.add_argument(
        "--list-combos",
        action="store_true",
        help="print the scheduler catalogue and exit",
    )
    algo.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )

    stream = sub.add_parser(
        "stream",
        help="run a streaming oversubscribed workload with shedding "
        "policies (see docs/stream.md)",
    )
    stream.add_argument("--seed", type=int, default=0, help="workload seed")
    stream.add_argument(
        "--stream-jobs",
        type=_positive_int,
        default=40,
        help="DAG jobs in the arrival stream (default: 40)",
    )
    stream.add_argument(
        "--tasks", type=_positive_int, default=24, help="tasks per job"
    )
    stream.add_argument(
        "--procs",
        type=_positive_int,
        default=4,
        help="shared-platform processors",
    )
    stream.add_argument(
        "--ul", type=float, default=2.0, help="mean uncertainty level per job"
    )
    stream.add_argument(
        "--load",
        type=float,
        default=1.5,
        help="offered load relative to capacity; >1 oversubscribes "
        "(default: 1.5)",
    )
    stream.add_argument(
        "--arrival",
        choices=("poisson", "mmpp"),
        default="poisson",
        help="arrival process (mmpp = two-state bursty)",
    )
    stream.add_argument(
        "--burstiness",
        type=float,
        default=4.0,
        help="mmpp fast/slow rate ratio (default: 4)",
    )
    stream.add_argument(
        "--deadline-factor",
        type=float,
        default=3.0,
        help="deadline = arrival + factor x isolated expected makespan",
    )
    stream.add_argument(
        "--policy",
        choices=("none", "prune", "drop"),
        default="none",
        help="shedding policy for a single run (default: none)",
    )
    stream.add_argument(
        "--grid",
        action="store_true",
        help="sweep the policy x load grid through repro.cluster instead "
        "of one run (see --loads/--policies/--workers)",
    )
    stream.add_argument(
        "--loads",
        type=float,
        nargs="+",
        default=None,
        help="grid load levels (default: 0.5 1.0 1.5 2.0)",
    )
    stream.add_argument(
        "--policies",
        nargs="+",
        choices=("none", "prune", "drop"),
        default=None,
        help="grid policies (default: all three)",
    )
    stream.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="cluster worker processes for the grid fan-out "
        "(results are identical for any value)",
    )
    stream.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    _trace_arg(stream)

    serve = sub.add_parser(
        "serve", help="run the scheduler service daemon (see docs/service.md)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port",
        type=int,
        default=8642,
        help="TCP port (0 picks a free one; it is announced on stderr)",
    )
    serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        help="GA executor slots (>1 uses the repro.cluster process pool)",
    )
    serve.add_argument(
        "--ga-queue-limit",
        type=int,
        default=8,
        help="GA requests allowed to wait; the excess is shed to the "
        "degraded heuristic tier (default: 8)",
    )
    serve.add_argument(
        "--admission",
        choices=("tiered", "stream"),
        default="tiered",
        help="GA admission mode: 'tiered' sheds on the EWMA wait point "
        "estimate, 'stream' on the probabilistic on-time-start test "
        "(default: tiered; see docs/stream.md)",
    )
    serve.add_argument(
        "--stream-threshold",
        type=float,
        default=0.5,
        help="stream admission: shed GA requests whose on-time start "
        "probability is below this (default: 0.5)",
    )
    serve.add_argument(
        "--cache-mb",
        type=float,
        default=64.0,
        help="result cache budget in MiB (default: 64)",
    )
    serve.add_argument(
        "--shards",
        type=_positive_int,
        default=1,
        help="scheduler-worker shards; >1 runs the sharded deployment "
        "(a coordinator consistent-hashes requests across the shards; "
        "default: 1, the classic single-node daemon)",
    )
    serve.add_argument(
        "--transport",
        choices=("inproc", "tcp"),
        default="tcp",
        help="shard transport when --shards > 1: 'tcp' forks one OS "
        "process per shard (real parallelism), 'inproc' keeps them in "
        "the coordinator's event loop (default: tcp)",
    )
    serve.add_argument(
        "--steal-margin",
        type=_positive_int,
        default=1,
        help="sharded only: GA backlog difference before work stealing "
        "kicks in (default: 1)",
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress lifecycle output"
    )
    _trace_arg(serve)

    submit = sub.add_parser(
        "submit", help="send one request to a running scheduler service"
    )
    submit.add_argument("--host", default="127.0.0.1", help="server address")
    submit.add_argument("--port", type=int, default=8642, help="server port")
    submit.add_argument(
        "--op",
        choices=("solve", "status", "ping", "shutdown"),
        default="solve",
        help="request to send (default: solve)",
    )
    submit.add_argument(
        "--problem",
        default=None,
        help="problem JSON file ('repro export' output); omitted: generate "
        "an instance from --seed/--tasks/--procs/--ul",
    )
    submit.add_argument("--seed", type=int, default=42, help="instance + solver seed")
    submit.add_argument(
        "--tasks", type=_positive_int, default=50, help="generated-instance tasks"
    )
    submit.add_argument(
        "--procs", type=_positive_int, default=4, help="generated-instance processors"
    )
    submit.add_argument(
        "--ul", type=float, default=2.0, help="generated-instance uncertainty level"
    )
    submit.add_argument(
        "--solver",
        choices=SOLVERS,
        default="ga",
        help="which solver to request (every non-GA name is fast-tier, "
        "including the component-algebra catalogue; see docs/algorithms.md)",
    )
    submit.add_argument("--epsilon", type=float, default=1.0, help="GA eps budget")
    submit.add_argument(
        "--realizations",
        type=_positive_int,
        default=500,
        help="Monte-Carlo realizations",
    )
    submit.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="queue-wait deadline in seconds; a GA request predicted to "
        "wait longer is shed to the heuristic tier",
    )
    submit.add_argument(
        "--ga-iterations",
        type=_positive_int,
        default=None,
        help="override GAParams.max_iterations for this request",
    )
    submit.add_argument(
        "--ga-stagnation",
        type=_positive_int,
        default=None,
        help="override GAParams.stagnation_limit for this request",
    )
    submit.add_argument(
        "--ga-population",
        type=_positive_int,
        default=None,
        help="override GAParams.population_size for this request",
    )
    submit.add_argument(
        "--warm-start",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="allow the server to seed a GA solve from previously solved "
        "near-match problems (default: on; --no-warm-start disables)",
    )
    submit.add_argument(
        "--retry-s",
        type=float,
        default=5.0,
        help="keep retrying the connection this long (default: 5)",
    )
    submit.add_argument(
        "--json",
        action="store_true",
        help="print the raw response JSON instead of a summary",
    )

    tsum = sub.add_parser(
        "trace-summary",
        help="render a human-readable summary of a --trace JSONL file",
    )
    tsum.add_argument("path", help="trace file written by --trace")
    tsum.add_argument(
        "--top",
        type=_positive_int,
        default=5,
        help="histograms to show in full (default: 5)",
    )
    return parser


def _config(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {"scale": SCALES[args.scale]}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return ExperimentConfig(**kwargs)


def _cluster_kwargs(args: argparse.Namespace, config: ExperimentConfig) -> dict:
    """Execution knobs shared by every figure driver (repro.cluster)."""
    checkpoint = args.checkpoint
    if checkpoint is None and args.resume:
        checkpoint = (
            f"results/checkpoints/{args.command}-{config.scale.name}"
            f"-seed{config.seed}.jsonl"
        )
    return {
        "n_jobs": args.workers,
        "checkpoint": checkpoint,
        "resume": args.resume,
    }


def _progress(args: argparse.Namespace):
    if args.quiet:
        return None

    start = time.perf_counter()

    def report(msg: str) -> None:
        print(f"[{time.perf_counter() - start:7.1f}s] {msg}", file=sys.stderr)

    return report


def _instance(args: argparse.Namespace):
    from repro.core.problem import SchedulingProblem
    from repro.graph.generator import DagParams
    from repro.platform.uncertainty import UncertaintyParams

    return SchedulingProblem.random(
        m=args.procs,
        dag_params=DagParams(n=args.tasks),
        uncertainty_params=UncertaintyParams(mean_ul=args.ul),
        rng=args.seed,
    )


def _run_solve(args: argparse.Namespace) -> str:
    from repro.core.robust import RobustScheduler
    from repro.robustness.montecarlo import assess_robustness
    from repro.utils.tables import format_table

    problem = _instance(args)
    result = RobustScheduler(epsilon=args.epsilon, rng=args.seed + 1).solve(problem)
    ga_report = assess_robustness(result.schedule, args.realizations, args.seed + 2)
    heft_report = assess_robustness(
        result.heft_schedule, args.realizations, args.seed + 3
    )
    rows = [
        ["HEFT", heft_report.expected_makespan, heft_report.mean_makespan,
         heft_report.avg_slack, heft_report.r1, heft_report.r2],
        ["robust GA", ga_report.expected_makespan, ga_report.mean_makespan,
         ga_report.avg_slack, ga_report.r1, ga_report.r2],
    ]
    return format_table(
        ["scheduler", "M0", "mean M", "avg slack", "R1", "R2"],
        rows,
        title=f"{problem.name}  (eps={args.epsilon}, N={args.realizations})",
    )


def _run_compare(args: argparse.Namespace) -> str:
    from repro.algebra import component_scheduler
    from repro.core.robust import RobustScheduler
    from repro.robustness.montecarlo import assess_robustness
    from repro.utils.tables import format_table

    problem = _instance(args)
    schedulers = [
        ("HEFT", component_scheduler("heft")),
        ("CPOP", component_scheduler("cpop")),
        ("PEFT", component_scheduler("peft")),
        ("min-min", component_scheduler("minmin")),
        ("robust GA", RobustScheduler(epsilon=1.0, rng=args.seed + 1)),
    ]
    rows = []
    for name, scheduler in schedulers:
        schedule = scheduler.schedule(problem)
        report = assess_robustness(schedule, args.realizations, args.seed + 2)
        rows.append(
            [name, report.expected_makespan, report.mean_makespan,
             report.avg_slack, report.miss_rate, report.r1, report.r2]
        )
    return format_table(
        ["scheduler", "M0", "mean M", "slack", "miss", "R1", "R2"],
        rows,
        title=f"{problem.name}  (N={args.realizations})",
    )


def _run_gantt(args: argparse.Namespace) -> str:
    from repro.algebra import component_scheduler
    from repro.core.robust import RobustScheduler
    from repro.schedule.gantt import render_gantt

    problem = _instance(args)
    if args.scheduler == "robust":
        scheduler = RobustScheduler(epsilon=args.epsilon, rng=args.seed + 1)
    else:
        scheduler = component_scheduler(args.scheduler)
    schedule = scheduler.schedule(problem)
    header = f"{problem.name} — {args.scheduler}"
    return header + "\n" + render_gantt(schedule, width=args.width)


def _run_pareto(args: argparse.Namespace) -> str:
    from repro.ga.engine import GAParams
    from repro.moop.nsga2 import Nsga2Scheduler
    from repro.utils.tables import format_table

    problem = _instance(args)
    result = Nsga2Scheduler(
        GAParams(max_iterations=args.iterations), rng=args.seed + 1
    ).run(problem)
    rows = [[ind.makespan, ind.avg_slack] for ind in result.front]
    return format_table(
        ["makespan", "avg slack"],
        rows,
        title=f"{problem.name} — NSGA-II front ({len(rows)} schedules, "
        f"{result.generations} generations)",
    )


def _run_export(args: argparse.Namespace) -> str:
    import pathlib

    from repro.heuristics.heft import HeftScheduler
    from repro.io import graph_to_dot, save_problem, save_schedule

    problem = _instance(args)
    out = pathlib.Path(args.out)
    save_problem(problem, out)
    schedule_path = out.with_name(out.stem + ".heft-schedule.json")
    save_schedule(HeftScheduler().schedule(problem), schedule_path)
    messages = [f"wrote {out}", f"wrote {schedule_path}"]
    if args.dot:
        pathlib.Path(args.dot).write_text(graph_to_dot(problem.graph))
        messages.append(f"wrote {args.dot}")
    return "\n".join(messages)


def _run_faults(args: argparse.Namespace) -> str:
    from repro.experiments.config import Scale
    from repro.experiments.fault_grid import run_fault_grid
    from repro.faults import BUILTIN_SCENARIOS, resolve_scenario
    from repro.ga.engine import GAParams

    if args.list_scenarios:
        lines = ["builtin fault scenarios:"]
        for name, scenario in sorted(BUILTIN_SCENARIOS.items()):
            kinds = ", ".join(type(f).__name__ for f in scenario.faults) or "empty"
            rel = " [relative times]" if scenario.relative_times else ""
            lines.append(f"  {name:14s} {kinds}{rel}")
        return "\n".join(lines)

    names = args.scenario or sorted(BUILTIN_SCENARIOS)
    try:
        scenarios = tuple(resolve_scenario(s) for s in names)
    except (ValueError, RuntimeError) as exc:
        raise SystemExit(str(exc))

    strategies: list[tuple[str, str]] = []
    for policy in dict.fromkeys(args.policies):
        if policy == "dynamic":
            strategies.append(("online", "dynamic"))
        else:
            strategies.append(("heft", policy))
            strategies.append(("robust-ga", policy))

    scale = Scale(
        name="cli-faults",
        n_graphs=args.instances,
        n_realizations=args.realizations,
        n_tasks=args.tasks,
        ga_max_iterations=args.ga_iterations,
        ga_stagnation=max(args.ga_iterations // 4, 1),
    )
    config = ExperimentConfig(scale=scale, m=args.procs, seed=args.seed)
    ga_params = GAParams(
        population_size=args.ga_population,
        max_iterations=args.ga_iterations,
        stagnation_limit=scale.ga_stagnation,
    )
    results = run_fault_grid(
        config,
        scenarios,
        mean_ul=args.ul,
        epsilon=args.epsilon,
        strategies=tuple(strategies),
        ga_params=ga_params,
        n_jobs=args.workers,
        progress=_progress(args),
    )
    return results.to_table()


def _run_algo_grid(args: argparse.Namespace) -> str:
    from repro.algebra import CATALOGUE
    from repro.experiments.algo_grid import run_algo_grid

    if args.list_combos:
        lines = ["scheduler catalogue (ranking/selection/insertion/order):"]
        for name, comps in CATALOGUE.items():
            lines.append(f"  {name:16s} {comps.spec}")
        return "\n".join(lines)

    combos = tuple(dict.fromkeys(args.combos)) if args.combos else None
    try:
        results = run_algo_grid(
            seed=args.seed,
            combos=combos,
            families=tuple(dict.fromkeys(args.families)),
            n_instances=args.instances,
            n_tasks=args.tasks,
            m=args.procs,
            mean_ul=args.ul,
            n_realizations=args.realizations,
            n_jobs=args.workers,
            progress=_progress(args),
        )
    except ValueError as exc:
        raise SystemExit(str(exc))
    return results.to_table(args.rank_by)


def _run_energy(args: argparse.Namespace) -> str:
    from repro.energy import PowerModel
    from repro.experiments.config import Scale
    from repro.experiments.energy_grid import run_energy_grid
    from repro.ga.engine import GAParams

    if not (0.0 <= args.slack_ratio <= 1.0):
        raise SystemExit(
            f"--slack-ratio must be in [0, 1], got {args.slack_ratio}"
        )
    if args.k < 0:
        raise SystemExit(f"--k must be >= 0, got {args.k}")
    powers = {
        "default": PowerModel.default,
        "uniform": PowerModel.uniform,
        "null": PowerModel.null,
    }
    power = powers[args.power](args.procs)
    scale = Scale(
        name="cli-energy",
        n_graphs=args.instances,
        n_realizations=args.realizations,
        n_tasks=args.tasks,
        ga_max_iterations=args.ga_iterations,
        ga_stagnation=max(args.ga_iterations // 4, 1),
    )
    config = ExperimentConfig(scale=scale, m=args.procs, seed=args.seed)
    ga_params = GAParams(
        population_size=args.ga_population,
        max_iterations=args.ga_iterations,
        stagnation_limit=scale.ga_stagnation,
    )
    results = run_energy_grid(
        config,
        power=power,
        epsilons=tuple(args.epsilons),
        mean_ul=args.ul,
        slack_ratio=args.slack_ratio,
        k=args.k,
        deadline_factor=args.deadline_factor,
        replication_realizations=args.replication_realizations,
        ga_params=ga_params,
        n_jobs=args.workers,
        progress=_progress(args),
    )
    out = results.to_table()
    if results.replication:
        out += "\n" + results.replication_table()
    return out


def _run_stream(args: argparse.Namespace) -> str:
    from repro.experiments.stream_grid import DEFAULT_LOADS, run_stream_grid
    from repro.stream import (
        POLICY_NAMES,
        StreamParams,
        build_workload,
        make_policy,
        run_stream,
    )

    params = StreamParams(
        n_jobs=args.stream_jobs,
        tasks=args.tasks,
        m=args.procs,
        mean_ul=args.ul,
        load=args.load,
        arrival=args.arrival,
        burstiness=args.burstiness,
        deadline_factor=args.deadline_factor,
        seed=args.seed,
    )
    if args.grid:
        results = run_stream_grid(
            params,
            loads=tuple(args.loads) if args.loads else DEFAULT_LOADS,
            policies=tuple(args.policies) if args.policies else POLICY_NAMES,
            n_jobs=args.workers,
            progress=_progress(args),
        )
        return results.to_table()

    result = run_stream(build_workload(params), make_policy(args.policy))
    lines = [
        f"stream     : {params.n_jobs} jobs x {params.tasks} tasks on "
        f"m={params.m} ({params.arrival}, load={params.load:g}, "
        f"seed={params.seed})",
        f"policy     : {result.policy}",
        f"on-time    : {result.n_on_time}/{result.n_jobs} "
        f"(rate {result.on_time_rate:.3f}, miss {result.miss_rate:.3f})",
        f"outcomes   : {result.n_late} late, {result.n_dropped} dropped, "
        f"{result.n_rejected} rejected, {result.n_deferrals} deferrals",
        f"goodput    : {result.goodput:.3f} work/time over horizon "
        f"{result.horizon:.2f}",
        f"utilization: {result.utilization:.3f}",
    ]
    if result.n_on_time + result.n_late:
        lines.append(f"mean resp  : {result.mean_response:.2f}")
    return "\n".join(lines)


def _run_serve(args: argparse.Namespace) -> str:
    import asyncio

    from repro.service.coordinator import Coordinator, CoordinatorConfig
    from repro.service.server import SchedulerService, ServiceConfig

    if args.port < 0:
        raise SystemExit(f"port must be >= 0, got {args.port}")
    if args.ga_queue_limit < 0:
        raise SystemExit(
            f"--ga-queue-limit must be >= 0, got {args.ga_queue_limit}"
        )
    progress = None
    if not args.quiet:
        progress = lambda msg: print(f"[serve] {msg}", file=sys.stderr)  # noqa: E731
    if args.shards > 1:
        service = Coordinator(
            CoordinatorConfig(
                host=args.host,
                port=args.port,
                shards=args.shards,
                transport=args.transport,
                workers=args.workers,
                ga_queue_limit=args.ga_queue_limit,
                admission_mode=args.admission,
                stream_threshold=args.stream_threshold,
                cache_bytes=int(args.cache_mb * 1024 * 1024),
                steal_margin=args.steal_margin,
            ),
            progress=progress,
        )
    else:
        service = SchedulerService(
            ServiceConfig(
                host=args.host,
                port=args.port,
                workers=args.workers,
                ga_queue_limit=args.ga_queue_limit,
                admission_mode=args.admission,
                stream_threshold=args.stream_threshold,
                cache_bytes=int(args.cache_mb * 1024 * 1024),
            ),
            progress=progress,
        )
    try:
        asyncio.run(service.run())
    except KeyboardInterrupt:
        pass
    counters = service.counters
    cache = service.cache.stats()
    summary = (
        f"served {counters['requests']} requests "
        f"({counters['solve']} solves, {counters['degraded']} degraded, "
        f"{counters['coalesced']} coalesced); "
        f"cache {cache['hits']} hits / {cache['misses']} misses"
    )
    if args.shards > 1:
        summary += (
            f"; routed {counters['routed_home']} home / "
            f"{counters['routed_stolen']} stolen / "
            f"{counters['routed_failover']} failover "
            f"({counters['shard_restarts']} shard restarts)"
        )
    return summary


def _run_submit(args: argparse.Namespace) -> str:
    import json

    from repro.io import load_problem
    from repro.service.client import ServiceClient

    with ServiceClient(
        args.host, args.port, retry_s=max(args.retry_s, 0.0)
    ) as client:
        if args.op == "ping":
            return "pong" if client.ping() else "no pong"
        if args.op == "status":
            response = client.status()
        elif args.op == "shutdown":
            response = client.shutdown()
        else:
            problem = (
                load_problem(args.problem)
                if args.problem
                else _instance(args)
            )
            ga = {}
            if args.ga_iterations is not None:
                ga["max_iterations"] = args.ga_iterations
            if args.ga_stagnation is not None:
                ga["stagnation_limit"] = args.ga_stagnation
            if args.ga_population is not None:
                ga["population_size"] = args.ga_population
            response = client.solve(
                problem,
                solver=args.solver,
                epsilon=args.epsilon,
                seed=args.seed,
                n_realizations=args.realizations,
                deadline_s=args.deadline,
                ga=ga or None,
                warm_start=args.warm_start,
            )
    if args.json or args.op in ("status", "shutdown"):
        return json.dumps(response, indent=1)
    report = response["report"]
    flags = [
        flag
        for flag, on in [
            ("cached", response["cached"]),
            ("coalesced", response["coalesced"]),
            ("degraded", response["degraded"]),
            ("warm-started", bool(response.get("warm_seeds"))),
        ]
        if on
    ]
    lines = [
        f"solver     : {response['solver']}"
        + (f" (requested {response['requested_solver']})" if response["degraded"] else ""),
        f"flags      : {', '.join(flags) if flags else '-'}",
        f"M0         : {report['expected_makespan']}",
        f"mean M     : {report['mean_makespan']}",
        f"avg slack  : {report['avg_slack']}",
        f"R1 / R2    : {report['r1']} / {report['r2']}",
        f"elapsed    : {response['elapsed_s']:.3f}s",
    ]
    if response["degraded"]:
        lines.append(f"degraded   : {response['degraded_reason']}")
    return "\n".join(lines)


def _run_trace_summary(args: argparse.Namespace) -> str:
    from repro.obs import TraceSchemaError, load_trace, render_summary

    try:
        records = load_trace(args.path)
    except FileNotFoundError:
        raise SystemExit(f"no such trace file: {args.path}")
    except TraceSchemaError as exc:
        raise SystemExit(f"{args.path}: trace schema violation: {exc}")
    return render_summary(records, top=args.top)


def run(argv: Sequence[str] | None = None) -> str:
    """Execute the CLI and return the rendered output (testing hook)."""
    args = build_parser().parse_args(argv)

    if args.command == "trace-summary":
        return _run_trace_summary(args)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return _dispatch(args)

    from repro.obs import runtime as obs
    from repro.obs.sinks import JsonlSink

    obs.enable(JsonlSink(trace_path))
    try:
        with obs.trace(f"cli.{args.command}"):
            return _dispatch(args)
    finally:
        obs.disable()


def _dispatch(args: argparse.Namespace) -> str:
    if args.command == "solve":
        return _run_solve(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "gantt":
        return _run_gantt(args)
    if args.command == "pareto":
        return _run_pareto(args)
    if args.command == "export":
        return _run_export(args)
    if args.command == "faults":
        return _run_faults(args)
    if args.command == "energy":
        return _run_energy(args)
    if args.command == "algo-grid":
        return _run_algo_grid(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "submit":
        return _run_submit(args)
    if args.command == "zoo":
        from repro.experiments.zoo import run_zoo

        return run_zoo(
            _config(args),
            args.zoo_ul,
            include_dynamic=not args.no_dynamic,
            progress=_progress(args),
        ).to_table()
    if args.command == "sensitivity":
        from repro.experiments.sensitivity import run_sensitivity

        return run_sensitivity(
            _config(args),
            args.parameter,
            tuple(args.values),
            mean_ul=args.sens_ul,
            progress=_progress(args),
        ).to_table()

    config = _config(args)
    uls = tuple(args.uls)
    progress = _progress(args)
    cluster = _cluster_kwargs(args, config)

    if args.command in ("fig2", "fig3"):
        from repro.experiments.slack_effect import run_slack_effect

        objective = "makespan" if args.command == "fig2" else "slack"
        return run_slack_effect(
            config, objective, uls, progress=progress, **cluster
        ).to_table()
    if args.command == "fig4":
        from repro.experiments.eps_one import run_eps_one

        return run_eps_one(
            config, uls, progress=progress, **cluster
        ).to_table()
    if args.command in ("fig5", "fig6"):
        from repro.experiments.eps_sweep import run_eps_sweep

        which = "r1" if args.command == "fig5" else "r2"
        return run_eps_sweep(
            config, uls, progress=progress, **cluster
        ).to_table(which)
    if args.command in ("fig7", "fig8"):
        from repro.experiments.best_eps import run_best_eps

        which = "r1" if args.command == "fig7" else "r2"
        return run_best_eps(
            config, uls, progress=progress, **cluster
        ).to_table(which)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    print(run(argv))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
