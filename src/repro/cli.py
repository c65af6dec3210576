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
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, NamedTuple, Sequence

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


class Option(NamedTuple):
    """One ``add_argument`` call: its option strings and keywords."""

    flags: tuple[str, ...]
    kwargs: Mapping[str, Any]


def _opt(*flags: str, **kwargs: Any) -> Option:
    return Option(flags, kwargs)


#: Options that several verbs take, each declared once.  A verb names
#: the ones it takes (see :data:`VERBS`) and may give one its own default.
SHARED: dict[str, Option] = {
    "scale": _opt(
        "--scale",
        choices=sorted(SCALES),
        default="medium",
        help="experiment scale preset (default: %(default)s)",
    ),
    "seed": _opt(
        "--seed",
        type=int,
        default=42,
        help="root seed of every random stream (default: %(default)s)",
    ),
    "tasks": _opt(
        "--tasks",
        type=_positive_int,
        default=50,
        help="tasks per instance (default: %(default)s)",
    ),
    "procs": _opt(
        "--procs",
        type=_positive_int,
        default=4,
        help="number of processors (default: %(default)s)",
    ),
    "ul": _opt(
        "--ul",
        type=float,
        default=2.0,
        help="mean uncertainty level (default: %(default)s)",
    ),
    "epsilon": _opt(
        "--epsilon",
        type=float,
        default=1.0,
        help="robust GA eps budget, a multiple of M_HEFT (default: %(default)s)",
    ),
    "realizations": _opt(
        "--realizations",
        type=_positive_int,
        default=500,
        help="Monte-Carlo realizations (per cell in a grid; "
        "default: %(default)s)",
    ),
    "instances": _opt(
        "--instances",
        type=_positive_int,
        default=1,
        help="instances to average over (per graph family in algo-grid; "
        "default: %(default)s)",
    ),
    "workers": _opt(
        "--workers",
        type=_positive_int,
        default=1,
        help="worker processes (default: %(default)s, in-process); results "
        "are identical for any value, and crashed or hung workers are "
        "detected and their tasks retried",
    ),
    "quiet": _opt("--quiet", action="store_true", help="suppress progress output"),
    "ga_iterations": _opt(
        "--ga-iterations",
        type=_positive_int,
        default=80,
        help="GA generations (default: %(default)s)",
    ),
    "ga_population": _opt(
        "--ga-population",
        type=_positive_int,
        default=20,
        help="GA population size (default: %(default)s)",
    ),
    "host": _opt(
        "--host",
        default="127.0.0.1",
        help="service address (default: %(default)s)",
    ),
    "port": _opt(
        "--port",
        type=int,
        default=8642,
        help="service TCP port (default: %(default)s; serve takes 0 to pick "
        "a free one and announces it on stderr)",
    ),
    "trace": _opt(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL observability trace (spans, events, metrics) "
        "of the whole run to PATH; inspect with 'repro trace-summary'",
    ),
}


def _config(args: argparse.Namespace) -> ExperimentConfig:
    kwargs = {"scale": SCALES[args.scale]}
    if args.seed is not None:
        kwargs["seed"] = args.seed
    return ExperimentConfig(**kwargs)


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


def _run_figure(args: argparse.Namespace) -> str:
    """Figs. 2-8: one paper experiment on the cluster engine, as a table."""
    config = _config(args)
    checkpoint = args.checkpoint
    if checkpoint is None and args.resume:
        checkpoint = (
            f"results/checkpoints/{args.command}-{config.scale.name}"
            f"-seed{config.seed}.jsonl"
        )
    uls = tuple(args.uls)
    kwargs = {
        "progress": _progress(args),
        "n_jobs": args.workers,
        "checkpoint": checkpoint,
        "resume": args.resume,
    }
    fig = args.command
    if fig in ("fig2", "fig3"):
        from repro.experiments.slack_effect import run_slack_effect

        objective = "makespan" if fig == "fig2" else "slack"
        return run_slack_effect(config, objective, uls, **kwargs).to_table()
    if fig == "fig4":
        from repro.experiments.eps_one import run_eps_one

        return run_eps_one(config, uls, **kwargs).to_table()
    which = "r1" if fig in ("fig5", "fig7") else "r2"
    if fig in ("fig5", "fig6"):
        from repro.experiments.eps_sweep import run_eps_sweep

        return run_eps_sweep(config, uls, **kwargs).to_table(which)
    from repro.experiments.best_eps import run_best_eps

    return run_best_eps(config, uls, **kwargs).to_table(which)


def _run_zoo(args: argparse.Namespace) -> str:
    from repro.experiments.zoo import run_zoo

    return run_zoo(
        _config(args),
        args.zoo_ul,
        include_dynamic=not args.no_dynamic,
        progress=_progress(args),
    ).to_table()


def _run_sensitivity(args: argparse.Namespace) -> str:
    from repro.experiments.sensitivity import run_sensitivity

    return run_sensitivity(
        _config(args),
        args.parameter,
        tuple(args.values),
        mean_ul=args.sens_ul,
        progress=_progress(args),
    ).to_table()


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


def _grid_config(args: argparse.Namespace):
    """The experiment config and GA parameters of a faults or energy grid."""
    from repro.experiments.config import Scale
    from repro.ga.engine import GAParams

    stagnation = max(args.ga_iterations // 4, 1)
    scale = Scale(
        name=f"cli-{args.command}",
        n_graphs=args.instances,
        n_realizations=args.realizations,
        n_tasks=args.tasks,
        ga_max_iterations=args.ga_iterations,
        ga_stagnation=stagnation,
    )
    ga_params = GAParams(
        population_size=args.ga_population,
        max_iterations=args.ga_iterations,
        stagnation_limit=stagnation,
    )
    return ExperimentConfig(scale=scale, m=args.procs, seed=args.seed), ga_params


def _run_faults(args: argparse.Namespace) -> str:
    from repro.experiments.fault_grid import run_fault_grid
    from repro.faults import BUILTIN_SCENARIOS, resolve_scenario

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

    config, ga_params = _grid_config(args)
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
    from repro.experiments.energy_grid import run_energy_grid

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
    config, ga_params = _grid_config(args)
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
    common = dict(
        host=args.host,
        port=args.port,
        workers=args.workers,
        ga_queue_limit=args.ga_queue_limit,
        admission_mode=args.admission,
        stream_threshold=args.stream_threshold,
        cache_bytes=int(args.cache_mb * 1024 * 1024),
    )
    if args.shards > 1:
        config = CoordinatorConfig(
            shards=args.shards,
            transport=args.transport,
            steal_margin=args.steal_margin,
            **common,
        )
        service = Coordinator(config, progress=progress)
    else:
        service = SchedulerService(ServiceConfig(**common), progress=progress)
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


@dataclass(frozen=True)
class Verb:
    """One subcommand.

    ``shared`` names options of :data:`SHARED`; ``defaults`` gives some
    of them this verb's default and ``aliases`` extra spellings.
    ``own`` lists the options only this verb takes, and ``run`` renders
    the command's output from the parsed arguments.
    """

    help: str
    run: Callable[[argparse.Namespace], str]
    shared: tuple[str, ...] = ()
    own: tuple[Option, ...] = ()
    defaults: Mapping[str, Any] = field(default_factory=dict)
    aliases: Mapping[str, tuple[str, ...]] = field(default_factory=dict)


#: The options of every verb that generates one random instance.
INSTANCE = ("seed", "tasks", "procs", "ul", "trace")
#: The options of every verb that runs an experiment preset.
PRESET = ("scale", "seed", "quiet", "trace")


def _figure(help_text: str) -> Verb:
    return Verb(
        help_text,
        _run_figure,
        PRESET + ("workers",),
        (
            _opt(
                "--uls",
                type=float,
                nargs="+",
                default=list(PAPER_ULS),
                help="uncertainty levels to sweep (default: 2 4 6 8)",
            ),
            _opt(
                "--checkpoint",
                default=None,
                help="JSONL journal of finished cells for crash recovery "
                "(default with --resume: "
                "results/checkpoints/<command>-<scale>-seed<seed>.jsonl)",
            ),
            _opt(
                "--resume",
                action="store_true",
                help="skip cells already journaled in the checkpoint; "
                "restored cells are bit-identical to recomputed ones",
            ),
        ),
        defaults={"seed": None},
        aliases={"workers": ("--jobs",)},
    )


VERBS: dict[str, Verb] = {
    "fig2": _figure("GA evolution, minimizing makespan (Sec. 5.1)"),
    "fig3": _figure("GA evolution, maximizing slack (Sec. 5.1)"),
    "fig4": _figure("improvement over HEFT at eps = 1.0 (Sec. 5.2)"),
    "fig5": _figure("R1 improvement vs eps (Sec. 5.2)"),
    "fig6": _figure("R2 improvement vs eps (Sec. 5.2)"),
    "fig7": _figure("best eps for overall performance, R1 (Sec. 5.2)"),
    "fig8": _figure("best eps for overall performance, R2 (Sec. 5.2)"),
    "solve": Verb(
        "solve one random instance end-to-end",
        _run_solve,
        INSTANCE + ("epsilon", "realizations"),
    ),
    "compare": Verb(
        "run every scheduler on one instance and compare",
        _run_compare,
        INSTANCE + ("realizations",),
    ),
    "gantt": Verb(
        "render a schedule as an ASCII Gantt chart",
        _run_gantt,
        INSTANCE + ("epsilon",),
        (
            _opt(
                "--scheduler",
                choices=("heft", "cpop", "peft", "minmin", "robust"),
                default="robust",
                help="which scheduler's result to draw",
            ),
            _opt("--width", type=int, default=78, help="chart width"),
        ),
        defaults={"epsilon": 1.2},
    ),
    "pareto": Verb(
        "approximate the makespan/slack Pareto front with NSGA-II",
        _run_pareto,
        INSTANCE,
        (_opt("--iterations", type=int, default=150, help="NSGA-II generations"),),
    ),
    "export": Verb(
        "generate an instance and write it (and its HEFT schedule)",
        _run_export,
        INSTANCE,
        (
            _opt("--out", default="instance.json", help="output problem JSON path"),
            _opt("--dot", default=None, help="also write the task graph as DOT here"),
        ),
    ),
    "zoo": Verb(
        "compare the whole scheduler zoo over the instance pool",
        _run_zoo,
        PRESET,
        (
            _opt(
                "--zoo-ul",
                type=float,
                default=4.0,
                help="uncertainty level for the zoo",
            ),
            _opt(
                "--no-dynamic",
                action="store_true",
                help="skip the (slow) online-MCT dynamic baseline",
            ),
        ),
        defaults={"seed": None},
    ),
    "sensitivity": Verb(
        "sweep a generator parameter and report the eps=1.0 gain",
        _run_sensitivity,
        PRESET,
        (
            _opt("--parameter", choices=("ccr", "alpha", "m"), default="ccr"),
            _opt("--values", type=float, nargs="+", default=[0.1, 0.5, 1.0]),
            _opt(
                "--sens-ul", type=float, default=4.0, help="fixed uncertainty level"
            ),
        ),
        defaults={"seed": None},
    ),
    "faults": Verb(
        "assess schedulers under injected fault scenarios (see docs/faults.md)",
        _run_faults,
        INSTANCE
        + ("epsilon", "realizations", "instances", "workers", "quiet")
        + ("ga_iterations", "ga_population"),
        (
            _opt(
                "--scenario",
                action="append",
                default=None,
                metavar="NAME_OR_PATH",
                help="builtin scenario name or a JSON/YAML spec path; "
                "repeatable (default: every builtin; see --list-scenarios)",
            ),
            _opt(
                "--policies",
                nargs="+",
                choices=("rerun-static", "repair", "dynamic"),
                default=["rerun-static", "repair", "dynamic"],
                help="reactive policies to grid over (default: all three)",
            ),
            _opt(
                "--list-scenarios",
                action="store_true",
                help="print the builtin scenario library and exit",
            ),
        ),
        defaults={"epsilon": 1.4, "realizations": 200},
    ),
    "energy": Verb(
        "energy/replication frontier study: HEFT vs robust GA vs energy GA "
        "(see docs/energy.md)",
        _run_energy,
        INSTANCE
        + ("realizations", "instances", "workers", "quiet")
        + ("ga_iterations", "ga_population"),
        (
            _opt(
                "--epsilons",
                type=float,
                nargs="+",
                default=[1.0, 1.3, 1.6],
                help="makespan budgets as multiples of M_HEFT "
                "(default: 1.0 1.3 1.6)",
            ),
            _opt(
                "--slack-ratio",
                type=float,
                default=0.5,
                help="reliability floor R as a fraction of HEFT's average "
                "slack (default: 0.5; must be <= 1 so HEFT keeps every cell "
                "feasible)",
            ),
            _opt(
                "--power",
                choices=("default", "uniform", "null"),
                default="default",
                help="power model: 'default' heterogeneous with DVFS levels, "
                "'uniform' identical processors, 'null' zero power "
                "(degenerates to the paper's slack GA; default: default)",
            ),
            _opt(
                "--k",
                type=int,
                default=1,
                help="permanent processor failures the replication plan must "
                "tolerate (0 skips replication; default: 1)",
            ),
            _opt(
                "--deadline-factor",
                type=float,
                default=4.0,
                help="replication deadline as a multiple of M_HEFT (default: 4)",
            ),
            _opt(
                "--replication-realizations",
                type=_positive_int,
                default=10,
                help="realizations per failure subset in survival "
                "verification (default: 10)",
            ),
        ),
        defaults={"realizations": 200},
    ),
    "algo-grid": Verb(
        "sweep the component-algebra scheduler catalogue across graph "
        "families (see docs/algorithms.md)",
        _run_algo_grid,
        INSTANCE + ("instances", "realizations", "workers", "quiet"),
        (
            _opt(
                "--combos",
                nargs="+",
                default=None,
                metavar="NAME",
                help="catalogue combinations to sweep (default: all; "
                "see --list-combos)",
            ),
            _opt(
                "--families",
                nargs="+",
                default=list(ALGO_FAMILIES),
                choices=ALGO_FAMILIES,
                help="graph families to draw instances from (default: all)",
            ),
            _opt(
                "--rank-by",
                choices=("makespan", "r1", "r2"),
                default="makespan",
                help="ranking criterion for the summary table "
                "(default: makespan)",
            ),
            _opt(
                "--list-combos",
                action="store_true",
                help="print the scheduler catalogue and exit",
            ),
        ),
        defaults={"instances": 3, "realizations": 200},
    ),
    "stream": Verb(
        "run a streaming oversubscribed workload with shedding policies "
        "(see docs/stream.md)",
        _run_stream,
        ("seed", "tasks", "procs", "ul", "workers", "quiet", "trace"),
        (
            _opt(
                "--stream-jobs",
                type=_positive_int,
                default=40,
                help="DAG jobs in the arrival stream (default: 40)",
            ),
            _opt(
                "--load",
                type=float,
                default=1.5,
                help="offered load relative to capacity; >1 oversubscribes "
                "(default: 1.5)",
            ),
            _opt(
                "--arrival",
                choices=("poisson", "mmpp"),
                default="poisson",
                help="arrival process (mmpp = two-state bursty)",
            ),
            _opt(
                "--burstiness",
                type=float,
                default=4.0,
                help="mmpp fast/slow rate ratio (default: 4)",
            ),
            _opt(
                "--deadline-factor",
                type=float,
                default=3.0,
                help="deadline = arrival + factor x isolated expected makespan",
            ),
            _opt(
                "--policy",
                choices=("none", "prune", "drop"),
                default="none",
                help="shedding policy for a single run (default: none)",
            ),
            _opt(
                "--grid",
                action="store_true",
                help="sweep the policy x load grid through repro.cluster "
                "instead of one run (see --loads/--policies/--workers)",
            ),
            _opt(
                "--loads",
                type=float,
                nargs="+",
                default=None,
                help="grid load levels (default: 0.5 1.0 1.5 2.0)",
            ),
            _opt(
                "--policies",
                nargs="+",
                choices=("none", "prune", "drop"),
                default=None,
                help="grid policies (default: all three)",
            ),
        ),
        defaults={"seed": 0, "tasks": 24},
    ),
    "serve": Verb(
        "run the scheduler service daemon (see docs/service.md)",
        _run_serve,
        ("host", "port", "workers", "quiet", "trace"),
        (
            _opt(
                "--ga-queue-limit",
                type=int,
                default=8,
                help="GA requests allowed to wait; the excess is shed to the "
                "degraded heuristic tier (default: 8)",
            ),
            _opt(
                "--admission",
                choices=("tiered", "stream"),
                default="tiered",
                help="GA admission mode: 'tiered' sheds on the EWMA wait "
                "point estimate, 'stream' on the probabilistic on-time-start "
                "test (default: tiered; see docs/stream.md)",
            ),
            _opt(
                "--stream-threshold",
                type=float,
                default=0.5,
                help="stream admission: shed GA requests whose on-time start "
                "probability is below this (default: 0.5)",
            ),
            _opt(
                "--cache-mb",
                type=float,
                default=64.0,
                help="result cache budget in MiB (default: 64)",
            ),
            _opt(
                "--shards",
                type=_positive_int,
                default=1,
                help="scheduler-worker shards; >1 runs the sharded deployment "
                "(a coordinator consistent-hashes requests across the "
                "shards; default: 1, the classic single-node daemon)",
            ),
            _opt(
                "--transport",
                choices=("inproc", "tcp"),
                default="tcp",
                help="shard transport when --shards > 1: 'tcp' forks one OS "
                "process per shard (real parallelism), 'inproc' keeps them "
                "in the coordinator's event loop (default: tcp)",
            ),
            _opt(
                "--steal-margin",
                type=_positive_int,
                default=1,
                help="sharded only: GA backlog difference before work "
                "stealing kicks in (default: 1)",
            ),
        ),
    ),
    "submit": Verb(
        "send one request to a running scheduler service",
        _run_submit,
        ("host", "port", "seed", "tasks", "procs", "ul", "epsilon")
        + ("realizations", "ga_iterations", "ga_population"),
        (
            _opt(
                "--op",
                choices=("solve", "status", "ping", "shutdown"),
                default="solve",
                help="request to send (default: solve)",
            ),
            _opt(
                "--problem",
                default=None,
                help="problem JSON file ('repro export' output); omitted: "
                "generate an instance from --seed/--tasks/--procs/--ul",
            ),
            _opt(
                "--solver",
                choices=SOLVERS,
                default="ga",
                help="which solver to request (every non-GA name is "
                "fast-tier, including the component-algebra catalogue; see "
                "docs/algorithms.md)",
            ),
            _opt(
                "--deadline",
                type=float,
                default=None,
                help="queue-wait deadline in seconds; a GA request predicted "
                "to wait longer is shed to the heuristic tier",
            ),
            _opt(
                "--ga-stagnation",
                type=_positive_int,
                default=None,
                help="override GAParams.stagnation_limit for this request",
            ),
            _opt(
                "--warm-start",
                action=argparse.BooleanOptionalAction,
                default=True,
                help="allow the server to seed a GA solve from previously "
                "solved near-match problems (default: on; --no-warm-start "
                "disables)",
            ),
            _opt(
                "--retry-s",
                type=float,
                default=5.0,
                help="keep retrying the connection this long (default: 5)",
            ),
            _opt(
                "--json",
                action="store_true",
                help="print the raw response JSON instead of a summary",
            ),
        ),
        defaults={"ga_iterations": None, "ga_population": None},
    ),
    "trace-summary": Verb(
        "render a human-readable summary of a --trace JSONL file",
        _run_trace_summary,
        own=(
            _opt("path", help="trace file written by --trace"),
            _opt(
                "--top",
                type=_positive_int,
                default=5,
                help="histograms to show in full (default: 5)",
            ),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser from :data:`SHARED` and :data:`VERBS`."""
    parser = argparse.ArgumentParser(
        prog="repro-sched",
        description=(
            "Reproduce 'Robust task scheduling in non-deterministic "
            "heterogeneous computing systems' (CLUSTER 2006)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, verb in VERBS.items():
        p = sub.add_parser(name, help=verb.help)
        for key in verb.shared:
            flags, kwargs = SHARED[key]
            if key in verb.defaults:
                kwargs = {**kwargs, "default": verb.defaults[key]}
            p.add_argument(*flags, *verb.aliases.get(key, ()), **kwargs)
        for flags, kwargs in verb.own:
            p.add_argument(*flags, **kwargs)
        p.set_defaults(handler=verb.run)
    return parser


def run(argv: Sequence[str] | None = None) -> str:
    """Execute the CLI and return the rendered output (testing hook)."""
    args = build_parser().parse_args(argv)
    trace_path = getattr(args, "trace", None)
    if trace_path is None:
        return args.handler(args)

    from repro.obs import runtime as obs
    from repro.obs.sinks import JsonlSink

    obs.enable(JsonlSink(trace_path))
    try:
        with obs.trace(f"cli.{args.command}"):
            return args.handler(args)
    finally:
        obs.disable()


def main(argv: Sequence[str] | None = None) -> int:
    """Console entry point."""
    print(run(argv))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
