"""The repository's benchmark: four workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper-cell --seed 1 --seconds 40 --trace 0

``--trace 0`` measures the named workload with tracing off and reports
the end-to-end metrics.  ``--trace 1`` makes an untraced and a traced
pass of every workload and reports the per-layer metrics, each named
after its workload, so that every traced run reports the whole table.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

See ``perfbench/README.md`` for the workloads and the metric map.
"""

import time

_STARTED = time.perf_counter()  # setup_s counts every import below

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import benchlib  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    "paper-cell": "paper_cell",
    "service-mix": "service_mix",
    "stream-overload": "stream_overload",
    "fault-replay": "fault_replay",
}

#: End-to-end metrics, reported by every workload with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
)

#: Per-layer metrics of each workload: (name, unit, better, the
#: end-to-end metric it should move, or "" for an output or a check of
#: the run).  The reported name is "<workload>.<name>".
PER_LAYER = {
    "paper-cell": (
        ("experiments.runner_ms", "ms", "lower", "throughput_per_s"),
        ("graph.make_problem_ms", "ms", "lower", "throughput_per_s"),
        ("heuristics.heft_ms", "ms", "lower", "throughput_per_s"),
        ("core.robust_ms", "ms", "lower", "throughput_per_s"),
        ("ga.init_ms", "ms", "lower", "throughput_per_s"),
        ("ga.generation_ms", "ms", "lower", "throughput_per_s"),
        ("ga.generations", "count", "lower", "throughput_per_s"),
        ("robustness.assess_ms", "ms", "lower", "throughput_per_s"),
        ("robustness.realize_ms", "ms", "lower", "throughput_per_s"),
        ("schedule.batch_makespans_ms", "ms", "lower", "throughput_per_s"),
        ("r1_gain", "ratio", "higher", ""),
    ),
    "service-mix": (
        ("latency_p90_ms", "ms", "lower", ""),
        ("cached_p50_ms", "ms", "lower", ""),
        ("degraded_frac", "ratio", "lower", ""),
        ("service.rtt_ms.heft_cold", "ms", "lower", "latency_p50_ms"),
        ("service.rtt_ms.cached", "ms", "lower", "latency_p50_ms"),
        ("service.rtt_ms.ga_cold", "ms", "lower", "latency_p50_ms"),
        ("service.coordinator_ms", "ms", "lower", "latency_p50_ms"),
        ("service.transport_ms", "ms", "lower", "latency_p50_ms"),
        ("service.shard_ms", "ms", "lower", "latency_p50_ms"),
        ("ga.init_ms", "ms", "lower", "latency_p50_ms"),
        ("ga.generation_ms", "ms", "lower", "latency_p50_ms"),
        ("service.cache_hit_ratio", "ratio", "higher", "latency_p50_ms"),
        ("service.coalesced", "count", "higher", "latency_p50_ms"),
        ("service.shed", "count", "lower", "latency_p50_ms"),
        ("service.routing.stolen", "count", "lower", "latency_p50_ms"),
        ("service.warm_start_hits", "count", "higher", "latency_p50_ms"),
        ("bench.send_lag_ms", "ms", "lower", ""),
    ),
    "stream-overload": (
        ("stream.run_ms.none", "ms", "lower", "throughput_per_s"),
        ("stream.run_ms.prune", "ms", "lower", "throughput_per_s"),
        ("stream.run_ms.drop", "ms", "lower", "throughput_per_s"),
        ("stream.dispatch_us.p50", "us", "lower", "throughput_per_s"),
        ("stream.dispatch_us.p90", "us", "lower", "throughput_per_s"),
        ("stream.decisions", "count", "lower", "throughput_per_s"),
        ("stream.shed_jobs", "count", "lower", "throughput_per_s"),
        ("stream.goodput", "work/t", "higher", ""),
        ("stream.on_time_rate", "ratio", "higher", ""),
        ("stream.build_workload_s", "s", "lower", "setup_s"),
    ),
    "fault-replay": (
        ("faults.ms_per_realization.rerun-static", "ms", "lower", "throughput_per_s"),
        ("faults.ms_per_realization.repair", "ms", "lower", "throughput_per_s"),
        ("faults.ms_per_realization.dynamic", "ms", "lower", "throughput_per_s"),
        ("faults.ms_per_realization.tail", "ms", "lower", "throughput_per_s"),
        ("faults.redispatches", "count", "lower", "throughput_per_s"),
        ("faults.miss_rate", "ratio", "lower", ""),
        ("faults.schedule_build_s", "s", "lower", "setup_s"),
    ),
}

#: Reported by every workload's traced pass.
COMMON_LAYER = (
    ("obs.overhead_frac", "ratio", "lower", ""),
    ("bench.unattributed_frac", "ratio", "lower", ""),
)

#: The environment, reported once per traced run.
ENV_METRICS = (
    ("env.nproc", "count", "higher", ""),
    ("env.native", "bool", "higher", ""),
    ("env.openmp", "bool", "higher", ""),
    ("env.omp_threads", "count", "higher", ""),
)

#: Set-up is timed in this many fresh processes; the median is reported.
SETUP_PROBES = 3


def per_layer_metrics() -> list[tuple[str, str, str, str]]:
    """Every per-layer metric: (reported name, unit, better, moves)."""
    out = [
        (f"{workload}.{name}", unit, better, moves)
        for workload, layers in PER_LAYER.items()
        for name, unit, better, moves in layers + COMMON_LAYER
    ]
    return out + list(ENV_METRICS)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_environment() -> None:
    """Keep every file the run writes inside the checkout; pin threads.

    The native kernel compiles into the system temp directory, so the
    temp directory moves under ``.bench_build``.  OpenMP gets at most
    ``nproc`` threads.  Child processes inherit both.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro sources under {src}")
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["OMP_NUM_THREADS"] = str(nproc())
    sys.path.insert(0, str(src))


def environment() -> dict:
    """The settings a comparison between two runs depends on.

    Loading the native kernel here compiles it on a fresh checkout, so
    no timed region, set-up probes included, pays for the compiler.
    """
    import numpy

    from repro.experiments.config import ExperimentConfig
    from repro.graph import _native

    native = _native.get_lib() is not None
    openmp = native and _native.has_openmp()
    population = ExperimentConfig().ga_params().population_size
    return {
        "nproc": nproc(),
        "native": native,
        "openmp": openmp,
        # repro.ga.popeval runs min(population, cpu_count) OpenMP threads.
        "omp_threads": min(population, os.cpu_count() or 1) if openmp else 1,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def probe_setup(args) -> float:
    """Set-up seconds of the workload, measured in a fresh process."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--probe-setup",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def end_to_end(args) -> tuple[bool, int, int, dict, list]:
    """The untraced measurement of one workload, set-up probes interleaved."""
    setup_times: list[float] = []
    probes = [lambda: setup_times.append(probe_setup(args))] * SETUP_PROBES
    workload = importlib.import_module(WORKLOADS[args.workload])
    state = workload.setup(args.seed, args.seconds)
    try:
        outcome = workload.measure(state, args.seconds, probes)
    finally:
        workload.close(state)
    samples = outcome.samples
    metrics = {
        "setup_s": (benchlib.median(setup_times), "s"),
        "throughput_per_s": (outcome.throughput, "1/s"),
        "latency_p50_ms": (outcome.latency * 1e3, "ms"),
    }
    rows = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    rows += [(name, value, unit, "") for name, value, unit in outcome.table]
    rows.append(("failed_frac", outcome.failed / outcome.attempted, "ratio", ""))
    rows.append(("timed_units", len(samples), "count", ""))
    tail = benchlib.tail_percentile(len(samples))
    if tail is not None and tail > 50:
        rows.append((f"latency_p{tail:g}_ms", benchlib.percentile(samples, tail) * 1e3, "ms", ""))
    correct = outcome.failed == 0
    return correct, outcome.attempted, outcome.failed, metrics, rows


def per_layer(args, env: dict) -> tuple[bool, int, int, dict, list]:
    """An untraced and a traced pass of every workload."""
    values: dict[str, float] = {
        "env.nproc": env["nproc"],
        "env.native": int(env["native"]),
        "env.openmp": int(env["openmp"]),
        "env.omp_threads": env["omp_threads"],
    }
    attempted = failed = 0
    # The service's two passes each drive a quarter of --seconds of requests.
    for name, module in WORKLOADS.items():
        workload = importlib.import_module(module)
        state = workload.setup(args.seed, args.seconds / 4)
        try:
            layers = workload.layers(state)
        finally:
            workload.close(state)
        attempted += layers.attempted
        failed += layers.failed
        values.update({f"{name}.{key}": value for key, value in layers.values.items()})
    metrics, rows = {}, []
    for name, unit, _, moves in per_layer_metrics():
        metrics[name] = (float(values[name]), unit)
        rows.append((name, metrics[name][0], unit, moves))
    return failed == 0, attempted, failed, metrics, rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    pin_environment()

    if args.probe_setup:
        workload = importlib.import_module(WORKLOADS[args.workload])
        state = workload.setup(args.seed, args.seconds)
        elapsed = time.perf_counter() - _STARTED
        workload.close(state)
        print(json.dumps({"setup_s": elapsed}))
        return 0

    env = environment()
    if args.trace == 0:
        correct, attempted, failed, metrics, rows = end_to_end(args)
    else:
        correct, attempted, failed, metrics, rows = per_layer(args, env)

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env {json.dumps(env, sort_keys=True)}")
    if env["omp_threads"] > env["nproc"]:
        print(f"# warning: {env['omp_threads']} OpenMP threads on {env['nproc']} cpus")
    for name, value, unit, moves in rows:
        print(f"  {name:<56} {value:>14.6g} {unit:<6} {moves}".rstrip())
    print(benchlib.result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
