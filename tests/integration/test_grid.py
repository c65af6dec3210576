"""Every experiment grid: the same results for any worker count, and
seed streams that never collide across grids."""

import dataclasses
import math

import numpy as np
import pytest

from repro.experiments import (
    ExperimentConfig,
    run_algo_grid,
    run_energy_grid,
    run_eps_grid,
    run_fault_grid,
    run_slack_effect,
    run_stream_grid,
)
from repro.experiments.config import Scale
from repro.faults import resolve_scenario
from repro.ga.engine import GAParams
from repro.stream import StreamParams

_SCALE = Scale(
    name="grid-test",
    n_graphs=2,
    n_realizations=12,
    n_tasks=10,
    ga_max_iterations=6,
    ga_stagnation=3,
)
_CONFIG = ExperimentConfig(scale=_SCALE, m=3, seed=5)
_GA = GAParams(population_size=8, max_iterations=6, stagnation_limit=3)
_SCENARIOS = (resolve_scenario("proc-failure"), resolve_scenario("heavy-tail"))

#: Each public grid driver at a small size, as ``run(n_jobs) -> results``.
GRIDS = {
    "eps_grid": lambda n: run_eps_grid(_CONFIG, (2.0,), (1.0, 1.5), n_jobs=n),
    "slack_effect": lambda n: run_slack_effect(
        _CONFIG, "makespan", uls=(2.0,), n_steps=3, n_jobs=n
    ),
    "fault_grid": lambda n: run_fault_grid(
        _CONFIG, _SCENARIOS, mean_ul=2.0, ga_params=_GA, n_jobs=n
    ),
    "energy_grid": lambda n: run_energy_grid(
        _CONFIG,
        epsilons=(1.0, 1.4),
        mean_ul=2.0,
        replication_realizations=3,
        ga_params=_GA,
        n_jobs=n,
    ),
    "stream_grid": lambda n: run_stream_grid(
        StreamParams(n_jobs=8, tasks=8, m=2, load=2.0, seed=11),
        loads=(1.0, 2.0),
        policies=("prune", "drop"),
        n_jobs=n,
    ),
    "algo_grid": lambda n: run_algo_grid(
        seed=99,
        combos=("heft", "cpop", "minmin"),
        families=("layered", "fft"),
        n_instances=1,
        n_tasks=10,
        m=3,
        n_realizations=12,
        n_jobs=n,
    ),
}


def _same(a, b) -> bool:
    """Recursive bit-equality; NaN equals NaN, arrays compare elementwise."""
    if type(a) is not type(b):
        return False
    if dataclasses.is_dataclass(a):
        return all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(
            a, b, equal_nan=a.dtype.kind in "fc"
        )
    if isinstance(a, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    return a == b


@pytest.mark.parametrize("grid", sorted(GRIDS))
def test_serial_equals_two_workers(grid):
    run = GRIDS[grid]
    assert _same(run(1), run(2))


def test_same_tells_apart_what_differs():
    a = run_eps_grid(_CONFIG, (2.0,), (1.0,))
    b = run_eps_grid(dataclasses.replace(_CONFIG, seed=6), (2.0,), (1.0,))
    assert _same(a, a) and not _same(a, b)
    assert _same([1.0, float("nan")], [1.0, float("nan")])
    assert not _same(np.zeros(2), np.zeros(3))


def test_no_two_grids_draw_the_same_stream(monkeypatch):
    """One cell each of three grids built on the same instance: apart from
    the shared instance streams (roles 0-2), no spawn key is built twice."""
    built: list[tuple] = []

    class Spy(np.random.SeedSequence):
        def __init__(self, entropy=None, *, spawn_key=(), pool_size=4):
            built.append((entropy, tuple(spawn_key)))
            super().__init__(entropy, spawn_key=spawn_key, pool_size=pool_size)

    monkeypatch.setattr(np.random, "SeedSequence", Spy)
    config = dataclasses.replace(
        _CONFIG, scale=dataclasses.replace(_SCALE, n_graphs=1)
    )
    runs = {
        "eps_grid": lambda: run_eps_grid(config, (2.0,), (1.0,)),
        "slack_effect": lambda: run_slack_effect(
            config, "makespan", uls=(2.0,), n_steps=2
        ),
        "fault_grid": lambda: run_fault_grid(
            config,
            _SCENARIOS[1:],
            mean_ul=2.0,
            strategies=(("robust-ga", "rerun-static"),),
            ga_params=_GA,
        ),
    }
    keys: dict[str, set] = {}
    for name, run in runs.items():
        built.clear()
        run()
        keys[name] = {k for k in built if k[1] and k[1][0] not in (0, 1, 2)}
        assert keys[name], f"{name} built no stream of its own"
    names = sorted(keys)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            assert not keys[a] & keys[b], (a, b, sorted(keys[a] & keys[b]))
