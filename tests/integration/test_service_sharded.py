"""End-to-end tests of the sharded service: routing, parity, chaos.

The deployment contract under test: a coordinator plus N shards is
observationally identical to the single-node daemon — same wire
protocol, bit-identical response content — while adding deterministic
fingerprint routing, GA work stealing, a replicated cache tier that
survives shard death, and supervised shard restart with zero failed
client requests.
"""

from __future__ import annotations

import asyncio
import os
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

from repro.core.problem import SchedulingProblem
from repro.graph.generator import DagParams
from repro.io import problem_fingerprint, problem_to_dict
from repro.platform.uncertainty import UncertaintyParams
from repro.service import (
    Coordinator,
    CoordinatorConfig,
    SchedulerService,
    ServiceClient,
    ServiceConfig,
)
from repro.service.sharding import HashRing

N_REAL = 100
GA_SMALL = {"max_iterations": 10, "stagnation_limit": 5}

#: Fields legitimately differing between two runs of the same request.
VOLATILE = {"elapsed_s"}


def _problem(seed: int = 7, n: int = 20) -> SchedulingProblem:
    return SchedulingProblem.random(
        m=3,
        dag_params=DagParams(n=n),
        uncertainty_params=UncertaintyParams(mean_ul=4.0),
        rng=seed,
    )


def _core(response: dict) -> dict:
    return {k: v for k, v in response.items() if k not in VOLATILE}


class CoordinatorHarness:
    """A live coordinator on a background thread; ``port`` after start."""

    def __init__(self, **config) -> None:
        self.coordinator = Coordinator(CoordinatorConfig(port=0, **config))
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            await self.coordinator.start()
            self._ready.set()
            await self.coordinator._shutdown_event.wait()
            await asyncio.sleep(0.05)
            await self.coordinator.aclose()

        asyncio.run(main())

    def __enter__(self) -> "CoordinatorHarness":
        self._thread.start()
        assert self._ready.wait(timeout=60), "coordinator did not start"
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            with self.client() as client:
                client.shutdown()
        except OSError:
            pass
        self._thread.join(timeout=60)

    @property
    def port(self) -> int:
        return self.coordinator.port

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, retry_s=5.0)


def _drive(client: ServiceClient, problems) -> list[dict]:
    """The mixed request sequence both deployments must answer alike."""
    responses = []
    for i, problem in enumerate(problems):
        responses.append(
            client.solve(
                problem,
                solver="ga",
                epsilon=1.2,
                seed=7,
                ga=GA_SMALL,
                n_realizations=N_REAL,
                request_id=f"ga-{i}",
            )
        )
        responses.append(
            client.solve(
                problem,
                solver="heft",
                seed=7,
                n_realizations=N_REAL,
                request_id=f"heft-{i}",
            )
        )
    # Repeats: cache hits and warm-start interplay must match too.
    responses.append(
        client.solve(
            problems[0],
            solver="ga",
            epsilon=1.2,
            seed=7,
            ga=GA_SMALL,
            n_realizations=N_REAL,
            request_id="repeat",
        )
    )
    return responses


class TestShardedParity:
    def test_four_shards_bit_identical_to_single_node(self):
        problems = [_problem(seed=s, n=15) for s in range(3)]

        single_service = SchedulerService(ServiceConfig(port=0))
        single: list[dict] = []

        def run_single() -> None:
            async def main() -> None:
                await single_service.start()
                loop = asyncio.get_running_loop()

                def work() -> list[dict]:
                    with ServiceClient(
                        "127.0.0.1", single_service.port, retry_s=5.0
                    ) as client:
                        return _drive(client, problems)

                single.extend(await loop.run_in_executor(None, work))
                await single_service.aclose()

            asyncio.run(main())

        run_single()

        with CoordinatorHarness(shards=4, transport="inproc") as harness:
            with harness.client() as client:
                sharded = _drive(client, problems)
                status = client.status()

        assert len(single) == len(sharded)
        for expect, got in zip(single, sharded):
            assert _core(expect) == _core(got)
        # The shards really did the solving (routing happened).
        routed = sum(s["routed"] for s in status["shards"])
        assert routed >= len(problems) * 2
        assert status["server"]["role"] == "coordinator"

    def test_each_process_decodes_once(self, decodes):
        """A cold solve decodes in the coordinator and in the shard, which
        hands its decode to the solver; a coordinator cache hit decodes
        once."""
        problem = _problem(seed=17, n=12)
        with CoordinatorHarness(shards=2, transport="inproc") as harness:
            with harness.client() as client:
                cold = client.solve(
                    problem, solver="heft", seed=2, n_realizations=N_REAL
                )
                cold_decodes = decodes[0]
                repeat = client.solve(
                    problem, solver="heft", seed=2, n_realizations=N_REAL
                )
        assert not cold["cached"] and repeat["cached"]
        assert cold_decodes == 2
        assert decodes[0] - cold_decodes == 1

    def test_shard_count_does_not_change_responses(self):
        problem = _problem(seed=11, n=15)
        cores = []
        for shards in (1, 3):
            with CoordinatorHarness(shards=shards, transport="inproc") as h:
                with h.client() as client:
                    cores.append(
                        _core(
                            client.solve(
                                problem,
                                solver="ga",
                                epsilon=1.2,
                                seed=5,
                                ga=GA_SMALL,
                                n_realizations=N_REAL,
                            )
                        )
                    )
        assert cores[0] == cores[1]


class TestRouting:
    def test_same_fingerprint_always_same_shard(self):
        problem = _problem(seed=17, n=12)
        with CoordinatorHarness(shards=4, transport="inproc") as harness:
            with harness.client() as client:
                # Distinct seeds defeat the caches; warm_start=False
                # defeats seed injection — every request is dispatched.
                for seed in range(6):
                    client.solve(
                        problem,
                        solver="heft",
                        seed=seed,
                        n_realizations=50,
                        warm_start=False,
                    )
                status = client.status()
        homes = [s for s in status["shards"] if s["routed"] > 0]
        assert len(homes) == 1  # one fingerprint, one home shard
        assert homes[0]["routed"] == 6
        assert status["routing"]["home"] == 6
        assert status["routing"]["stolen"] == 0

    def test_routing_matches_the_public_ring(self):
        # The coordinator must route exactly where HashRing says, so
        # operators can predict placement from fingerprints alone.
        problems = [_problem(seed=s, n=12) for s in range(4)]
        node_ids = [f"shard-{i}" for i in range(4)]
        ring = HashRing(node_ids)
        with CoordinatorHarness(shards=4, transport="inproc") as harness:
            with harness.client() as client:
                for problem in problems:
                    client.solve(
                        problem,
                        solver="heft",
                        seed=1,
                        n_realizations=50,
                        warm_start=False,
                    )
                status = client.status()
        expected: dict[str, int] = {}
        for problem in problems:
            home = ring.node_for(problem_fingerprint(problem))
            expected[home] = expected.get(home, 0) + 1
        observed = {
            s["node_id"]: s["routed"]
            for s in status["shards"]
            if s["routed"] > 0
        }
        assert observed == expected

    def test_deep_ga_backlog_is_stolen(self, ga_gate):
        node_ids = [f"shard-{i}" for i in range(2)]
        ring = HashRing(node_ids)
        # Problems all homed on one shard: without stealing they would
        # serialize behind each other there.
        target = ring.node_for(problem_fingerprint(_problem(seed=0, n=12)))
        problems, seed = [], 0
        while len(problems) < 3:
            candidate = _problem(seed=seed, n=12)
            if ring.node_for(problem_fingerprint(candidate)) == target:
                problems.append(candidate)
            seed += 1
        with CoordinatorHarness(
            shards=2, transport="inproc", ga_queue_limit=64
        ) as harness:

            def solve(problem):
                with harness.client() as client:
                    return client.solve(
                        problem,
                        solver="ga",
                        epsilon=1.2,
                        seed=3,
                        ga=GA_SMALL,
                        n_realizations=50,
                        warm_start=False,
                    )

            shards = harness.coordinator._shards.values()
            with ThreadPoolExecutor(3) as pool:
                # Every solve stays in flight until all three are routed.
                with ga_gate.holding():
                    futures = [pool.submit(solve, p) for p in problems]
                    ga_gate.wait_for(
                        lambda: sum(h.ga_inflight for h in shards) >= 3
                    )
                results = [f.result() for f in futures]
            with harness.client() as client:
                status = client.status()
        assert all(r["ok"] and not r["degraded"] for r in results)
        assert status["routing"]["stolen"] >= 1
        stolen_to = [
            s for s in status["shards"] if s["node_id"] != target
        ]
        assert sum(s["routed"] for s in stolen_to) >= 1


class TestCoordinatorPipeline:
    """The coordinator relays a shard's shed and coalesces in-flight
    twins, as the single node does."""

    GA = dict(solver="ga", epsilon=1.2, seed=3, ga=GA_SMALL, n_realizations=50)

    def test_relays_a_shard_shed_exactly_once(self, ga_gate):
        busy, shed = _problem(seed=41, n=12), _problem(seed=42, n=12)
        with CoordinatorHarness(
            shards=1, transport="inproc", workers=1, ga_queue_limit=0
        ) as harness:
            shard = harness.coordinator._shards["shard-0"].service

            def solve_busy():
                with harness.client() as client:
                    return client.solve(busy, **self.GA)

            with ThreadPoolExecutor(1) as pool:
                # The shard's one GA slot is held, and its queue is empty.
                with ga_gate.holding():
                    first = pool.submit(solve_busy)
                    ga_gate.wait_for(lambda: shard._ga_inflight >= 1)
                    with harness.client() as client:
                        degraded = client.solve(shed, warm_start=False, **self.GA)
                        during = client.status()
                assert first.result()["ok"]
            with harness.client() as client:
                again = client.solve(shed, warm_start=False, **self.GA)
                after = client.status()
        assert degraded["degraded"] and not degraded["cached"]
        assert degraded["requested_solver"] == "ga"
        assert degraded["solver"] == "heft"
        assert "queue" in degraded["degraded_reason"]
        assert during["requests"]["degraded"] == 1
        # A relayed shed is never written through under the GA key.
        assert again["solver"] == "ga"
        assert not again["degraded"] and not again["cached"]
        assert after["requests"]["degraded"] == 1

    def test_coalesces_identical_inflight_requests(self, ga_gate):
        problem = _problem(seed=43, n=12)
        with CoordinatorHarness(shards=2, transport="inproc") as harness:

            def solve():
                with harness.client() as client:
                    return client.solve(problem, warm_start=False, **self.GA)

            with ThreadPoolExecutor(2) as pool:
                with ga_gate.holding():
                    futures = [pool.submit(solve) for _ in range(2)]
                    ga_gate.wait_for(
                        lambda: harness.coordinator.counters["coalesced"] >= 1
                    )
                results = [f.result() for f in futures]
            with harness.client() as client:
                status = client.status()
        routing = status["routing"]
        assert routing["home"] + routing["stolen"] + routing["failover"] == 1
        assert sorted(r["coalesced"] for r in results) == [False, True]
        assert status["requests"]["coalesced"] == 1
        first, second = (
            {k: v for k, v in _core(r).items() if k != "coalesced"}
            for r in results
        )
        assert first == second


class TestChaos:
    def test_kill_one_shard_zero_failed_requests(self, ga_gate):
        problems = [_problem(seed=s, n=25) for s in range(8)]
        cache_probe = dict(
            solver="ga",
            epsilon=1.2,
            seed=9,
            ga=GA_SMALL,
            n_realizations=50,
            warm_start=False,
        )
        with CoordinatorHarness(
            shards=2, transport="tcp", ga_queue_limit=64, max_restarts=3
        ) as harness:
            with harness.client() as client:
                # Seed the replicated cache before the murder.
                probe = client.solve(problems[0], **cache_probe)
                assert not probe["cached"]
                victim = client.status()["shards"][0]

                def solve(i: int) -> dict:
                    with harness.client() as c:
                        return c.solve(
                            problems[i],
                            solver="ga",
                            epsilon=1.2,
                            seed=7,
                            ga=GA_SMALL,
                            n_realizations=N_REAL,
                            request_id=f"chaos-{i}",
                        )

                shards = harness.coordinator._shards.values()
                with ThreadPoolExecutor(8) as pool:
                    # The shards were forked with the gate installed, so
                    # every solve is still in flight when the victim dies.
                    with ga_gate.holding():
                        futures = [pool.submit(solve, i) for i in range(8)]
                        ga_gate.wait_for(
                            lambda: sum(h.ga_inflight for h in shards) >= 8
                        )
                        os.kill(victim["pid"], signal.SIGKILL)
                    results = [f.result(timeout=180) for f in futures]

                # The headline guarantee: every client request succeeds.
                assert all(r.get("ok") for r in results)
                assert [r["id"] for r in results] == [
                    f"chaos-{i}" for i in range(8)
                ]

                # The replicated cache tier answers for the dead shard.
                hit = client.solve(problems[0], **cache_probe)
                assert hit["cached"]
                assert _core(hit) == _core(dict(probe, cached=True))

                # Supervision respawned the victim under a new pid.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    status = client.status()
                    replacement = next(
                        s
                        for s in status["shards"]
                        if s["node_id"] == victim["node_id"]
                    )
                    if replacement["alive"] and replacement["pid"] != victim["pid"]:
                        break
                    time.sleep(0.2)
                assert replacement["alive"]
                assert replacement["pid"] != victim["pid"]
                assert replacement["restarts"] == 1
                assert status["routing"]["shard_restarts"] == 1

                # And the reborn shard serves traffic.
                after = client.solve(
                    problems[1], solver="heft", seed=1, n_realizations=50
                )
                assert after["ok"]
