"""End-to-end service tests: concurrency, caching, overload shedding.

These drive a real :class:`SchedulerService` over localhost TCP —
the server's event loop runs on a background thread, clients are
plain blocking sockets on worker threads, exactly the production
shape (just in one process so the tests can also read server state).
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.problem import SchedulingProblem
from repro.core.robust import RobustScheduler
from repro.ga.engine import GAParams
from repro.graph.generator import DagParams
from repro.heuristics import HeftScheduler
from repro.io import problem_to_dict, report_to_dict, schedule_to_dict
from repro.platform.uncertainty import UncertaintyParams
from repro.robustness.montecarlo import assess_robustness
from repro.service import SchedulerService, ServiceClient, ServiceConfig

N_REAL = 100
GA_SMALL = {"max_iterations": 10, "stagnation_limit": 5}


def _problem(seed: int = 7, n: int = 30) -> SchedulingProblem:
    return SchedulingProblem.random(
        m=3,
        dag_params=DagParams(n=n),
        uncertainty_params=UncertaintyParams(mean_ul=4.0),
        rng=seed,
    )


class ServiceHarness:
    """A live server on a background thread; ``port`` after start."""

    def __init__(self, **config) -> None:
        self.service = SchedulerService(ServiceConfig(port=0, **config))
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        async def main() -> None:
            await self.service.start()
            self._ready.set()
            await self.service._shutdown_event.wait()
            await asyncio.sleep(0.05)
            await self.service.aclose()

        asyncio.run(main())

    def __enter__(self) -> "ServiceHarness":
        self._thread.start()
        assert self._ready.wait(timeout=30), "server did not start"
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            with self.client() as client:
                client.shutdown()
        except OSError:
            pass
        self._thread.join(timeout=30)

    @property
    def port(self) -> int:
        return self.service.port

    def client(self) -> ServiceClient:
        return ServiceClient("127.0.0.1", self.port, retry_s=5.0)


class TestServiceEndToEnd:
    def test_twenty_concurrent_clients_share_one_cache_entry(self):
        problem = _problem()
        with ServiceHarness(workers=1, ga_queue_limit=2) as harness:

            def one_client(i: int) -> dict:
                with harness.client() as client:
                    return client.solve(
                        problem,
                        solver="heft",
                        seed=5,
                        n_realizations=N_REAL,
                        request_id=i,
                    )

            with ThreadPoolExecutor(max_workers=20) as pool:
                first = list(pool.map(one_client, range(20)))
                second = list(pool.map(one_client, range(20, 40)))

            assert all(r["ok"] for r in first + second)
            # Identical content regardless of cache/coalesce path.
            reports = {r["report"]["r1"] for r in first + second}
            assert len(reports) == 1
            assert {r["id"] for r in first} == set(range(20))
            # One computation total: everything else was a cache hit or
            # rode the in-flight future (micro-batching).
            computed = [
                r for r in first + second if not r["cached"] and not r["coalesced"]
            ]
            assert len(computed) == 1
            with harness.client() as client:
                status = client.status()
            cache = status["cache"]
            assert cache["entries"] == 1
            assert cache["hits"] >= 20  # the whole second round, at least
            # Every request does exactly one lookup; of the misses, all
            # but the single computing request coalesced onto its future.
            assert cache["hits"] + cache["misses"] == 40
            assert cache["misses"] == status["requests"]["coalesced"] + 1

    def test_ga_overload_sheds_to_degraded_heuristic(self, ga_gate):
        problem = _problem(n=30)
        n_requests = 12
        with ServiceHarness(workers=1, ga_queue_limit=2) as harness:

            def one_ga(seed: int) -> dict:
                with harness.client() as client:
                    return client.solve(
                        problem,
                        solver="ga",
                        epsilon=1.3,
                        seed=seed,
                        n_realizations=N_REAL,
                        ga=GA_SMALL,
                    )

            with ThreadPoolExecutor(max_workers=n_requests) as pool:
                # The admitted solves stay in flight until every shed
                # request has been answered.
                with ga_gate.holding():
                    futures = [pool.submit(one_ga, s) for s in range(n_requests)]
                    ga_gate.wait_for(
                        lambda: sum(f.done() for f in futures) >= n_requests - 3
                    )
                responses = [f.result() for f in futures]

            # Overload degrades, never errors: every response is a schedule.
            assert all(r["ok"] for r in responses)
            degraded = [r for r in responses if r["degraded"]]
            served = [r for r in responses if not r["degraded"]]
            # 1 running + 2 queued can be served as GA; the rest shed.
            assert len(served) <= 3
            assert len(degraded) >= n_requests - 3
            heft_report = report_to_dict(
                assess_robustness(
                    HeftScheduler().schedule(problem), N_REAL, rng=1
                )
            )
            for r in degraded:
                assert r["solver"] == "heft"
                assert r["requested_solver"] == "ga"
                assert "queue" in r["degraded_reason"]
                # The degraded answer is the real HEFT result (seed 0's
                # assessment stream is seed+1) — valid, just less robust.
                if r["seed"] == 0:
                    assert r["report"] == heft_report
            with harness.client() as client:
                status = client.status()
            assert status["admission"]["shed_queue_full"] == len(degraded)
            assert status["requests"]["degraded"] == len(degraded)

    def test_bit_identical_to_direct_api(self):
        problem = _problem(seed=3, n=25)
        with ServiceHarness(workers=1, ga_queue_limit=2) as harness:
            with harness.client() as client:
                ga = client.solve(
                    problem,
                    solver="ga",
                    epsilon=1.2,
                    seed=9,
                    n_realizations=N_REAL,
                    ga=GA_SMALL,
                )
                heft = client.solve(
                    problem, solver="heft", seed=9, n_realizations=N_REAL
                )
        direct = RobustScheduler(
            epsilon=1.2, params=GAParams(**GA_SMALL), rng=9
        ).solve(problem)
        assert ga["schedule"] == schedule_to_dict(direct.schedule)
        assert ga["report"] == report_to_dict(
            assess_robustness(direct.schedule, N_REAL, rng=10)
        )
        assert ga["m_heft"] == direct.m_heft
        heft_schedule = HeftScheduler().schedule(problem)
        assert heft["schedule"] == schedule_to_dict(heft_schedule)
        assert heft["report"] == report_to_dict(
            assess_robustness(heft_schedule, N_REAL, rng=10)
        )

    def test_cluster_pool_backend_matches_serial(self):
        problem = _problem(seed=5, n=20)

        def solve_with(workers: int) -> dict:
            with ServiceHarness(workers=workers, ga_queue_limit=4) as harness:
                with harness.client() as client:
                    return client.solve(
                        problem,
                        solver="ga",
                        epsilon=1.2,
                        seed=2,
                        n_realizations=N_REAL,
                        ga=GA_SMALL,
                    )

        serial = solve_with(1)
        pooled = solve_with(2)
        assert serial["schedule"] == pooled["schedule"]
        assert serial["report"] == pooled["report"]

    def test_deadline_aware_shedding(self, ga_gate):
        problem = _problem(seed=11, n=30)
        with ServiceHarness(workers=1, ga_queue_limit=8) as harness:
            with harness.client() as client:
                # Prime the service-time estimator with one completed solve.
                client.solve(
                    problem, solver="ga", epsilon=1.2, seed=1,
                    n_realizations=N_REAL, ga=GA_SMALL,
                )

                def occupy(seed: int) -> dict:
                    with harness.client() as c2:
                        return c2.solve(
                            problem, solver="ga", epsilon=1.2, seed=seed,
                            n_realizations=N_REAL, ga=GA_SMALL,
                        )

                with ThreadPoolExecutor(max_workers=2) as pool:
                    with ga_gate.holding():
                        busy = [pool.submit(occupy, s) for s in (2, 3)]
                        # Wait until the slot and the queue are occupied.
                        ga_gate.wait_for(
                            lambda: harness.service._ga_inflight >= 2
                        )
                        impatient = client.solve(
                            problem, solver="ga", epsilon=1.2, seed=4,
                            n_realizations=N_REAL, ga=GA_SMALL,
                            deadline_s=1e-6,
                        )
                    for f in busy:
                        assert f.result()["ok"]
            assert impatient["ok"]
            assert impatient["degraded"]
            assert "deadline" in impatient["degraded_reason"]

    def test_stream_admission_sheds_without_enqueueing(self, ga_gate):
        """Stream mode: a shed request is served inline, never queued.

        Mirrors the deadline test under ``admission_mode="stream"`` —
        the shed reason is the probabilistic one, the shed request does
        not consume a GA admission, and the tier counters partition the
        routed requests (the invariant pinned in repro.service.admission).
        """
        problem = _problem(seed=12, n=30)
        with ServiceHarness(
            workers=1, ga_queue_limit=8, admission_mode="stream",
            stream_threshold=0.5,
        ) as harness:
            with harness.client() as client:
                client.solve(
                    problem, solver="ga", epsilon=1.2, seed=1,
                    n_realizations=N_REAL, ga=GA_SMALL,
                )

                def occupy(seed: int) -> dict:
                    with harness.client() as c2:
                        return c2.solve(
                            problem, solver="ga", epsilon=1.2, seed=seed,
                            n_realizations=N_REAL, ga=GA_SMALL,
                        )

                with ThreadPoolExecutor(max_workers=2) as pool:
                    with ga_gate.holding():
                        busy = [pool.submit(occupy, s) for s in (2, 3)]
                        ga_gate.wait_for(
                            lambda: harness.service._ga_inflight >= 2
                        )
                        before = client.status()["admission"]
                        impatient = client.solve(
                            problem, solver="ga", epsilon=1.2, seed=4,
                            n_realizations=N_REAL, ga=GA_SMALL,
                            deadline_s=1e-6,
                        )
                        after = client.status()["admission"]
                    for f in busy:
                        assert f.result()["ok"]
                status = client.status()
            assert impatient["ok"]
            assert impatient["degraded"]
            assert "probability" in impatient["degraded_reason"]
            # Shed, not enqueued: the GA admission count did not move.
            assert after["admitted_ga"] == before["admitted_ga"]
            assert after["shed_probability"] == before["shed_probability"] + 1
            admission = status["admission"]
            assert admission["mode"] == "stream"
            assert admission["shed"] >= 1
            assert admission["admitted_ga"] == 3  # primer + the two busy

    def test_malformed_requests_get_error_responses(self):
        with ServiceHarness(workers=1) as harness:
            with harness.client() as client:
                response = client.request({"op": "solve"})
                assert not response["ok"]
                assert response["error"]["code"] == "bad-request"
                response = client.request({"op": "warp"})
                assert response["error"]["code"] == "unknown-op"
                response = client.request(
                    {"op": "solve", "problem": {"format": "nope"}}
                )
                assert response["error"]["code"] == "bad-problem"
                # A task count past the matrices' rows is rejected before
                # it sizes anything (10**12 tasks would be a MemoryError).
                payload = problem_to_dict(_problem(seed=3, n=10))
                payload["graph"]["n"] = 10**12
                response = client.request(
                    {"op": "solve", "problem": payload, "solver": "heft"}
                )
                assert response["error"]["code"] == "bad-problem"
                assert "covers 10 tasks" in response["error"]["message"]
                # The connection survives all of it.
                assert client.ping()


class TestDecodesPerRequest:
    """A single node decodes a solve's problem once: ``_solve``'s decode
    is the one the solver runs on, on the fast pool and on the GA tier."""

    def test_cold_heft_solve_decodes_once(self, decodes):
        with ServiceHarness(workers=1) as harness:
            with harness.client() as client:
                response = client.solve(
                    _problem(seed=31, n=12), solver="heft", seed=1,
                    n_realizations=N_REAL,
                )
        assert not response["cached"]
        assert decodes[0] == 1

    def test_cold_ga_solve_decodes_once(self, decodes):
        with ServiceHarness(workers=1) as harness:
            with harness.client() as client:
                response = client.solve(
                    _problem(seed=32, n=12), solver="ga", epsilon=1.2,
                    seed=1, n_realizations=N_REAL, ga=GA_SMALL,
                )
        assert response["solver"] == "ga" and not response["degraded"]
        assert decodes[0] == 1


@pytest.mark.parametrize("solver", ["cpop", "peft", "minmin"])
def test_every_fast_solver_served(solver):
    problem = _problem(seed=13, n=15)
    with ServiceHarness(workers=1) as harness:
        with harness.client() as client:
            response = client.solve(
                problem, solver=solver, seed=3, n_realizations=50
            )
    assert response["ok"]
    assert response["solver"] == solver
    assert not response["degraded"]


class TestWarmStart:
    """The structural warm-start store, exercised over the wire."""

    def test_repeat_traffic_is_seeded(self):
        problem = _problem(seed=21, n=20)
        with ServiceHarness(workers=1) as harness:
            with harness.client() as client:
                first = client.solve(
                    problem, solver="ga", epsilon=1.2, seed=1,
                    n_realizations=50, ga=GA_SMALL,
                )
                # The first GA solve finds an empty store...
                assert first["warm_seeds"] == 0
                # ...but feeds it, so a re-solve with a new seed (a result
                # cache miss) starts from the recorded best chromosome.
                second = client.solve(
                    problem, solver="ga", epsilon=1.2, seed=2,
                    n_realizations=50, ga=GA_SMALL,
                )
                assert not second["cached"]
                assert second["warm_seeds"] >= 1

                status = client.status()
                assert status["requests"]["warm_start_hits"] >= 1
                assert status["requests"]["warm_start_misses"] >= 1
                assert status["warm_start"]["entries"] >= 1
                assert status["warm_start"]["recorded"] >= 1

    def test_warm_start_false_is_never_seeded(self):
        problem = _problem(seed=22, n=20)
        with ServiceHarness(workers=1) as harness:
            with harness.client() as client:
                for seed in (1, 2):
                    response = client.solve(
                        problem, solver="ga", epsilon=1.2, seed=seed,
                        n_realizations=50, ga=GA_SMALL, warm_start=False,
                    )
                    assert response["warm_seeds"] == 0
                status = client.status()
                assert status["requests"]["warm_start_hits"] == 0
                # Opting out of suggestions still feeds the store for
                # other clients.
                assert status["warm_start"]["recorded"] >= 1

    def test_warm_responses_deterministic_across_servers(self):
        """Identical traffic against two fresh servers: identical answers.

        The warm-start store is server-side state, but suggestions are a
        deterministic function of the traffic that filled it, and seeds
        ride the request payload before the cache key forms — so two
        independent servers replaying the same request sequence must
        produce bit-identical warm-started responses.
        """
        problem = _problem(seed=23, n=20)

        def replay() -> dict:
            with ServiceHarness(workers=1) as harness:
                with harness.client() as client:
                    client.solve(
                        problem, solver="ga", epsilon=1.2, seed=1,
                        n_realizations=50, ga=GA_SMALL,
                    )
                    return client.solve(
                        problem, solver="ga", epsilon=1.2, seed=2,
                        n_realizations=50, ga=GA_SMALL,
                    )

        first, second = replay(), replay()
        assert first["warm_seeds"] >= 1
        assert first["warm_seeds"] == second["warm_seeds"]
        assert first["schedule"] == second["schedule"]
        assert first["report"] == second["report"]
        assert first["ga_generations"] == second["ga_generations"]

    def test_cli_submit_warm_start_flag_round_trip(self):
        """``repro submit --warm-start/--no-warm-start`` over a live server."""
        from repro.cli import run

        with ServiceHarness(workers=1) as harness:
            base = [
                "submit", "--port", str(harness.port), "--tasks", "15",
                "--seed", "5", "--solver", "ga", "--epsilon", "1.2",
                "--realizations", "50", "--ga-iterations", "8",
                "--ga-stagnation", "4",
            ]
            first = run(base)
            assert "warm-started" not in first
            # Re-submitting finds the store primed; the seeds change the
            # cache identity, so this recomputes rather than hitting the
            # cache, and the summary says so.
            second = run(base)
            assert "warm-started" in second
            assert "cached" not in second
            # Opting out reproduces the first request exactly — including
            # its cache entry.
            third = run(base + ["--no-warm-start"])
            assert "warm-started" not in third
            assert "cached" in third

    def test_heuristics_bypass_the_store(self):
        problem = _problem(seed=24, n=15)
        with ServiceHarness(workers=1) as harness:
            with harness.client() as client:
                response = client.solve(
                    problem, solver="heft", seed=1, n_realizations=50
                )
                assert response["warm_seeds"] == 0
                status = client.status()
                assert status["requests"]["warm_start_hits"] == 0
                assert status["requests"]["warm_start_misses"] == 0
                assert status["warm_start"]["entries"] == 0


class TestServiceEdges:
    """Service-edge regressions: oversized lines and broken clients."""

    def test_over_limit_request_line_gets_clean_error(self):
        # Regression: StreamReader.readline wraps LimitOverrunError in a
        # plain ValueError, which used to escape the read loop and drop
        # the connection with no response.  The server must answer with
        # a bad-request error naming the limit, then close.
        with ServiceHarness(workers=1, max_line_bytes=4096) as harness:
            with harness.client() as client:
                client._file.write(b'{"pad": "' + b"x" * 8192 + b'"}\n')
                client._file.flush()
                response = client.request({"op": "ping"})
                assert not response["ok"]
                assert response["error"]["code"] == "bad-request"
                assert "4096" in response["error"]["message"]
                # The connection is closed afterwards (unrecoverable
                # mid-frame); a fresh one works normally.
                with pytest.raises((ConnectionError, OSError)):
                    client.request({"op": "ping"})
            with harness.client() as client:
                assert client.ping()

    def test_within_limit_large_line_still_served(self):
        problem = _problem(seed=31, n=25)
        with ServiceHarness(workers=1, max_line_bytes=1024 * 1024) as harness:
            with harness.client() as client:
                response = client.solve(
                    problem, solver="heft", seed=1, n_realizations=50
                )
                assert response["ok"]

    def test_timed_out_client_fails_fast_instead_of_desyncing(self, ga_gate):
        # Regression: after a socket timeout the late response stayed in
        # the stream and was read as the answer to the *next* request.
        # The client must mark the connection broken and refuse reuse.
        problem = _problem(seed=32, n=30)
        with ServiceHarness(workers=1) as harness:
            client = ServiceClient(
                "127.0.0.1", harness.port, timeout=0.05, retry_s=5.0
            )
            # The solve is held past the client's timeout.
            with ga_gate.holding():
                try:
                    with pytest.raises(OSError):  # socket.timeout is OSError
                        client.solve(
                            problem,
                            solver="ga",
                            epsilon=1.2,
                            seed=3,
                            ga=GA_SMALL,
                            n_realizations=N_REAL,
                        )
                    with pytest.raises(ConnectionError, match="broken"):
                        client.ping()
                    with pytest.raises(ConnectionError, match="broken"):
                        client.status()
                finally:
                    client.close()  # must not raise
            # close() stays idempotent and exception-safe.
            client.close()

    def test_close_is_exception_safe_after_server_gone(self):
        # BrokenPipeError out of close() used to mask the original
        # exception in `with` blocks unwinding a failure.
        with ServiceHarness(workers=1) as harness:
            client = harness.client()
            assert client.ping()
        # Harness exit shut the server down; stuff the buffer so close()
        # has pending bytes to flush into a dead socket.
        client._file.write(b'{"op": "ping"}\n')
        client.close()  # swallows the transport error
        client.close()
