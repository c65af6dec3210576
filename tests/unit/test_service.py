"""Unit tests for repro.service: protocol, cache, admission, solvers."""

import json

import pytest

from repro.io import problem_fingerprint, problem_to_dict, report_from_dict
from repro.service import (
    PROTOCOL_VERSION,
    AdmissionController,
    ProtocolError,
    ResultCache,
    cache_key,
    execute_payload,
)
from repro.service.protocol import (
    decode,
    encode,
    error_response,
    normalize_request,
    ok_response,
)
from repro.service.solvers import solve_params


def _solve_request(problem, **overrides):
    message = {
        "op": "solve",
        "problem": problem_to_dict(problem),
        "solver": "heft",
        "seed": 1,
        "n_realizations": 50,
    }
    message.update(overrides)
    return normalize_request(message)


class TestProtocol:
    def test_encode_decode_roundtrip(self):
        message = {"op": "ping", "id": 7}
        assert decode(encode(message)) == message

    def test_encode_is_single_line(self):
        line = encode({"a": "x\ny", "b": [1, 2]})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_decode_rejects_garbage(self):
        with pytest.raises(ProtocolError) as err:
            decode(b"{not json")
        assert err.value.code == "bad-json"

    def test_decode_rejects_non_object(self):
        with pytest.raises(ProtocolError) as err:
            decode(b"[1, 2]")
        assert err.value.code == "bad-json"

    def test_unknown_op(self):
        with pytest.raises(ProtocolError) as err:
            normalize_request({"op": "dance"})
        assert err.value.code == "unknown-op"

    def test_solve_requires_problem(self):
        with pytest.raises(ProtocolError) as err:
            normalize_request({"op": "solve"})
        assert err.value.code == "bad-request"

    def test_solve_defaults(self, small_random_problem):
        request = _solve_request(small_random_problem)
        assert request["solver"] == "heft"
        assert request["epsilon"] == 1.0
        assert request["deadline_s"] is None
        assert request["ga"] == {}

    @pytest.mark.parametrize(
        "field, value",
        [
            ("solver", "simplex"),
            ("epsilon", 0.0),
            ("epsilon", "big"),
            ("seed", 1.5),
            ("seed", True),
            ("n_realizations", 0),
            ("deadline_s", -1.0),
            ("ga", {"mutation_prob": 1}),
            ("ga", {"max_iterations": 0}),
        ],
    )
    def test_solve_rejects_bad_fields(self, small_random_problem, field, value):
        with pytest.raises(ProtocolError):
            _solve_request(small_random_problem, **{field: value})

    def test_responses_carry_protocol_version(self):
        assert ok_response(3)["protocol"] == PROTOCOL_VERSION
        err = error_response(3, "bad-request", "nope")
        assert err["protocol"] == PROTOCOL_VERSION
        assert err["error"]["code"] == "bad-request"
        assert not err["ok"]

    def test_responses_are_strict_json(self):
        # allow_nan=False: a response with a NaN would fail to encode.
        with pytest.raises(ValueError):
            encode(ok_response(1, value=float("nan")))


class TestResultCache:
    def test_get_put_and_counters(self):
        cache = ResultCache(max_bytes=10_000)
        assert cache.get("k") is None
        assert cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] > 0

    def test_get_returns_copy(self):
        cache = ResultCache()
        cache.put("k", {"v": 1})
        cache.get("k")["v"] = 999
        assert cache.get("k")["v"] == 1

    def test_lru_eviction_under_byte_budget(self):
        entry = {"v": "x" * 100}
        size = len(json.dumps(entry, separators=(",", ":")))
        cache = ResultCache(max_bytes=3 * size)
        for name in "abc":
            cache.put(name, entry)
        cache.get("a")  # refresh a: b is now least-recently-used
        cache.put("d", entry)
        assert cache.get("b") is None
        assert cache.get("a") is not None
        assert cache.stats()["evictions"] == 1
        assert cache.stats()["bytes"] <= cache.max_bytes

    def test_oversized_entry_not_stored(self):
        cache = ResultCache(max_bytes=10)
        assert not cache.put("k", {"v": "x" * 100})
        assert len(cache) == 0

    def test_replacement_does_not_leak_bytes(self):
        cache = ResultCache(max_bytes=10_000)
        cache.put("k", {"v": "x" * 100})
        cache.put("k", {"v": "y"})
        assert cache.stats()["bytes"] == len(json.dumps({"v": "y"}, separators=(",", ":")))

    def test_entry_size_counts_utf8_bytes_not_code_points(self):
        # Regression: sizing used len() of the dumps text — a count of
        # code points of whatever rendering json.dumps picked, not the
        # stored document's bytes.  Pin the contract instead: an entry
        # costs exactly the UTF-8 size of its canonical JSON, so a
        # multibyte problem name (3 bytes per kana below) is charged
        # more than its character count.
        payload = {"name": "グラフスケジューラ", "makespan": 12.5}
        canonical = json.dumps(
            payload, allow_nan=False, ensure_ascii=False, separators=(",", ":")
        )
        byte_size = len(canonical.encode("utf-8"))
        assert byte_size > len(canonical)  # multibyte: bytes > code points
        cache = ResultCache(max_bytes=byte_size)
        assert cache.put("k", payload)  # exactly fits the budget
        assert cache.stats()["bytes"] == byte_size
        tight = ResultCache(max_bytes=byte_size - 1)
        assert not tight.put("k", payload)  # one byte short must reject
        assert len(tight) == 0

    def test_cache_key_is_order_insensitive(self):
        a = cache_key("fp", "ga", seed=1, epsilon=1.5)
        b = cache_key("fp", "ga", epsilon=1.5, seed=1)
        assert a == b
        assert a != cache_key("fp", "ga", seed=2, epsilon=1.5)
        assert a != cache_key("fp2", "ga", seed=1, epsilon=1.5)

    def test_solve_params_split_by_tier(self, small_random_problem):
        heft = _solve_request(small_random_problem, solver="heft", epsilon=1.7)
        ga = _solve_request(small_random_problem, solver="ga", epsilon=1.7)
        # Heuristics ignore epsilon, so it must not fragment their keys...
        assert "epsilon" not in solve_params(heft)
        # ...while the GA result depends on it.
        assert solve_params(ga)["epsilon"] == 1.7

    def test_solve_params_warm_seeds_change_ga_identity(self, small_random_problem):
        ga = _solve_request(small_random_problem, solver="ga")
        seeds = [{"order": [0, 1, 2], "proc_of": [0, 0, 1]}]
        cold = solve_params(ga)
        warm = solve_params(dict(ga, warm_seeds=seeds))
        # Seeds change the GA trajectory, so they are part of the key...
        assert "warm" not in cold
        assert warm.pop("warm")
        assert warm == cold
        # ...but the on/off flag alone is not: requests resolved without
        # seeds share the pre-warm-start key layout.
        assert solve_params(dict(ga, warm_start=False)) == cold
        assert solve_params(dict(ga, warm_seeds=[])) == cold

    def test_warm_start_flag_normalized(self, small_random_problem):
        request = _solve_request(small_random_problem, solver="ga")
        assert request["warm_start"] is True
        off = _solve_request(
            small_random_problem, solver="ga", warm_start=False
        )
        assert off["warm_start"] is False
        with pytest.raises(ProtocolError) as err:
            _solve_request(small_random_problem, warm_start="yes")
        assert err.value.code == "bad-request"

    def test_warm_seeds_pass_through_normalization(self, small_random_problem):
        # The coordinator re-normalizes requests when forwarding to a
        # shard; injected seed chromosomes must survive the round trip.
        seeds = [{"order": [0, 1], "proc_of": [0, 0]}]
        request = _solve_request(
            small_random_problem, solver="ga", warm_seeds=seeds
        )
        assert request["warm_seeds"] == seeds
        assert "warm_seeds" not in _solve_request(small_random_problem)
        with pytest.raises(ProtocolError) as err:
            _solve_request(small_random_problem, warm_seeds=[{"order": [0]}])
        assert err.value.code == "bad-request"
        with pytest.raises(ProtocolError):
            _solve_request(small_random_problem, warm_seeds="nope")


class TestAdmissionController:
    def test_fast_tier_always_admitted(self):
        admission = AdmissionController(ga_queue_limit=0, ga_workers=1)
        decision = admission.route("heft", ga_inflight=100)
        assert decision.tier == "fast"
        assert admission.stats()["admitted_fast"] == 1

    def test_ga_admitted_while_queue_has_room(self):
        admission = AdmissionController(ga_queue_limit=2, ga_workers=1)
        # inflight 0..2 -> queued 0..1 -> admitted; inflight 3 -> queued 2 -> shed
        for inflight in range(3):
            assert admission.route("ga", inflight).tier == "ga"
        decision = admission.route("ga", 3)
        assert decision.tier == "shed"
        assert "queue full" in decision.reason
        stats = admission.stats()
        assert stats["admitted_ga"] == 3
        assert stats["shed"] == 1
        assert stats["shed_queue_full"] == 1

    def test_zero_depth_queues_nothing(self):
        admission = AdmissionController(ga_queue_limit=0, ga_workers=2)
        assert admission.route("ga", 1).tier == "ga"  # free slot
        assert admission.route("ga", 2).tier == "shed"  # slots busy

    def test_deadline_shed_uses_ewma(self):
        admission = AdmissionController(ga_queue_limit=100, ga_workers=1)
        # No history: the deadline cannot be evaluated, depth rules alone.
        assert admission.route("ga", 5, deadline_s=0.001).tier == "ga"
        admission.observe_ga_seconds(10.0)
        decision = admission.route("ga", 5, deadline_s=1.0)
        assert decision.tier == "shed"
        assert "deadline" in decision.reason
        assert admission.stats()["shed_deadline"] == 1
        # A patient client is still admitted at the same depth.
        assert admission.route("ga", 5, deadline_s=1000.0).tier == "ga"

    def test_ewma_converges(self):
        admission = AdmissionController(ewma_alpha=0.5)
        admission.observe_ga_seconds(4.0)
        admission.observe_ga_seconds(2.0)
        assert admission.ga_seconds_ewma == pytest.approx(3.0)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            AdmissionController(ga_queue_limit=-1)
        with pytest.raises(ValueError):
            AdmissionController(ga_workers=0)
        with pytest.raises(ValueError, match="admission mode"):
            AdmissionController(mode="psychic")
        with pytest.raises(ValueError, match="stream_threshold"):
            AdmissionController(mode="stream", stream_threshold=1.5)


class FakeClock:
    """Injectable monotonic clock for the inter-arrival estimator."""

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> float:
        self.now += dt
        return self.now

    def __call__(self) -> float:
        return self.now


class TestStreamAdmission:
    """The probabilistic admission mode (see repro.service.admission)."""

    def _controller(self, **kwargs):
        kwargs.setdefault("ga_queue_limit", 100)
        kwargs.setdefault("mode", "stream")
        return AdmissionController(**kwargs)

    def test_no_history_falls_back_to_depth_bound(self):
        admission = self._controller()
        assert admission.route("ga", 50, deadline_s=1e-9).tier == "ga"

    def test_start_probability_normal_model(self):
        admission = self._controller(ewma_alpha=0.5)
        # Two observations: ewma = 3, West's var = 0.5 * (0 + 0.5*4) = 1.
        admission.observe_ga_seconds(4.0)
        admission.observe_ga_seconds(2.0)
        assert admission.ga_seconds_ewma == pytest.approx(3.0)
        assert admission.ga_seconds_var == pytest.approx(1.0)
        # Behind 1 queued job: wait ~ N(3, 1); P(wait <= 3) = 0.5.
        assert admission.start_probability(1, 3.0) == pytest.approx(0.5)
        assert admission.start_probability(1, 5.0) > 0.97
        assert admission.start_probability(1, 1.0) < 0.03
        # No deadline or no history -> no test.
        assert admission.start_probability(1, None) is None
        assert AdmissionController(mode="stream").start_probability(1, 5.0) is None

    def test_zero_variance_degenerates_to_step(self):
        admission = self._controller()
        admission.observe_ga_seconds(2.0)  # single sample: var == 0
        assert admission.start_probability(2, 5.0) == 1.0
        assert admission.start_probability(2, 3.0) == 0.0

    def test_sheds_on_low_start_probability(self):
        admission = self._controller(stream_threshold=0.5)
        admission.observe_ga_seconds(10.0)
        decision = admission.route("ga", 5, deadline_s=1.0)
        assert decision.tier == "shed"
        assert "probability" in decision.reason
        stats = admission.stats()
        assert stats["shed_probability"] == 1
        assert stats["shed_deadline"] == 0
        # A patient client is admitted at the same depth.
        assert admission.route("ga", 5, deadline_s=1000.0).tier == "ga"

    def test_uncertainty_sheds_what_tiered_mode_admits(self):
        """The point of stream mode: variance prices the coin flip."""

        def primed(mode):
            admission = AdmissionController(
                ga_queue_limit=100,
                mode=mode,
                ewma_alpha=0.5,
                stream_threshold=0.6,
            )
            for x in (1.0, 9.0, 1.0, 9.0, 1.0, 9.0):
                admission.observe_ga_seconds(x)
            return admission

        tiered, stream = primed("tiered"), primed("stream")
        assert stream.ga_seconds_var > 0.0
        # Mean wait fits the deadline, so the point estimate admits...
        deadline = tiered.predicted_wait_s(4) * 1.05
        assert tiered.route("ga", 4 + 1, deadline_s=deadline).tier == "ga"
        # ...but success is barely better than a coin flip (~0.56),
        # below the configured 0.6 bar: uncertainty is priced in.
        assert stream.route("ga", 4 + 1, deadline_s=deadline).tier == "shed"

    def test_shed_xor_enqueued_partition(self):
        """Every route() lands in exactly one tier counter — both modes.

        This is the invariant the module docstring pins: a shed request
        is a terminal rewrite, never also enqueued, so the three
        counters always sum to the number of route calls.
        """
        for mode in ("tiered", "stream"):
            admission = AdmissionController(
                ga_queue_limit=2, mode=mode, stream_threshold=0.5
            )
            admission.observe_ga_seconds(10.0)
            admission.observe_ga_seconds(1.0)
            routed = 0
            for solver in ("heft", "ga", "ga", "cpop", "ga", "ga", "ga"):
                for inflight in (0, 2, 5):
                    for deadline_s in (None, 1e-6, 1e6):
                        decision = admission.route(
                            solver, inflight, deadline_s=deadline_s
                        )
                        routed += 1
                        assert decision.tier in ("fast", "ga", "shed")
                        # Never both shed and enqueued: a single tier.
                        if decision.tier == "shed":
                            assert decision.reason
            stats = admission.stats()
            assert (
                stats["admitted_fast"] + stats["admitted_ga"] + stats["shed"]
                == routed
            )
            assert (
                stats["shed_queue_full"]
                + stats["shed_deadline"]
                + stats["shed_probability"]
                == stats["shed"]
            )

    def test_stream_load_estimate(self):
        clock = FakeClock()
        admission = AdmissionController(
            ga_queue_limit=100, ga_workers=2, mode="stream", clock=clock
        )
        assert admission.stream_load() is None
        admission.route("ga", 0)
        clock.advance(2.0)
        admission.route("ga", 0)
        admission.observe_ga_seconds(8.0)
        # service 8s / (interarrival 2s * 2 workers) = 2x oversubscribed.
        assert admission.stream_load() == pytest.approx(2.0)
        assert admission.stats()["stream_load"] == pytest.approx(2.0)

    def test_stats_expose_the_mode(self):
        stats = self._controller(stream_threshold=0.25).stats()
        assert stats["mode"] == "stream"
        assert stats["stream_threshold"] == 0.25
        assert AdmissionController().stats()["mode"] == "tiered"

    def test_service_config_validates_admission_fields(self):
        from repro.service import ServiceConfig

        assert ServiceConfig(admission_mode="stream").stream_threshold == 0.5
        with pytest.raises(ValueError, match="admission mode"):
            ServiceConfig(admission_mode="psychic")
        with pytest.raises(ValueError, match="stream_threshold"):
            ServiceConfig(stream_threshold=-0.1)

    @pytest.mark.parametrize("config", ["ServiceConfig", "CoordinatorConfig"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("workers", 0),
            ("fast_threads", 0),
            ("stream_threshold", 1.5),
            ("max_line_bytes", 10),
            ("ga_queue_limit", -1),
            ("cache_bytes", -5),
            ("admission_mode", "psychic"),
        ],
    )
    def test_configs_reject_bad_fields_when_built(self, config, field, value):
        import repro.service

        with pytest.raises(ValueError, match=field.replace("_mode", " mode")):
            getattr(repro.service, config)(**{field: value})


class TestExecutePayload:
    def test_heuristic_matches_direct_api(self, small_random_problem):
        from repro.heuristics import HeftScheduler
        from repro.io import schedule_to_dict
        from repro.robustness.montecarlo import assess_robustness

        request = _solve_request(small_random_problem, seed=11)
        result = execute_payload(request)
        schedule = HeftScheduler().schedule(small_random_problem)
        assert result["schedule"] == schedule_to_dict(schedule)
        direct = assess_robustness(schedule, 50, rng=12)
        restored = report_from_dict(result["report"])
        assert restored.r1 == direct.r1
        assert restored.mean_makespan == direct.mean_makespan

    def test_ga_matches_direct_api(self, small_random_problem):
        from repro.core.robust import RobustScheduler
        from repro.ga.engine import GAParams
        from repro.io import schedule_to_dict

        ga = {"max_iterations": 5, "stagnation_limit": 3}
        request = _solve_request(
            small_random_problem, solver="ga", seed=4, epsilon=1.3, ga=ga
        )
        result = execute_payload(request)
        direct = RobustScheduler(
            epsilon=1.3, params=GAParams(**ga), rng=4
        ).solve(small_random_problem)
        assert result["schedule"] == schedule_to_dict(direct.schedule)
        assert result["m_heft"] == direct.m_heft
        assert result["ga_generations"] == direct.ga_result.generations

    def test_ga_with_a_huge_iteration_cap_answers(self, small_random_problem):
        """The wire accepts any positive ``ga.max_iterations``; a run
        that stops on stagnation allocates nothing for its cap."""
        ga = {"max_iterations": 10**11, "stagnation_limit": 5}
        request = _solve_request(
            small_random_problem, solver="ga", seed=4, epsilon=1.3, ga=ga
        )
        result = execute_payload(request)
        assert 5 <= result["ga_generations"] < 10**11

    def test_result_is_json_and_reproducible(self, small_random_problem):
        request = _solve_request(small_random_problem, seed=2)
        a = execute_payload(request)
        b = execute_payload(request)
        assert a == b
        json.dumps(a, allow_nan=False)  # cacheable strict JSON

    def test_fingerprint_checked(self, small_random_problem):
        request = _solve_request(small_random_problem)
        request["problem"]["uncertainty"]["ul"][0][0] += 1.0
        with pytest.raises(ValueError, match="fingerprint"):
            execute_payload(request)

    def test_fingerprint_public_helper(self, small_random_problem):
        payload = problem_to_dict(small_random_problem)
        assert payload["fingerprint"] == problem_fingerprint(small_random_problem)
