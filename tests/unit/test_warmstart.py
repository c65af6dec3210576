"""Warm-start layer: features, store, chromosome repair, GA seeding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.problem import SchedulingProblem
from repro.core.robust import RobustScheduler
from repro.ga.chromosome import (
    Chromosome,
    random_chromosome,
    repair_chromosome,
)
from repro.ga.engine import GAParams, GeneticScheduler
from repro.ga.fitness import SlackFitness
from repro.graph.generator import DagParams
from repro.graph.topology import is_topological_order
from repro.io import N_FEATURES, feature_distance, problem_features
from repro.platform.uncertainty import UncertaintyParams
from repro.service.warmstart import WarmStartStore

from tests.conftest import make_random_problem


def _problem(seed: int, n: int = 24, m: int = 3) -> SchedulingProblem:
    return SchedulingProblem.random(
        m=m,
        dag_params=DagParams(n=n),
        uncertainty_params=UncertaintyParams(mean_ul=2.0),
        rng=seed,
    )


class TestProblemFeatures:
    def test_shape_and_determinism(self):
        problem = _problem(0)
        f1 = problem_features(problem)
        f2 = problem_features(problem)
        assert f1.shape == (N_FEATURES,)
        assert np.array_equal(f1, f2)
        assert np.all(np.isfinite(f1))

    def test_same_config_problems_are_near(self):
        base = problem_features(_problem(1))
        for seed in range(2, 7):
            dist = feature_distance(base, problem_features(_problem(seed)))
            assert dist < 2.0

    def test_different_scale_problems_are_far(self):
        small = problem_features(_problem(1, n=10, m=2))
        large = problem_features(_problem(1, n=200, m=8))
        assert feature_distance(small, large) > 2.0

    def test_single_task_no_edges(self):
        problem = make_random_problem(2, n=1, m=1)
        features = problem_features(problem)
        assert features.shape == (N_FEATURES,)
        assert np.all(np.isfinite(features))

    def test_distance_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="equal shape"):
            feature_distance(np.zeros(3), np.zeros(4))


class TestWarmStartStore:
    def _entry(self, i: int, n: int = 6):
        features = np.full(N_FEATURES, float(i) * 0.01)
        order = list(range(n))
        proc_of = [i % 2] * n
        return features, order, proc_of

    def test_record_then_suggest_nearest_first(self):
        store = WarmStartStore()
        for i in range(3):
            features, order, proc_of = self._entry(i)
            store.record(6, 2, f"fp{i}", features, order, proc_of)
        query, _, _ = self._entry(0)
        out = store.suggest(6, 2, query, k=2)
        assert [s["proc_of"][0] for s in out] == [0, 1]
        assert all(set(s) == {"order", "proc_of"} for s in out)

    def test_suggest_respects_shape_bucket(self):
        store = WarmStartStore()
        features, order, proc_of = self._entry(0)
        store.record(6, 2, "fp", features, order, proc_of)
        assert store.suggest(6, 3, features) == []
        assert store.suggest(7, 2, features) == []

    def test_suggest_gated_by_distance(self):
        store = WarmStartStore(max_distance=0.5)
        features, order, proc_of = self._entry(0)
        store.record(6, 2, "fp", features, order, proc_of)
        far = features + 1.0
        assert store.suggest(6, 2, far) == []
        assert len(store.suggest(6, 2, features)) == 1

    def test_re_record_replaces_and_does_not_grow(self):
        store = WarmStartStore()
        features, order, proc_of = self._entry(0)
        store.record(6, 2, "fp", features, order, proc_of)
        store.record(6, 2, "fp", features, order, [1] * 6)
        assert len(store) == 1
        assert store.suggest(6, 2, features)[0]["proc_of"] == [1] * 6

    def test_per_bucket_fifo_eviction(self):
        store = WarmStartStore(max_per_bucket=2)
        for i in range(3):
            features, order, proc_of = self._entry(i)
            store.record(6, 2, f"fp{i}", features, order, proc_of)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["evicted"] == 1
        # The oldest entry (fp0) is gone: the nearest match for fp0's
        # features is now fp1.
        query, _, _ = self._entry(0)
        assert store.suggest(6, 2, query, k=1)[0]["proc_of"] == [1] * 6

    def test_global_budget_evicts_largest_bucket(self):
        store = WarmStartStore(max_per_bucket=8, max_entries=3)
        for i in range(3):
            features, order, proc_of = self._entry(i)
            store.record(6, 2, f"a{i}", features, order, proc_of)
        features = np.zeros(N_FEATURES)
        store.record(8, 2, "b0", features, list(range(8)), [0] * 8)
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["buckets"] == 2
        # The (6, 2) bucket was largest; its oldest entry was evicted.
        assert len(store.suggest(8, 2, features)) == 1

    def test_suggestions_are_copies(self):
        store = WarmStartStore()
        features, order, proc_of = self._entry(0)
        store.record(6, 2, "fp", features, order, proc_of)
        out = store.suggest(6, 2, features)[0]
        out["order"][0] = 99
        assert store.suggest(6, 2, features)[0]["order"][0] == 0

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            WarmStartStore(max_per_bucket=0)
        with pytest.raises(ValueError):
            WarmStartStore(max_entries=0)
        with pytest.raises(ValueError):
            WarmStartStore(max_distance=0.0)


class TestRepairChromosome:
    def test_valid_order_passes_through_exactly(self):
        problem = _problem(3)
        rng = np.random.default_rng(0)
        for _ in range(5):
            c = random_chromosome(problem, rng)
            repaired = repair_chromosome(problem, c.order, c.proc_of)
            assert np.array_equal(repaired.order, c.order)
            assert np.array_equal(repaired.proc_of, c.proc_of)

    def test_cross_problem_transfer_is_repaired(self):
        donor = _problem(4)
        target = _problem(5)
        rng = np.random.default_rng(1)
        c = random_chromosome(donor, rng)
        repaired = repair_chromosome(target, c.order, c.proc_of)
        repaired.validate(target)
        # The repair preserves the donor's relative preferences where
        # legal: it is a permutation of the same task set.
        assert sorted(repaired.order.tolist()) == list(range(target.n))

    def test_out_of_range_processors_wrapped(self):
        problem = _problem(6, m=3)
        rng = np.random.default_rng(2)
        c = random_chromosome(problem, rng)
        big = c.proc_of + 3  # all out of range, same residues
        repaired = repair_chromosome(problem, c.order, big)
        repaired.validate(problem)
        assert np.array_equal(repaired.proc_of, c.proc_of)

    def test_reversed_order_becomes_topological(self):
        problem = _problem(7)
        rng = np.random.default_rng(3)
        c = random_chromosome(problem, rng)
        repaired = repair_chromosome(problem, c.order[::-1].copy(), c.proc_of)
        assert is_topological_order(problem.graph, repaired.order)

    def test_rejects_non_permutation(self):
        problem = _problem(8)
        with pytest.raises(ValueError):
            repair_chromosome(
                problem,
                np.zeros(problem.n, dtype=np.int64),
                np.zeros(problem.n, dtype=np.int64),
            )


class TestEngineWarmStart:
    def _params(self):
        return GAParams(max_iterations=15, stagnation_limit=10)

    def test_run_is_deterministic_given_seeds(self):
        problem = _problem(9)
        seed = random_chromosome(problem, np.random.default_rng(4))
        runs = [
            GeneticScheduler(
                SlackFitness(), self._params(), rng=5, warm_start=[seed]
            ).run(problem)
            for _ in range(2)
        ]
        assert runs[0].best_fitness == runs[1].best_fitness
        assert runs[0].history.best_fitness == runs[1].history.best_fitness
        assert runs[0].best.chromosome.key() == runs[1].best.chromosome.key()

    def test_seeds_are_injected_into_initial_population(self):
        problem = _problem(10)
        seed = random_chromosome(problem, np.random.default_rng(6))
        engine = GeneticScheduler(
            SlackFitness(), self._params(), rng=7, warm_start=[seed]
        )
        orders, procs = engine._initial_population(problem, None)
        keys = {o.tobytes() + p.tobytes() for o, p in zip(orders, procs)}
        assert seed.key() in keys
        assert len(orders) == engine.params.population_size

    def test_seed_count_capped_at_population_size(self):
        problem = _problem(11)
        rng = np.random.default_rng(8)
        seeds = [random_chromosome(problem, rng) for _ in range(40)]
        engine = GeneticScheduler(
            SlackFitness(), self._params(), rng=9, warm_start=seeds
        )
        orders, _ = engine._initial_population(problem, None)
        assert len(orders) == engine.params.population_size

    def test_duplicate_seeds_deduplicated(self):
        problem = _problem(12)
        seed = random_chromosome(problem, np.random.default_rng(10))
        engine = GeneticScheduler(
            SlackFitness(), self._params(), rng=11, warm_start=[seed, seed]
        )
        orders, procs = engine._initial_population(problem, None)
        keys = [o.tobytes() + p.tobytes() for o, p in zip(orders, procs)]
        assert keys.count(seed.key()) == 1

    def test_cross_problem_seed_cannot_corrupt_run(self):
        donor = _problem(13)
        target = _problem(14)
        seed = random_chromosome(donor, np.random.default_rng(12))
        result = GeneticScheduler(
            SlackFitness(), self._params(), rng=13, warm_start=[seed]
        ).run(target)
        result.best.chromosome.validate(target)

    def test_warm_starting_with_known_best_never_hurts(self):
        problem = _problem(15)
        cold = GeneticScheduler(SlackFitness(), self._params(), rng=16).run(
            problem
        )
        warm = GeneticScheduler(
            SlackFitness(),
            self._params(),
            rng=16,
            warm_start=[cold.best.chromosome],
        ).run(problem)
        assert warm.best_fitness >= cold.best_fitness

    def test_repeat_traffic_converges_in_fewer_generations(self):
        # Repeat traffic as the service sees it: each instance was solved
        # once, then comes back with a new seed.  Seeding the re-solve with
        # the first solve's best chromosome cuts generations-to-converge;
        # the counts are exact and the same on both kernel backends.
        params = GAParams(max_iterations=300, stagnation_limit=20)
        cold, warm = [], []
        for i in range(5):
            problem = _problem(100 + i, n=40, m=4)
            first = RobustScheduler(1.2, params, rng=1).solve(problem)
            seed = first.ga_result.best.chromosome
            cold.append(RobustScheduler(1.2, params, rng=2).solve(problem))
            warm.append(
                RobustScheduler(1.2, params, rng=2, warm_start=[seed]).solve(
                    problem
                )
            )
        assert [r.ga_result.generations for r in cold] == [24, 131, 71, 55, 70]
        assert [r.ga_result.generations for r in warm] == [20, 40, 34, 148, 20]
