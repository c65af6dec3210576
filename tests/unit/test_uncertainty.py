"""Unit tests for the uncertainty model (Sec. 5 realization machinery)."""

import numpy as np
import pytest

from repro.platform.uncertainty import (
    UncertaintyModel,
    UncertaintyParams,
    generate_ul,
)


class TestUncertaintyParams:
    def test_defaults_match_paper(self):
        p = UncertaintyParams()
        assert p.v1 == 0.5
        assert p.v2 == 0.5

    def test_rejects_ul_below_one(self):
        with pytest.raises(ValueError):
            UncertaintyParams(mean_ul=0.5)

    def test_rejects_bad_cov(self):
        with pytest.raises(ValueError):
            UncertaintyParams(mean_ul=2.0, v1=0.0)


class TestGenerateUl:
    def test_clamped_to_one(self):
        ul = generate_ul(500, 4, UncertaintyParams(mean_ul=2.0), rng=0)
        assert np.all(ul >= 1.0)

    def test_mean_roughly_tracks_target(self):
        ul = generate_ul(3000, 8, UncertaintyParams(mean_ul=6.0), rng=1)
        assert abs(ul.mean() - 6.0) / 6.0 < 0.1


class TestUncertaintyModel:
    @pytest.fixture
    def model(self):
        bcet = np.array([[2.0, 4.0], [6.0, 3.0], [5.0, 5.0]])
        ul = np.array([[2.0, 1.0], [3.0, 2.0], [1.5, 4.0]])
        return UncertaintyModel(bcet, ul)

    def test_expected_times(self, model):
        assert model.expected_times.tolist() == [
            [4.0, 4.0],
            [18.0, 6.0],
            [7.5, 20.0],
        ]

    def test_dimensions(self, model):
        assert model.n == 3
        assert model.m == 2

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            UncertaintyModel(np.ones((2, 2)), np.ones((3, 2)))

    def test_rejects_ul_below_one(self):
        with pytest.raises(ValueError, match=">= 1"):
            UncertaintyModel(np.ones((2, 2)), np.full((2, 2), 0.9))

    def test_rejects_nonpositive_bcet(self):
        with pytest.raises(ValueError):
            UncertaintyModel(np.zeros((2, 2)), np.ones((2, 2)))

    def test_deterministic_factory(self):
        times = np.array([[3.0, 4.0]])
        model = UncertaintyModel.deterministic(times)
        assert np.array_equal(model.expected_times, times)
        assert np.array_equal(model.bcet, times)
        durs = model.realize_durations(np.array([1]), 10, rng=0)
        assert np.allclose(durs, 4.0)

    def test_duration_bounds(self, model):
        low, high = model.duration_bounds(np.array([0, 1, 0]))
        assert low.tolist() == [2.0, 3.0, 5.0]
        # high = (2*UL - 1) * b
        assert high.tolist() == [6.0, 9.0, 10.0]

    def test_realize_durations_within_bounds(self, model):
        proc = np.array([0, 1, 1])
        low, high = model.duration_bounds(proc)
        durs = model.realize_durations(proc, 500, rng=2)
        assert durs.shape == (500, 3)
        assert np.all(durs >= low)
        assert np.all(durs <= high)

    def test_realized_mean_matches_expected(self, model):
        proc = np.array([0, 0, 1])
        durs = model.realize_durations(proc, 20000, rng=3)
        expected = model.expected_durations(proc)
        assert np.allclose(durs.mean(axis=0), expected, rtol=0.05)

    @pytest.mark.parametrize(
        "bit_generator",
        [
            np.random.PCG64,
            np.random.PCG64DXSM,
            np.random.MT19937,
            np.random.Philox,
            np.random.SFC64,
        ],
        ids=lambda b: b.__name__,
    )
    def test_uniform_is_generator_uniform(self, model, bit_generator):
        """``low + (high - low) * random`` is ``Generator.uniform`` bit for
        bit, and leaves the stream where ``uniform`` leaves it."""
        proc = np.array([0, 1, 1])
        low, high = model.duration_bounds(proc)
        for seed in range(20):
            ours = np.random.Generator(bit_generator(seed))
            numpys = np.random.Generator(bit_generator(seed))
            durs = model.realize_durations(proc, 37 + seed, ours)
            want = numpys.uniform(low, high, size=(37 + seed, 3))
            assert np.array_equal(durs.view(np.int64), want.view(np.int64))
            assert ours.random() == numpys.random()

    def test_non_finite_range_raises_before_drawing(self):
        """numpy's ``uniform`` error, with nothing drawn."""
        with np.errstate(over="ignore"):
            model = UncertaintyModel(
                np.array([[1e308, 1.0]]), np.array([[2.0, 2.0]])
            )
            gen = np.random.default_rng(0)
            before = gen.bit_generator.state
            with pytest.raises(OverflowError, match="Range exceeds valid bounds"):
                model.realize_durations(np.array([0]), 10, gen)
        assert gen.bit_generator.state == before
        low, span = model.uniform_support(np.array([1]))
        assert low.tolist() == [1.0] and span.tolist() == [2.0]

    def test_realize_rejects_bad_count(self, model):
        with pytest.raises(ValueError):
            model.realize_durations(np.array([0, 0, 0]), 0)

    def test_expected_durations_indexing(self, model):
        assert model.expected_durations(np.array([1, 0, 1])).tolist() == [
            4.0,
            18.0,
            20.0,
        ]

    def test_quantile_durations(self, model):
        proc = np.array([0, 0, 0])
        low, high = model.duration_bounds(proc)
        assert np.allclose(model.quantile_durations(proc, 0.0), low)
        assert np.allclose(model.quantile_durations(proc, 1.0), high)
        mid = model.quantile_durations(proc, 0.5)
        assert np.allclose(mid, (low + high) / 2)
        # For the uniform model the median equals the mean.
        assert np.allclose(mid, model.expected_durations(proc))

    def test_quantile_rejects_out_of_range(self, model):
        with pytest.raises(ValueError):
            model.quantile_durations(np.array([0, 0, 0]), 1.5)
        with pytest.raises(ValueError):
            model.quantile_times(-0.1)

    def test_quantile_times_matrix(self, model):
        q = model.quantile_times(0.5)
        assert np.allclose(q, model.expected_times)

    def test_generate_factory(self):
        bcet = np.full((30, 4), 5.0)
        model = UncertaintyModel.generate(bcet, UncertaintyParams(mean_ul=3.0), rng=0)
        assert model.n == 30
        assert np.all(model.ul >= 1.0)


class TestDurationFamilies:
    @pytest.fixture
    def model(self):
        bcet = np.array([[2.0, 4.0], [6.0, 3.0], [5.0, 5.0]])
        ul = np.array([[2.0, 1.5], [3.0, 2.0], [1.5, 4.0]])
        return UncertaintyModel(bcet, ul)

    @pytest.mark.parametrize("family", ["uniform", "beta", "bimodal"])
    def test_support_respected(self, model, family):
        proc = np.array([0, 1, 0])
        low, high = model.duration_bounds(proc)
        durs = model.realize_durations(proc, 2000, rng=1, family=family)
        assert np.all(durs >= low - 1e-12)
        assert np.all(durs <= high + 1e-12)

    @pytest.mark.parametrize("family", ["uniform", "beta", "bimodal"])
    def test_mean_preserved(self, model, family):
        proc = np.array([0, 0, 1])
        durs = model.realize_durations(proc, 40000, rng=2, family=family)
        expected = model.expected_durations(proc)
        assert np.allclose(durs.mean(axis=0), expected, rtol=0.03)

    def test_variance_ordering(self, model):
        """beta < uniform < bimodal in variance, by construction."""
        proc = np.array([0, 0, 0])
        var = {}
        for family in ("uniform", "beta", "bimodal"):
            durs = model.realize_durations(proc, 40000, rng=3, family=family)
            var[family] = durs.var(axis=0)
        assert np.all(var["beta"] < var["uniform"])
        assert np.all(var["uniform"] < var["bimodal"])

    def test_unknown_family_rejected(self, model):
        with pytest.raises(ValueError, match="family"):
            model.realize_durations(np.array([0, 0, 0]), 5, rng=0, family="cauchy")
