"""Unit tests for :mod:`repro.utils` (rng, validation, stats, tables)."""

import numpy as np
import pytest

from repro.utils.rng import (
    STREAM_ROLES,
    _check_roles,
    as_generator,
    role_stream,
    spawn_generators,
    spawn_seeds,
)
from repro.utils.stats import geometric_mean, log_ratio, summarize
from repro.utils.tables import format_series, format_table
from repro.utils.validation import (
    check_matrix,
    check_positive,
    check_probability,
    check_square,
)


class TestRng:
    def test_as_generator_passthrough(self):
        gen = np.random.default_rng(0)
        assert as_generator(gen) is gen

    def test_as_generator_from_seed(self):
        a = as_generator(42).random()
        b = as_generator(42).random()
        assert a == b

    def test_spawn_seeds_deterministic(self):
        a = spawn_seeds(1, 3)
        b = spawn_seeds(1, 3)
        assert [s.entropy for s in a] == [s.entropy for s in b]
        assert len(a) == 3

    def test_spawn_seeds_negative_raises(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_spawn_generators_independent(self):
        gens = spawn_generators(7, 2)
        x = gens[0].random(5)
        y = gens[1].random(5)
        assert not np.allclose(x, y)

    def test_spawn_from_generator(self):
        parent = np.random.default_rng(0)
        children = spawn_generators(parent, 2)
        assert len(children) == 2


class TestStreamRoles:
    def test_no_two_streams_share_a_role_and_key_length(self):
        pairs = list(STREAM_ROLES.values())
        assert len(set(pairs)) == len(pairs)

    def test_duplicate_pair_rejected(self):
        with pytest.raises(RuntimeError, match="'a' and 'b'"):
            _check_roles({"a": (3, 2), "b": (3, 2)})
        _check_roles({"a": (3, 2), "b": (3, 3)})  # lengths differ: allowed

    def test_stream_is_the_table_spawn_key(self):
        role, _ = STREAM_ROLES["eps_grid.ga"]
        expected = np.random.default_rng(
            np.random.SeedSequence(entropy=9, spawn_key=(role, 1, 2000, 0))
        ).random(4)
        got = role_stream(9, "eps_grid.ga", 1, 2000, 0).random(4)
        assert np.array_equal(got, expected)

    def test_wrong_key_length_rejected(self):
        with pytest.raises(ValueError, match="3-part key"):
            role_stream(9, "eps_grid.ga", 1, 2000)
        with pytest.raises(KeyError):
            role_stream(9, "no.such.stream", 1)


class TestValidation:
    def test_check_positive(self):
        assert check_positive("x", 2.5) == 2.5
        with pytest.raises(ValueError):
            check_positive("x", 0.0)
        with pytest.raises(ValueError):
            check_positive("x", float("nan"))
        assert check_positive("x", 0.0, strict=False) == 0.0
        with pytest.raises(ValueError):
            check_positive("x", -1.0, strict=False)

    def test_check_probability(self):
        assert check_probability("p", 0.5) == 0.5
        assert check_probability("p", 0.0) == 0.0
        with pytest.raises(ValueError):
            check_probability("p", 1.01)

    def test_check_matrix(self):
        m = check_matrix("m", [[1, 2], [3, 4]])
        assert m.dtype == np.float64
        with pytest.raises(ValueError, match="2-D"):
            check_matrix("m", [1, 2, 3])
        with pytest.raises(ValueError, match="shape"):
            check_matrix("m", [[1, 2]], shape=(2, 2))
        with pytest.raises(ValueError, match="non-finite"):
            check_matrix("m", [[np.nan]])
        with pytest.raises(ValueError, match="positive"):
            check_matrix("m", [[0.0]], positive=True)
        with pytest.raises(ValueError, match="non-negative"):
            check_matrix("m", [[-1.0]], nonnegative=True)

    def test_check_square(self):
        check_square("m", np.eye(3))
        with pytest.raises(ValueError, match="square"):
            check_square("m", np.ones((2, 3)))
        with pytest.raises(ValueError, match="3x3"):
            check_square("m", np.eye(2), 3)


class TestStats:
    def test_log_ratio_scalar(self):
        assert log_ratio(np.e, 1.0) == pytest.approx(1.0)
        assert isinstance(log_ratio(2.0, 1.0), float)

    def test_log_ratio_array(self):
        out = log_ratio(np.array([1.0, np.e]), 1.0)
        assert np.allclose(out, [0.0, 1.0])

    def test_log_ratio_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_ratio(0.0, 1.0)
        with pytest.raises(ValueError):
            log_ratio(1.0, -2.0)

    def test_geometric_mean(self):
        assert geometric_mean(np.array([1.0, 4.0])) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean(np.array([]))
        with pytest.raises(ValueError):
            geometric_mean(np.array([1.0, 0.0]))

    def test_summarize(self):
        s = summarize(np.array([1.0, 2.0, 3.0]))
        assert s.n == 3
        assert s.mean == 2.0
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        with pytest.raises(ValueError):
            summarize(np.array([]))


class TestTables:
    def test_format_table_basic(self):
        out = format_table(["a", "bb"], [[1, 2.5], [10, 0.25]])
        lines = out.splitlines()
        assert len(lines) == 4  # header, sep, 2 rows
        assert "bb" in lines[0]
        assert "2.5" in lines[2]

    def test_format_table_title(self):
        out = format_table(["x"], [[1]], title="My Title")
        assert out.splitlines()[0] == "My Title"

    def test_format_table_rejects_ragged(self):
        with pytest.raises(ValueError, match="headers"):
            format_table(["a", "b"], [[1]])

    def test_format_series(self):
        out = format_series("x", [1, 2], {"y": [0.1, 0.2], "z": [3.0, 4.0]})
        assert "x" in out and "y" in out and "z" in out
        assert len(out.splitlines()) == 4

    def test_format_series_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="points"):
            format_series("x", [1, 2], {"y": [0.1]})

    def test_empty_rows(self):
        out = format_table(["col"], [])
        assert "col" in out
