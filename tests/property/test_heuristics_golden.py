"""Golden list-scheduler outputs hold on both kernel backends.

Each corpus problem (``tests/property/heuristics_golden.py``) is
scheduled by HEFT, CPOP, PEFT, min-min and quantile-HEFT at three
quantiles, and every digest is compared against the stored fixture,
once through the native kernels (skipped where they cannot load) and
once through the numpy fallback.
"""

from __future__ import annotations

import pytest

from repro.graph import _native

from tests.property import heuristics_golden

GOLDEN = heuristics_golden.load()


@pytest.fixture(params=["native", "numpy"])
def backend(request, monkeypatch):
    if request.param == "native":
        if _native.get_lib() is None:
            pytest.skip("native kernel unavailable")
    else:
        monkeypatch.setattr(_native, "_lib", None)
        monkeypatch.setattr(_native, "_tried", True)
    return request.param


def test_fixture_covers_the_corpus():
    assert sorted(GOLDEN) == sorted(
        f"{problem}/{scheduler}"
        for problem in heuristics_golden.PROBLEMS
        for scheduler in heuristics_golden.SCHEDULERS
    )


@pytest.mark.parametrize("problem", list(heuristics_golden.PROBLEMS))
def test_schedules_match_golden(problem, backend):
    digests = heuristics_golden.compute_problem(problem)
    assert digests == {key: GOLDEN[key] for key in digests}
