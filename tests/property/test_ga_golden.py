"""Golden GA trajectories hold on both kernel backends.

Each corpus case (``tests/property/ga_golden.py``) is recomputed and its
history digest compared against the stored fixture, once through the
native population kernel (skipped where it cannot load) and once
through the numpy fallback.
"""

from __future__ import annotations

import pytest

from repro.graph import _native

from tests.property import ga_golden

GOLDEN = ga_golden.load()


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
    assert sorted(GOLDEN) == sorted(ga_golden.CASES)


@pytest.mark.parametrize("name", sorted(ga_golden.CASES))
def test_trajectory_matches_golden(name, backend):
    assert ga_golden.digest(ga_golden.CASES[name]()) == GOLDEN[name]
