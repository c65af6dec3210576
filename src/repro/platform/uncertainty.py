"""Execution-time uncertainty model (paper Sec. 5).

Each (task, processor) pair carries an *uncertainty level* ``UL_ij >= 1``.
Given the best-case execution time ``b_ij``, the actual execution time is

.. math:: c_{ij} \\sim U\\bigl(b_{ij},\\; (2\\,UL_{ij} - 1)\\,b_{ij}\\bigr)

so its expectation is ``E[c_ij] = UL_ij * b_ij``.  Schedulers are fed these
*expected* times; Monte-Carlo evaluation samples realizations, each
duration ``b + (high - b) * u`` for one ``Generator.random`` draw ``u``
(:meth:`UncertaintyModel.uniform_support`): numpy's own ``uniform``
formula, and the one the native Monte-Carlo kernel
(:mod:`repro.graph._native`) reproduces in C.

The ``UL`` matrix is generated "similarly to the way we set the computation
cost matrix": a two-stage gamma around a scenario-wide mean ``UL`` with
coefficients of variation ``V1 = V2 = 0.5``.  Because the uniform support
degenerates (or inverts) for levels below 1, sampled levels are clamped to
1 — a level of exactly 1 means a deterministic task.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.platform.etc import gamma_gamma_matrix
from repro.utils.rng import as_generator
from repro.utils.validation import check_matrix, check_positive

__all__ = ["UncertaintyParams", "generate_ul", "UncertaintyModel"]


@dataclass(frozen=True)
class UncertaintyParams:
    """Inputs of the uncertainty-level generator.

    Attributes
    ----------
    mean_ul:
        Scenario-wide average uncertainty level (paper sweeps 2..8).
    v1:
        COV of the per-task expected level ``q_i`` (paper: 0.5).
    v2:
        COV of per-(task, processor) levels around ``q_i`` (paper: 0.5).
    """

    mean_ul: float = 2.0
    v1: float = 0.5
    v2: float = 0.5

    def __post_init__(self) -> None:
        if self.mean_ul < 1.0:
            raise ValueError(f"mean_ul must be >= 1, got {self.mean_ul}")
        check_positive("v1", self.v1)
        check_positive("v2", self.v2)


def generate_ul(
    n: int,
    m: int,
    params: UncertaintyParams | None = None,
    rng: np.random.Generator | int | None = None,
) -> np.ndarray:
    """Generate the ``n x m`` uncertainty-level matrix (clamped to ``>= 1``)."""
    params = params or UncertaintyParams()
    return gamma_gamma_matrix(
        n, m, params.mean_ul, params.v1, params.v2, rng, minimum=1.0
    )


class UncertaintyModel:
    """Pairs a best-case time matrix with uncertainty levels.

    Parameters
    ----------
    bcet:
        ``n x m`` best-case execution times ``B`` (strictly positive).
    ul:
        ``n x m`` uncertainty levels, all ``>= 1``.

    Notes
    -----
    The object is immutable.  ``expected_times`` is what every scheduler in
    this library sees; :meth:`realize_durations` is the simulated "real
    resource environment".
    """

    __slots__ = ("bcet", "ul", "expected_times")

    def __init__(self, bcet: np.ndarray, ul: np.ndarray) -> None:
        bcet = check_matrix("bcet", bcet, positive=True)
        ul = check_matrix("ul", ul, shape=bcet.shape)
        if np.any(ul < 1.0):
            raise ValueError("uncertainty levels must be >= 1")
        self.bcet = bcet
        self.ul = ul
        self.expected_times = bcet * ul
        for arr in (self.bcet, self.ul, self.expected_times):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        """Number of tasks."""
        return self.bcet.shape[0]

    @property
    def m(self) -> int:
        """Number of processors."""
        return self.bcet.shape[1]

    @classmethod
    def deterministic(cls, times: np.ndarray) -> "UncertaintyModel":
        """A model with no uncertainty (``UL = 1`` everywhere).

        Expected, best-case and realized times all coincide with *times*;
        handy for tests and for running the classic deterministic problem.
        """
        times = check_matrix("times", times, positive=True)
        return cls(times, np.ones_like(times))

    @classmethod
    def generate(
        cls,
        bcet: np.ndarray,
        params: UncertaintyParams | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> "UncertaintyModel":
        """Generate levels for an existing BCET matrix."""
        bcet = check_matrix("bcet", bcet, positive=True)
        n, m = bcet.shape
        return cls(bcet, generate_ul(n, m, params, rng))

    # ------------------------------------------------------------------ #
    # Realization sampling
    # ------------------------------------------------------------------ #

    def duration_bounds(self, proc_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-task (low, high) duration bounds under assignment *proc_of*.

        ``low[i] = b[i, p_i]`` and ``high[i] = (2*UL[i, p_i] - 1) * b[i, p_i]``.
        """
        proc_of = np.asarray(proc_of, dtype=np.int64)
        idx = np.arange(self.n)
        low = self.bcet[idx, proc_of]
        high = (2.0 * self.ul[idx, proc_of] - 1.0) * low
        return low, high

    def uniform_support(self, proc_of: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-task ``(low, high - low)`` of the uniform model under *proc_of*.

        A realization is ``low + (high - low) * u`` with ``u`` one
        ``Generator.random`` draw per task, in realization-major order:
        bit for bit ``Generator.uniform(low, high, size=(N, n))``, with the
        stream left in the same state.  The native Monte-Carlo kernel
        draws exactly this.  Like ``uniform``, a non-finite range raises
        ``OverflowError`` before anything is drawn.
        """
        low, high = self.duration_bounds(proc_of)
        span = high - low
        if not np.all(np.isfinite(span)):
            raise OverflowError("Range exceeds valid bounds")
        return low, span

    def realize_durations(
        self,
        proc_of: np.ndarray,
        n_realizations: int,
        rng: np.random.Generator | int | None = None,
        *,
        family: str = "uniform",
    ) -> np.ndarray:
        """Sample actual task durations for a processor assignment.

        Parameters
        ----------
        proc_of:
            ``(n,)`` processor index of every task.
        n_realizations:
            Number of independent realizations ``N``.
        rng:
            Seed or generator.
        family:
            Duration distribution on the ``[b, (2·UL-1)·b]`` support:

            ``"uniform"``
                The paper's model (default), drawn as
                :meth:`uniform_support` describes.
            ``"beta"``
                ``Beta(2, 2)`` scaled to the support — same mean, 60 % of
                the uniform's variance (bell-shaped).
            ``"bimodal"``
                Equal mixture of uniforms on the lowest and highest fifths
                of the support — same mean, higher variance.  Models
                tasks that either hit a fast path or stall.

            All families share the support and the mean ``UL·b``, so the
            scheduler-visible expected times stay valid; only the shape —
            which the paper's model fixes — changes.  Useful for
            distribution-misspecification studies.

        Returns
        -------
        numpy.ndarray
            ``(n_realizations, n)`` durations; row ``r`` is one realization
            of the whole graph.  Durations of different tasks are sampled
            independently, matching the paper's independence assumption.
        """
        if n_realizations < 1:
            raise ValueError(f"n_realizations must be >= 1, got {n_realizations}")
        gen = as_generator(rng)
        shape = (n_realizations, self.n)
        if family == "uniform":
            low, span = self.uniform_support(proc_of)
            return low + span * gen.random(shape)
        low, high = self.duration_bounds(proc_of)
        if family == "beta":
            return low + (high - low) * gen.beta(2.0, 2.0, size=shape)
        if family == "bimodal":
            span = high - low
            side = gen.random(shape) < 0.5
            frac = gen.uniform(0.0, 0.2, size=shape)
            return np.where(side, low + frac * span, high - frac * span)
        raise ValueError(
            f"unknown duration family {family!r}; "
            "choose 'uniform', 'beta' or 'bimodal'"
        )

    def expected_durations(self, proc_of: np.ndarray) -> np.ndarray:
        """Expected duration of every task under assignment *proc_of*."""
        proc_of = np.asarray(proc_of, dtype=np.int64)
        return self.expected_times[np.arange(self.n), proc_of]

    def quantile_durations(self, proc_of: np.ndarray, q: float) -> np.ndarray:
        """The *q*-quantile of each task's duration under *proc_of*.

        Extension hook (paper Sec. 6 future work): feed the scheduler a
        pessimistic quantile instead of the mean.  For the uniform model the
        quantile is ``low + q * (high - low)``.
        """
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        low, high = self.duration_bounds(proc_of)
        return low + q * (high - low)

    def quantile_times(self, q: float) -> np.ndarray:
        """Full ``n x m`` matrix of per-(task, processor) duration quantiles."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        high = (2.0 * self.ul - 1.0) * self.bcet
        return self.bcet + q * (high - self.bcet)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"UncertaintyModel(n={self.n}, m={self.m}, "
            f"mean_ul={float(self.ul.mean()):.3g})"
        )
