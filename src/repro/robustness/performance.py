"""Overall schedule performance ``P(s)`` (paper Eqn. 9).

.. math::

    P(s) = r \\log \\frac{M_{HEFT}}{M(s)} + (1 - r) \\log \\frac{R(s)}{R_{HEFT}}

``r`` weights makespan against robustness: ``r -> 1`` rewards short
schedules, ``r -> 0`` rewards robust ones.  ``P > 0`` means the schedule
beats HEFT under that weighting.  ``M(s)`` is the mean *realized* makespan
(the quantity the paper's Figs. 2/4 plot as "makespan"); ``R`` is either
``R1`` or ``R2``.
"""

from __future__ import annotations

import math

__all__ = [
    "overall_performance",
    "robustness_improvement",
]


def robustness_improvement(robustness: float, ref_robustness: float) -> float:
    """Log-ratio robustness term ``log(R(s) / R_ref)`` with explicit limits.

    ``R1``/``R2`` are ``inf`` for schedules that never miss, so the
    naive ratio hits ``inf/inf``.  The four finiteness combinations
    resolve to:

    ===========  ============  ==========================================
    ``R(s)``     ``R_ref``     result
    ===========  ============  ==========================================
    finite       finite        ``log(R(s) / R_ref)``
    infinite     finite        ``+inf`` (strictly more robust)
    finite       infinite      ``-inf`` (strictly less robust)
    infinite     infinite      ``0.0`` — a tie, **not** ``nan``
    ===========  ============  ==========================================

    Both inputs must be positive (robustness values are by construction).
    """
    for name, val in (
        ("robustness", robustness),
        ("ref_robustness", ref_robustness),
    ):
        if math.isnan(val) or val <= 0:
            raise ValueError(f"{name} must be positive, got {val}")
    inf_s = math.isinf(robustness)
    inf_ref = math.isinf(ref_robustness)
    if inf_s and inf_ref:
        return 0.0
    if inf_s:
        return math.inf
    if inf_ref:
        return -math.inf
    return math.log(robustness / ref_robustness)


def overall_performance(
    makespan: float,
    robustness: float,
    ref_makespan: float,
    ref_robustness: float,
    r_weight: float,
) -> float:
    """Evaluate Eqn. 9 for one schedule against a reference.

    Parameters
    ----------
    makespan, robustness:
        ``M(s)`` and ``R(s)`` of the schedule under evaluation.
    ref_makespan, ref_robustness:
        ``M_HEFT`` and ``R_HEFT`` of the reference schedule.
    r_weight:
        User emphasis ``r`` in [0, 1].

    Notes
    -----
    Infinite robustness values (schedules that never miss) are handled by
    the limits of the expression: ``R(s) = inf`` with finite reference gives
    ``+inf`` (unless ``r = 1``, where the robustness term vanishes); both
    infinite gives a robustness term of 0 (tie).
    """
    if not (0.0 <= r_weight <= 1.0):
        raise ValueError(f"r_weight must be in [0, 1], got {r_weight}")
    for name, val in (
        ("makespan", makespan),
        ("ref_makespan", ref_makespan),
    ):
        if val <= 0 or not math.isfinite(val):
            raise ValueError(f"{name} must be positive and finite, got {val}")
    makespan_term = math.log(ref_makespan / makespan)
    robustness_term = robustness_improvement(robustness, ref_robustness)

    if r_weight == 1.0:
        return makespan_term
    if r_weight == 0.0:
        return robustness_term
    return r_weight * makespan_term + (1.0 - r_weight) * robustness_term

