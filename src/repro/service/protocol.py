"""Wire protocol of the scheduler service: JSON lines over TCP.

One request per line, one response per line, always in order — a client
may pipeline several requests on one connection and read the responses
back sequentially (cf. the dask ``distributed`` comm model, minus the
binary framing: instances here are small, so readable JSON wins).

:data:`PROTOCOL_VERSION` is **the** protocol version constant — the
server stamps it into every response, clients may assert on it, and
``docs/service.md`` documents the format it names.  Bump it when a
request or response field changes meaning.

Requests are JSON objects with an ``op`` field:

``solve``
    ``problem`` (a :func:`repro.io.problem_to_dict` payload), ``solver``
    (one of :data:`SOLVERS`), ``epsilon``, ``seed``, ``n_realizations``,
    optional ``deadline_s``, ``ga`` parameter overrides, and
    ``warm_start`` (bool, default true; additive in protocol 1) — whether
    a GA solve may be seeded from the server's warm-start store.  The
    seeds a request actually received are part of its cache identity, so
    warm-started responses remain reproducible from their payload.
``status``
    Server counters: cache, admission, queue depths, uptime.
``ping``
    Liveness probe; echoes ``id``.
``shutdown``
    Ask the server to stop accepting work and exit its serve loop.

Responses carry ``ok`` (bool), the request's ``id`` (when given) and
``protocol``.  Failures use ``{"ok": false, "error": {"code", "message"}}``
with codes from :data:`ERROR_CODES`.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "SOLVERS",
    "ALGEBRA_SOLVERS",
    "FAST_SOLVERS",
    "OPS",
    "ERROR_CODES",
    "ProtocolError",
    "encode",
    "decode",
    "ok_response",
    "error_response",
    "normalize_request",
]

PROTOCOL_VERSION = 1

#: Component-algebra catalogue entries served as additional fast-tier
#: solvers.  Kept as a literal so this module stays stdlib-only; pinned
#: to ``repro.algebra.ALGEBRA_SOLVERS`` by tests/unit/test_algebra.py.
ALGEBRA_SOLVERS = (
    "heft-append",
    "heft-greedy",
    "heft-lookahead",
    "heft-q90",
    "heft-ready",
    "blevel-eft",
    "blevel-append",
    "cpop-append",
    "cpop-unpinned",
    "peft-append",
    "peft-eft",
    "peft-lookahead",
    "minmin-append",
    "maxmin",
    "random-eft",
    "random-append",
)

#: Solvers a ``solve`` request may name.  The heuristics — the four
#: classic names plus the rest of the component-algebra catalogue — form
#: the fast tier (served inline); ``"ga"`` is the queued tier (see
#: admission.py).
SOLVERS = ("heft", "cpop", "peft", "minmin") + ALGEBRA_SOLVERS + ("ga",)
FAST_SOLVERS = frozenset(s for s in SOLVERS if s != "ga")

OPS = ("solve", "status", "ping", "shutdown")

ERROR_CODES = (
    "bad-json",       # the line was not a JSON object
    "bad-request",    # a field is missing, mistyped or out of range
    "bad-problem",    # the problem payload did not deserialize
    "unknown-op",     # op not in OPS
    "internal",       # solver raised unexpectedly
    "shutting-down",  # request arrived after shutdown began
)

#: GA overrides a request may carry (subset of
#: :class:`repro.ga.engine.GAParams`) — enough to bound solve time
#: without exposing every hyper-parameter on the wire.
GA_OVERRIDE_FIELDS = ("population_size", "max_iterations", "stagnation_limit")


class ProtocolError(ValueError):
    """A malformed request; ``code`` picks the wire error code."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_CODES:
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code


def encode(message: dict[str, Any]) -> bytes:
    """One message as a newline-terminated strict-JSON line."""
    return (
        json.dumps(message, allow_nan=False, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode(line: bytes | str) -> dict[str, Any]:
    """Parse one wire line into a message dict.

    Raises
    ------
    ProtocolError
        With code ``bad-json`` when the line is not a JSON object.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        message = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError("bad-json", f"invalid JSON: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            "bad-json", f"expected a JSON object, got {type(message).__name__}"
        )
    return message


def ok_response(request_id: Any = None, **fields: Any) -> dict[str, Any]:
    """A success response envelope."""
    response: dict[str, Any] = {"ok": True, "protocol": PROTOCOL_VERSION}
    if request_id is not None:
        response["id"] = request_id
    response.update(fields)
    return response


def error_response(
    request_id: Any, code: str, message: str
) -> dict[str, Any]:
    """A failure response envelope."""
    if code not in ERROR_CODES:  # pragma: no cover - programming error
        raise ValueError(f"unknown error code {code!r}")
    response: dict[str, Any] = {
        "ok": False,
        "protocol": PROTOCOL_VERSION,
        "error": {"code": code, "message": message},
    }
    if request_id is not None:
        response["id"] = request_id
    return response


def _require_number(
    message: dict, field: str, default: float | None = None
) -> float | None:
    value = message.get(field, default)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProtocolError(
            "bad-request", f"{field!r} must be a number, got {value!r}"
        )
    return float(value)


def normalize_request(message: dict[str, Any]) -> dict[str, Any]:
    """Validate a decoded request and fill defaults.

    Returns a new dict with canonical field types; the ``problem``
    payload is passed through untouched (deserialization — and therefore
    fingerprint verification — happens in the solver layer so the
    request can be routed and cached first).

    Raises
    ------
    ProtocolError
        ``unknown-op`` or ``bad-request`` on the first violation.
    """
    op = message.get("op")
    if op not in OPS:
        raise ProtocolError("unknown-op", f"unknown op {op!r}; expected {OPS}")
    request: dict[str, Any] = {"op": op, "id": message.get("id")}
    if op != "solve":
        return request

    problem = message.get("problem")
    if not isinstance(problem, dict):
        raise ProtocolError(
            "bad-request", "'solve' requires a 'problem' payload object"
        )
    solver = message.get("solver", "ga")
    if solver not in SOLVERS:
        raise ProtocolError(
            "bad-request", f"unknown solver {solver!r}; expected one of {SOLVERS}"
        )
    epsilon = _require_number(message, "epsilon", 1.0)
    if epsilon <= 0:
        raise ProtocolError("bad-request", f"epsilon must be > 0, got {epsilon}")
    seed = message.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ProtocolError("bad-request", f"seed must be an integer, got {seed!r}")
    n_realizations = message.get("n_realizations", 500)
    if (
        isinstance(n_realizations, bool)
        or not isinstance(n_realizations, int)
        or n_realizations < 1
    ):
        raise ProtocolError(
            "bad-request",
            f"n_realizations must be a positive integer, got {n_realizations!r}",
        )
    deadline_s = _require_number(message, "deadline_s")
    if deadline_s is not None and deadline_s <= 0:
        raise ProtocolError(
            "bad-request", f"deadline_s must be > 0, got {deadline_s}"
        )
    warm_start = message.get("warm_start", True)
    if not isinstance(warm_start, bool):
        raise ProtocolError(
            "bad-request", f"warm_start must be a boolean, got {warm_start!r}"
        )
    # Explicit seed chromosomes (additive in protocol 1).  Normally
    # injected server-side from the warm-start store, but they are a
    # legal wire field: the coordinator forwards warm-started payloads
    # to shards through this same normalization, and a client may pin
    # seeds directly (they are digested into the cache identity).
    warm_seeds = message.get("warm_seeds") or []
    if not isinstance(warm_seeds, list) or not all(
        isinstance(s, dict) and "order" in s and "proc_of" in s
        for s in warm_seeds
    ):
        raise ProtocolError(
            "bad-request",
            "warm_seeds must be a list of {order, proc_of} objects",
        )
    ga = message.get("ga") or {}
    if not isinstance(ga, dict):
        raise ProtocolError("bad-request", "'ga' must be an object of overrides")
    unknown = sorted(set(ga) - set(GA_OVERRIDE_FIELDS))
    if unknown:
        raise ProtocolError(
            "bad-request",
            f"unknown ga override {unknown[0]!r}; "
            f"allowed: {GA_OVERRIDE_FIELDS}",
        )
    for field, value in ga.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ProtocolError(
                "bad-request",
                f"ga.{field} must be a positive integer, got {value!r}",
            )
    request.update(
        problem=problem,
        solver=solver,
        epsilon=epsilon,
        seed=seed,
        n_realizations=n_realizations,
        deadline_s=deadline_s,
        warm_start=warm_start,
        ga={k: ga[k] for k in sorted(ga)},
    )
    if warm_seeds:
        request["warm_seeds"] = warm_seeds
    return request
