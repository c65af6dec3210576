"""Hierarchical spans on a monotonic clock.

A :class:`Span` measures one named region of execution.  Spans nest: the
:class:`Tracer` keeps a stack of open spans per asyncio task on an event
loop and per thread elsewhere, so a span opened while another is active
in the same task or thread records that span as its parent, and the
``trace-summary`` renderer can attribute wall time through the tree.
Concurrent requests served on one event loop therefore never nest
under each other.

Records are emitted to the sink when a span **closes** (close order is
deterministic for deterministic programs); ids are assigned in **start**
order, so both orders can be reconstructed from the stream.  A span that
closes because an exception is propagating through it is recorded with
``status: "error"`` and the exception type name — the exception itself
always propagates.
"""

from __future__ import annotations

import contextvars
import threading
from typing import Any

__all__ = ["Span", "Tracer", "NOOP_SPAN"]


def _clean_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    """Sort keys and coerce values so records are strict-JSON-stable.

    Numpy scalars become python scalars; non-finite floats (legal in the
    library — ``R1 = inf`` is a meaningful robustness value) become their
    ``repr`` strings, since strict JSON has no Infinity/NaN literals.
    """
    out = {}
    for key in sorted(attrs):
        value = attrs[key]
        if hasattr(value, "item"):  # numpy scalar -> python scalar
            value = value.item()
        if isinstance(value, float) and (value != value or value in (_INF, -_INF)):
            value = repr(value)
        out[key] = value
    return out


_INF = float("inf")


class Span:
    """One open (or closed) traced region.

    Not constructed directly — use :func:`repro.obs.trace`.  Inside the
    ``with`` block, :meth:`set` attaches attributes to the span.
    """

    __slots__ = ("id", "parent_id", "name", "start", "attrs", "_tracer", "_outer")

    def __init__(
        self,
        span_id: int,
        outer: "Span | None",
        name: str,
        start: float,
        attrs: dict[str, Any],
        tracer: "Tracer",
    ) -> None:
        self.id = span_id
        self.parent_id = outer.id if outer is not None else None
        # The span that was innermost when this one opened: the rest of
        # the open-span stack, which no one changes (see Tracer).
        self._outer = outer
        self.name = name
        self.start = start
        self.attrs = attrs
        self._tracer = tracer

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes to the span (last write per key wins)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer.close(self, exc_type)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Span({self.name!r}, id={self.id})"


class _NoopSpan:
    """Singleton stand-in returned by ``obs.trace`` while disabled.

    Supports the full :class:`Span` surface as no-ops so call sites need
    no conditional code.
    """

    __slots__ = ()

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


NOOP_SPAN = _NoopSpan()


class Tracer:
    """Span factory + per-task (per-thread) nesting stacks for one session.

    The stack of open spans is immutable and lives in a
    :class:`contextvars.ContextVar`: the variable holds the innermost
    open span, and each span links to the one it opened under.  A task
    copies its context when it is created, so it inherits the spans open
    at that point, and the spans it opens afterwards stay its own.  A
    thread starts with an empty stack.

    Parameters
    ----------
    emit:
        ``emit(record: dict)`` — receives one JSON-compatible dict per
        closed span / point event.
    clock:
        Monotonic ``() -> float``; timestamps are reported relative to
        the session epoch (the tracer subtracts ``epoch`` itself).
    epoch:
        Clock value at session start.
    """

    def __init__(self, emit, clock, epoch: float) -> None:
        self._emit = emit
        self._clock = clock
        self._epoch = epoch
        self._lock = threading.Lock()
        self._next_id = 1
        self._innermost: contextvars.ContextVar[Span | None] = (
            contextvars.ContextVar("repro.obs.spans", default=None)
        )
        self.n_spans = 0
        self.n_errors = 0

    # ------------------------------------------------------------------ ids

    def _alloc_ids(self, count: int = 1) -> int:
        """Reserve *count* consecutive ids, returning the first."""
        with self._lock:
            first = self._next_id
            self._next_id += count
        return first

    def current_id(self) -> int | None:
        """Id of the innermost open span of this task or thread, if any."""
        innermost = self._innermost.get()
        return innermost.id if innermost is not None else None

    # ---------------------------------------------------------------- spans

    def start(self, name: str, attrs: dict[str, Any]) -> Span:
        """Open a span nested under the innermost open span of this task
        or thread."""
        span = Span(
            self._alloc_ids(),
            self._innermost.get(),
            name,
            self._clock() - self._epoch,
            attrs,
            self,
        )
        self._innermost.set(span)
        return span

    def close(self, span: Span, exc_type) -> None:
        """Close the span and emit its record (error status if *exc_type*)."""
        end = self._clock() - self._epoch
        # Tolerate out-of-order closes (a caller holding the span past an
        # inner `with`): pop up to and including the span.
        top = self._innermost.get()
        while top is not None and top is not span:
            top = top._outer
        self._innermost.set(top._outer if top is not None else None)
        status = "ok" if exc_type is None else "error"
        attrs = dict(span.attrs)
        if exc_type is not None:
            attrs.setdefault("error_type", exc_type.__name__)
            self.n_errors += 1
        self.n_spans += 1
        self._emit(
            {
                "type": "span",
                "id": span.id,
                "parent": span.parent_id,
                "name": span.name,
                "t0": span.start,
                "t1": end,
                "dur": end - span.start,
                "status": status,
                "attrs": _clean_attrs(attrs),
            }
        )

    # --------------------------------------------------------------- events

    def point(self, name: str, attrs: dict[str, Any]) -> None:
        """Emit a zero-duration point event under the current span."""
        self._emit(
            {
                "type": "event",
                "id": self._alloc_ids(),
                "parent": self.current_id(),
                "name": name,
                "t": self._clock() - self._epoch,
                "attrs": _clean_attrs(attrs),
            }
        )

    # --------------------------------------------------------------- ingest

    def ingest(self, records: list[dict], *, shift: float | None = None) -> None:
        """Splice a foreign subtree (e.g. from a cluster worker) in.

        *records* is a list of span/event records with ids local to the
        foreign session (1-based).  Ids are remapped into this tracer's
        id space, parentless records are attached under the current span,
        and timestamps are shifted by *shift* (default: align the
        subtree's latest timestamp with "now", which places a worker's
        spans where their result arrived on the session timeline).
        Metric records pass through unchanged (callers merge registries
        separately).
        """
        tree = [r for r in records if r.get("type") in ("span", "event")]
        if not tree:
            return
        if shift is None:
            latest = max(r["t1"] if r["type"] == "span" else r["t"] for r in tree)
            shift = (self._clock() - self._epoch) - latest
        base = self._alloc_ids(len(tree)) - 1  # local ids are 1-based
        attach_to = self.current_id()
        for r in tree:
            r = dict(r)
            r["id"] = base + r["id"]
            r["parent"] = attach_to if r["parent"] is None else base + r["parent"]
            if r["type"] == "span":
                r["t0"] += shift
                r["t1"] += shift
                if r["status"] == "error":
                    self.n_errors += 1
                self.n_spans += 1
            else:
                r["t"] += shift
            self._emit(r)
