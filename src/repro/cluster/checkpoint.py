"""Durable progress: a JSONL journal of completed tasks.

Each completed task appends one self-contained line ``{"key", "retries",
"elapsed", "run_elapsed", "result"}``; a run interrupted at any point
(even mid-line — the torn tail is ignored on load) can therefore be
resumed by re-submitting the same specs: journaled keys are restored
without re-execution, everything else runs.  Loading ignores any other
field of a record, so journals carrying extra fields still resume.

Fidelity matters more than compactness here: results restored from the
journal must be **bit-for-bit** equal to freshly computed ones, so cells
finished before and after an interruption are indistinguishable.  Python
floats survive ``json`` round-trips exactly (``repr`` is the shortest
round-tripping decimal), so encoders only need to reduce payloads to
JSON-compatible trees of str/int/float/list/dict — see
:func:`repro.io.json_io.report_to_dict` for the experiment payloads.

A header line pins the journal to one logical run (``run_id``): resuming
a ``seed=7`` grid from a ``seed=42`` journal is an error, not silent
corruption.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import Any, Callable

__all__ = ["Checkpoint"]

_FORMAT = "repro.checkpoint"
_VERSION = 1


class Checkpoint:
    """Append-only JSONL journal of task results.

    Parameters
    ----------
    path:
        Journal file; parent directories are created on first write.
    run_id:
        Stable identifier of the logical run (derive it from everything
        that determines results: experiment name, seed, scale, sweep
        axes).  ``load`` raises on mismatch with an existing journal.
    encode / decode:
        Payload codecs: ``encode(result)`` must return a JSON-compatible
        tree, ``decode(tree)`` must invert it exactly.  Default identity.
    """

    def __init__(
        self,
        path: str | pathlib.Path,
        *,
        run_id: str | None = None,
        encode: Callable[[Any], Any] | None = None,
        decode: Callable[[Any], Any] | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.run_id = run_id
        self._encode = encode or (lambda x: x)
        self._decode = decode or (lambda x: x)
        self._file = None
        #: Run-level wall time accumulated by the interrupted attempts this
        #: journal records (max over per-record ``run_elapsed`` stamps);
        #: populated by :meth:`load`, consumed by the scheduler so resumed
        #: runs report monotonic elapsed/throughput metrics.
        self.run_elapsed: float = 0.0
        #: Summed task execution seconds of the journaled (restorable)
        #: records; populated by :meth:`load`.
        self.busy_elapsed: float = 0.0

    def load(self) -> dict[str, Any]:
        """Read the journal, returning ``{key: decoded_result}``.

        Missing file yields ``{}``.  A torn final line (crash mid-append)
        is skipped silently; a later record for the same key wins (a task
        journaled twice across an interrupted run is harmless).
        """
        if not self.path.exists():
            return {}
        results: dict[str, Any] = {}
        task_elapsed: dict[str, float] = {}
        header_seen = False
        with self.path.open("r", encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue  # torn tail from an interrupted append
                if not header_seen:
                    header_seen = True
                    if record.get("format") != _FORMAT:
                        raise ValueError(
                            f"{self.path} is not a repro checkpoint journal"
                        )
                    if record.get("version") != _VERSION:
                        raise ValueError(
                            f"unsupported checkpoint version {record.get('version')}"
                        )
                    old = record.get("run_id")
                    if (
                        self.run_id is not None
                        and old is not None
                        and old != self.run_id
                    ):
                        raise ValueError(
                            f"checkpoint {self.path} belongs to run {old!r}, "
                            f"not {self.run_id!r}; refusing to resume"
                        )
                    continue
                if "key" in record:
                    results[record["key"]] = self._decode(record["result"])
                    task_elapsed[record["key"]] = float(
                        record.get("elapsed", 0.0) or 0.0
                    )
                    self.run_elapsed = max(
                        self.run_elapsed,
                        float(record.get("run_elapsed", 0.0) or 0.0),
                    )
        self.busy_elapsed = sum(task_elapsed.values())
        return results

    def record(
        self,
        key: str,
        result: Any,
        *,
        retries: int = 0,
        elapsed: float = 0.0,
        run_elapsed: float = 0.0,
    ) -> None:
        """Append one completed task, flushed and fsynced for durability.

        ``run_elapsed`` stamps the record with the run-level wall time at
        append (including any pre-resume attempts), so a later resume can
        continue the clock instead of restarting it from zero.
        """
        if self._file is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            fresh = not self.path.exists() or self.path.stat().st_size == 0
            self._file = self.path.open("a", encoding="utf-8")
            if fresh:
                header = {
                    "format": _FORMAT,
                    "version": _VERSION,
                    "run_id": self.run_id,
                }
                self._file.write(json.dumps(header) + "\n")
        line = json.dumps(
            {
                "key": key,
                "retries": retries,
                "elapsed": elapsed,
                "run_elapsed": run_elapsed,
                "result": self._encode(result),
            }
        )
        self._file.write(line + "\n")
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Close the append handle (load/record may still be called again)."""
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "Checkpoint":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
