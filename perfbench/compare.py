"""Compare two saved outputs of ``perfbench/run.py``.

Usage::

    python3 perfbench/run.py --workload paper-cell --seed 1 > before.txt
    ...change the code...
    python3 perfbench/run.py --workload paper-cell --seed 1 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Prints each metric of both runs and their ratio, and flags the pair
when the runs' environments differ: a native-kernel or OpenMP
difference changes the timings more than most code changes do.  Exits
with 1 when the environments differ, 0 otherwise.
"""

from __future__ import annotations

import json
import sys

#: Environment keys whose difference invalidates a timing comparison.
PINNED = ("native", "openmp", "omp_threads", "nproc", "python", "numpy")


def load(path: str) -> tuple[dict, dict]:
    """(environment, result record) of one saved run."""
    env: dict = {}
    with open(path, encoding="utf-8") as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    for line in lines:
        if line.startswith("# env "):
            env = json.loads(line[len("# env "):])
    return env, json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (env_a, a), (env_b, b) = load(argv[0]), load(argv[1])
    differs = [k for k in PINNED if env_a.get(k) != env_b.get(k)]
    for key in differs:
        print(f"WARNING: {key} differs: {env_a.get(key)!r} vs {env_b.get(key)!r}")
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        print(
            f"{name:<42} {m['value']:>14.6g} {other['value']:>14.6g}"
            f"  x{ratio:.3f}  {m['unit']}"
        )
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
