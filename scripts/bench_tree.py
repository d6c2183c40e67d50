"""Time the pruning tree: cold ``identify_all`` on wide and on deep classes.

    python3 scripts/bench_tree.py [--out BENCH_tree.json]

For each class in ``CLASSES`` -- hamming1 at N = 128 .. 1024, where the
greedy is one root node scanning N - 1 ranks, and random classes of N bits
and M members drawn with seed ``SEED``, whose trees are deep -- it times
``REPEATS`` cold ``identify_all`` calls (an empty ordering cache each time)
and records their median.  Then, under tracemalloc, it records what a cold
``oracle_id_pipeline`` build leaves allocated once its result is dropped:
the memory the pruning-tree memo keeps.  With the machine it ran on (from
``benchlib.machine``), it writes them as JSON.
"""

from __future__ import annotations

import gc
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

# (kind, N, M) of each class; hamming1 has M = N
CLASSES = (
    ("hamming1", 128, None),
    ("hamming1", 256, None),
    ("hamming1", 512, None),
    ("hamming1", 1024, None),
    ("random", 24, 4000),
    ("random", 40, 2000),
    ("random", 20, 10_000),
)
SEED = 1
REPEATS = 3


def measure(kind: str, n: int, m: int | None, seed: int, repeats: int) -> dict:
    from oracleid.bitstrings import generate_class
    from oracleid.identify import identify_all
    from oracleid.ordering import clear_ordering_cache
    from oracleid.sdp import oracle_id_pipeline

    cls = generate_class(kind, n, size=m, seed=seed)
    runs = []
    for _ in range(repeats):
        clear_ordering_cache()
        t0 = time.perf_counter()
        traces = identify_all(cls)
        runs.append(time.perf_counter() - t0)
    iterations = max(t.iterations for t in traces.values())
    del traces

    clear_ordering_cache()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        oracle_id_pipeline(cls)
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
        clear_ordering_cache()
    return {
        "kind": kind,
        "n": n,
        "m": cls.size,
        "seed": seed if kind == "random" else None,
        "identify_all_s": statistics.median(runs),
        "runs": runs,
        "max_iterations": iterations,
        "pipeline_retained_mib": retained / 2**20,
    }


def main(argv=None) -> int:
    rows = (measure(kind, n, m, SEED, REPEATS) for kind, n, m in CLASSES)
    return benchlib.write_report(__file__, __doc__, rows, argv)


if __name__ == "__main__":
    benchlib.run_script(main)
