"""Time the search rounds: quantum ``run_final`` runs, per run and per raw query.

    python3 scripts/bench_search.py [--out BENCH_search.json]

For each class in ``CLASSES`` -- hamming1 at N = 64, 256 and 1024, where a
run is one amplified scan of N - 1 ranks, and a random class of N = 40 bits
and M = 2000 members drawn with seed ``SEED``, whose runs are short scans
down a deep tree -- it takes at most ``MEMBERS`` members, evenly spaced in
the class's order, and runs quantum ``run_final`` on each in as many
trials as make at least ``RUNS`` runs, seeded
``SeedSequence((SEED, x.value, trial))`` as ``oracleid run`` seeds it.  One
untimed pass first (the trial after the last) builds what the timed runs
share: the pruning tree's nodes and the memoized failure bounds.  Each row
records the median and mean microseconds per run, the mean raw queries per
run, the members' mean ideal cost ``sum sqrt(p_i) + sqrt(width)`` (from
``identify_all``; the base of the benchmark's ``cost_over_ideal``, so
``raw_queries_mean / ideal_cost_mean`` reads as that ratio does) and the
nanoseconds per raw query (total time over total queries, null when no run
queries).  With the machine it ran on (from
``benchlib.machine``), it writes them as JSON.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

# (kind, N, M) of each class; hamming1 has M = N
CLASSES = (
    ("hamming1", 64, None),
    ("hamming1", 256, None),
    ("hamming1", 1024, None),
    ("random", 40, 2000),
)
SEED = 1
MEMBERS = 256
RUNS = 1024


def measure(kind: str, n: int, m: int | None, seed: int, members: int, runs: int) -> dict:
    import numpy as np

    from oracleid.bitstrings import generate_class
    from oracleid.identify import identify_all, run_final

    cls = generate_class(kind, n, size=m, seed=seed)
    xs = cls.members[:: -(-cls.size // members)]
    trials = -(-runs // len(xs))
    ideal = identify_all(cls)

    def run(x, trial):
        return run_final(cls, x, "quantum", seed=np.random.SeedSequence((seed, x.value, trial)))

    for x in xs:
        run(x, trials)
    times, queries = [], []
    for trial in range(trials):
        for x in xs:
            t0 = time.perf_counter()
            trace = run(x, trial)
            times.append(time.perf_counter() - t0)
            queries.append(trace.raw_queries)
    return {
        "kind": kind,
        "n": n,
        "m": cls.size,
        "seed": seed if kind == "random" else None,
        "members": len(xs),
        "runs": len(times),
        "run_us_median": statistics.median(times) * 1e6,
        "run_us_mean": statistics.fmean(times) * 1e6,
        "raw_queries_mean": statistics.fmean(queries),
        "ideal_cost_mean": statistics.fmean(ideal[x].ideal_cost for x in xs),
        "ns_per_raw_query": sum(times) / sum(queries) * 1e9 if any(queries) else None,
    }


def main(argv=None) -> int:
    rows = (measure(kind, n, m, SEED, MEMBERS, RUNS) for kind, n, m in CLASSES)
    return benchlib.write_report(__file__, __doc__, rows, argv)


if __name__ == "__main__":
    benchlib.run_script(main)
