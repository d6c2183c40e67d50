"""Time the search rounds: quantum ``run_final`` runs, per run and per raw query.

    python3 scripts/bench_search.py [--out BENCH_search.json]

For each class in ``CLASSES`` -- hamming1 at N = 64, 256 and 1024, where a
run is one amplified scan of N - 1 ranks; hamming at N = 64 with weight
k = 2 and hamming-pair at N = 16 with k = 2 (weights 1 and 2), whose
amplified windows can hold more than one marked rank, so the skip under
the promise leaves more of them to search; and a random class of N = 40
bits and M = 2000 members drawn with seed ``SEED``, whose runs are short
scans down a deep tree -- it takes at most ``MEMBERS`` members, evenly spaced in
the class's order, and runs quantum ``run_final`` on each in as many
trials as make at least ``RUNS`` runs, seeded
``SeedSequence((SEED, x.value, trial))`` as ``oracleid run`` seeds it.  One
untimed pass first (the trial after the last) builds what the timed runs
share: the pruning tree's nodes and the memoized failure bounds.  Then
``PASSES`` timed passes each run every class's runs once, the classes in
turn, so that a slow spell of a shared host falls on every class rather
than on one.  Each row records the median over the passes of each pass's
median and mean microseconds per run, the mean raw queries per run and
the number of runs that identified a member other than their own
(``wrong_runs``; both the same in every pass: the seeds are, and a wrong
run's queries still count in the mean), the members' mean ideal cost ``sum
sqrt(p_i) + sqrt(width)`` (from ``identify_all``; the base of the
benchmark's ``cost_over_ideal``, so ``raw_queries_mean / ideal_cost_mean``
reads as that ratio does) and the nanoseconds per raw query (that mean
time over the mean queries, null when no run queries).  With the machine
it ran on (from ``benchlib.machine``), it writes them as JSON.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

# (kind, N, M, k) of each class; M is drawn for random classes only, and
# k is the weight of hamming classes
CLASSES = (
    ("hamming1", 64, None, None),
    ("hamming1", 256, None, None),
    ("hamming1", 1024, None, None),
    ("hamming", 64, None, 2),
    ("hamming-pair", 16, None, 2),
    ("random", 40, 2000, None),
)
SEED = 1
MEMBERS = 256
RUNS = 1024
PASSES = 3


class Runs:
    """One class's seeded runs, timed a pass at a time."""

    def __init__(
        self, kind: str, n: int, m: int | None, k: int | None, seed: int, members: int, runs: int
    ) -> None:
        import numpy as np

        from oracleid.bitstrings import generate_class
        from oracleid.identify import identify_all, run_final

        cls = generate_class(kind, n, size=m, k=k, seed=seed)
        xs = cls.members[:: -(-cls.size // members)]
        trials = -(-runs // len(xs))
        ideal = identify_all(cls)

        def run(x, trial):
            return run_final(cls, x, "quantum", seed=np.random.SeedSequence((seed, x.value, trial)))

        for x in xs:
            run(x, trials)
        self.run, self.order = run, [(x, trial) for trial in range(trials) for x in xs]
        self.row = {
            "kind": kind,
            "n": n,
            "m": cls.size,
            "k": k,
            "seed": seed if kind == "random" else None,
            "members": len(xs),
            "runs": len(self.order),
            "ideal_cost_mean": statistics.fmean(ideal[x].ideal_cost for x in xs),
        }
        self.medians, self.means = [], []

    def time_pass(self) -> None:
        times, queries, wrong = [], [], 0
        for x, trial in self.order:
            t0 = time.perf_counter()
            trace = self.run(x, trial)
            times.append(time.perf_counter() - t0)
            queries.append(trace.raw_queries)
            wrong += trace.identified != x
        self.medians.append(statistics.median(times))
        self.means.append(statistics.fmean(times))
        self.row["raw_queries_mean"] = statistics.fmean(queries)
        self.row["wrong_runs"] = wrong

    def result(self) -> dict:
        mean, raw = statistics.median(self.means), self.row["raw_queries_mean"]
        return {
            **self.row,
            "passes": len(self.means),
            "run_us_median": statistics.median(self.medians) * 1e6,
            "run_us_mean": mean * 1e6,
            "ns_per_raw_query": mean / raw * 1e9 if raw else None,
        }


def measure_all(classes, seed: int, members: int, runs: int, passes: int):
    """Yield the rows of ``classes``, their timed passes alternated; the
    work starts at the first row asked for."""
    prepared = [Runs(kind, n, m, k, seed, members, runs) for kind, n, m, k in classes]
    for _ in range(passes):
        for each in prepared:
            each.time_pass()
    for each in prepared:
        yield each.result()


def measure(
    kind: str, n: int, m: int | None, seed: int, members: int, runs: int, k: int | None = None
) -> dict:
    """The row of one class."""
    return next(measure_all([(kind, n, m, k)], seed, members, runs, PASSES))


def main(argv=None) -> int:
    rows = measure_all(CLASSES, SEED, MEMBERS, RUNS, PASSES)
    return benchlib.write_report(__file__, __doc__, rows, argv)


if __name__ == "__main__":
    benchlib.run_script(main)
