"""Time the SDP pipeline build and its feasibility checks at scale.

    python3 scripts/bench_sdp.py [--out BENCH_sdp.json]

For each random class of ``N`` bits and ``M`` members in ``CLASSES`` (seed
``SEED``) it times, ``REPEATS`` times over, and records the median of each:

* the cold pruning tree: ``ordering._greedy`` with an empty ordering cache;
* the rest of the build: ``oracle_id_pipeline`` on that tree;
* the cost: ``cost_of`` on the chained solution, once more, apart from the
  build (which computes it too);
* the stage checks: ``verify_feasible`` on every stage target;
* the ``J - I`` check of the chained solution, as the label target
  ``LabelTarget(zeros, arange)``, twice: after the stage checks, reading
  their proofs (``identity_after_stages_s``), and cold
  (``identity_check_s``), its parts made again (untimed) so that none is
  proved yet, as on a fresh pipeline before any stage check.

Each repeat takes a fresh copy of the class, so the stage checks also pay
for the class's cached bit matrix (``ConceptClass.bits``).  A check proves
the pipeline's scan parts from their ranks, one part at a time, in
O(stages * M * N), and each part is proved once per class: after the stage
checks, ``J - I`` reads their proofs and checks only that the parts chain,
in O(stages * M).  The cost reads each part's row norms off its ranks, in
O(stages * M), and writes no row.  At N=10, M=150 a part is small enough
that its check is mostly per-call overhead; N=13, M=400 is the size the
``certify`` benchmark workload certifies.  The tree is timed apart because
it dominates a cold build at M = 10^5.

It records the worst residual of each check, the stage count, the largest
certified cost and the process's peak RSS so far, with the machine it ran
on, and writes them as JSON.  BLAS runs on one thread unless the
environment already says otherwise.
"""

from __future__ import annotations

import dataclasses
import resource
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

CLASSES = ((10, 150), (13, 400), (16, 2000), (20, 10_000), (24, 100_000))  # (N, M) of each random class
SEED = 1
REPEATS = 3


def measure(n: int, m: int, seed: int, repeats: int) -> dict:
    import numpy as np

    from oracleid.bitstrings import ConceptClass, generate_class
    from oracleid.ordering import _greedy, clear_ordering_cache
    from oracleid.sdp import LabelTarget, SdpSolution, cost_of, oracle_id_pipeline, verify_feasible

    first = generate_class("random", n, size=m, seed=seed)
    identity = LabelTarget(np.zeros(first.size, dtype=np.intp), np.arange(first.size))
    times = {key: [] for key in ("tree_s", "build_s", "cost_s", "stage_checks_s",
                                 "identity_after_stages_s", "identity_check_s")}
    for _ in range(repeats):
        pipe = unproved = None  # the last repeat's parts are not held through this build
        cls = ConceptClass(first.n, first.members)  # nothing cached on it yet
        clear_ordering_cache()
        t0 = time.perf_counter()
        _greedy(cls.n, cls.values)
        t1 = time.perf_counter()
        pipe = oracle_id_pipeline(cls)
        t2 = time.perf_counter()
        cost_of(pipe.solution)
        t3 = time.perf_counter()
        stage_residuals = [verify_feasible(t, s) for s, t in zip(pipe.stage_solutions, pipe.stage_targets)]
        t4 = time.perf_counter()
        verify_feasible(identity, pipe.solution)
        t5 = time.perf_counter()
        # the same parts on the same arrays, made again: none proved yet
        unproved = SdpSolution(cls, [dataclasses.replace(part) for part in pipe.solution.parts])
        t6 = time.perf_counter()
        identity_residual = verify_feasible(identity, unproved)
        t7 = time.perf_counter()
        for key, seconds in zip(times, (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t7 - t6)):
            times[key].append(seconds)
    return {
        "kind": "random",
        "n": n,
        "m": cls.size,
        "seed": seed,
        "stages": len(pipe.stage_solutions),
        **{key: statistics.median(runs) for key, runs in times.items()},
        "runs": times,
        "worst_stage_residual": max(stage_residuals, default=0.0),
        "identity_residual": identity_residual,
        "max_cost": pipe.cost.max_value,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def main(argv=None) -> int:
    rows = (measure(n, m, SEED, REPEATS) for n, m in CLASSES)
    return benchlib.write_report(__file__, __doc__, rows, argv)


if __name__ == "__main__":
    benchlib.run_script(main)
