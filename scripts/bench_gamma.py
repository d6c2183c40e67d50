"""Time exact ``gamma_hat`` on random classes of growing member count.

    python3 scripts/bench_gamma.py [--out BENCH_gamma.json]

For each member count in ``MEMBERS`` it draws a random class of ``N`` bits
with seed ``SEED``, times ``REPEATS`` exact ``gamma_hat`` calls and records
their median with the value and witness size, and writes them as JSON with
the machine it ran on (from ``benchlib.machine``).  Exact mode scores all
2^M subsets, so the time roughly doubles per member.
"""

from __future__ import annotations

import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchlib  # noqa: E402

MEMBERS = (12, 16, 18, 20)
N = 24
SEED = 1
REPEATS = 5


def measure(n: int, m: int, seed: int, repeats: int) -> dict:
    from oracleid.bitstrings import generate_class
    from oracleid.bounds import gamma_hat

    cls = generate_class("random", n, size=m, seed=seed)
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = gamma_hat(cls)
        runs.append(time.perf_counter() - t0)
    return {
        "n": n,
        "m": m,
        "seed": seed,
        "gamma_hat_s": statistics.median(runs),
        "runs": runs,
        "value": str(result.value),
        "witness_size": len(result.witness),
    }


def main(argv=None) -> int:
    rows = (measure(N, m, SEED, REPEATS) for m in MEMBERS)
    return benchlib.write_report(__file__, __doc__, rows, argv)


if __name__ == "__main__":
    benchlib.run_script(main)
