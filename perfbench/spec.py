"""What the benchmark measures, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single source of the
workloads and of the gated metrics.  ``END_TO_END`` metrics are measured
with tracing off and printed on the last line of every ``--trace 0`` run;
each has the bound by which it may worsen before a change counts as a
regression.  ``PER_LAYER`` metrics come from the separate ``--trace 1``
run and have no bound.  The gated op times are scaled to the reference
speed of ``speed.py``'s probe.  ``REPORTED`` metrics, kept here, are the raw
op times and the probe's own time, and end-to-end figures that exist only on
some workloads (or are always 0 on a healthy run, like ``fail_rate``); they
are printed on the report line with their unit, direction and sample count,
but not gated.
"""

from __future__ import annotations

import json
from pathlib import Path

_BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

PATHS = _BENCHMARK["paths"]
RUN_SECONDS = _BENCHMARK["run_seconds"]
WORKLOADS = _BENCHMARK["workloads"]
END_TO_END = _BENCHMARK["end_to_end"]
# Counts are per op over the first traced pass, so they repeat exactly for
# one seed; times are means per op over every traced op.
PER_LAYER = _BENCHMARK["per_layer"]

REPORTED = [
    {"name": "setup_wall_s", "unit": "s", "better": "lower"},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher"},
    {"name": "op_ms_p50", "unit": "ms", "better": "lower"},
    {"name": "probe_ms", "unit": "ms", "better": "lower"},
    {"name": "fail_rate", "unit": "ratio", "better": "lower"},
    {"name": "op_ms_tail", "unit": "ms", "better": "lower"},
    {"name": "raw_queries_mean", "unit": "queries", "better": "lower"},
    {"name": "raw_queries_p95", "unit": "queries", "better": "lower"},
    {"name": "raw_over_ideal", "unit": "ratio", "better": "lower"},
    {"name": "raw_over_classical", "unit": "ratio", "better": "lower"},
    {"name": "cert_cost_ratio", "unit": "ratio", "better": "lower"},
]

# Defects the benchmark steps around by construction (it draws its own
# random classes and calls gamma_hat exactly on at most 16 members).
NOTES = [
    "gamma_hat(..., subset_samples=...) raises 'ValueError: high is out of bounds for int64' "
    "for classes of >= 63 members (bounds.py:279: rng.integers(1, 2**m) overflows int64).",
    "generate_class('random', n) fails for n >= 64 with the same int64 overflow "
    "(bitstrings.py:391: rng.integers(0, 2**n)).",
    "Cython is not installed on the measuring machine, so every figure is for the pure-Python "
    "kernel backend (KERNEL_BACKEND='python'), not for the compiled kernels.",
]

