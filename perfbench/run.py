"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload qsearch-wide --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout this file sits in.
``--trace 0`` measures the end-to-end metrics with tracing off, with the
gated times scaled to the reference speed of ``speed.py``'s probe; ``--trace 1``
alternates untraced and traced passes and reports the per-layer metrics
and the tracing overhead.  The last stdout line is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is a ``report`` object with every metric's unit, direction and
sample count, the run context, any errors and the notes.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 5
# Timed in a fresh interpreter on every set-up repetition, so that each
# repetition pays for the import as a new process does.
IMPORT_PROBE = """\
import sys, time
sys.path[:0] = sys.argv[1:]
t0 = time.perf_counter()
import numpy, oracleid, oracleid.qsim, oracleid.ordering, spec, workloads
print(time.perf_counter() - t0)
"""
TAIL_PERCENTILES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0)
CLI_CHECK_MEMBERS = 3
CLI_CHECK_TRIALS = 2
# One BLAS thread keeps the verify matmuls steady on a small shared machine.
BLAS_THREADS = "1"
LAYERS = ("kernels", "qsim", "ordering", "identify", "sdp", "bounds", "bench")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["qsearch-wide", "qsearch-deep", "certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--scale", choices=["full", "tiny"], default="full",
                        help="input sizes; 'tiny' is for the self-test")
    return parser.parse_args(argv)


@dataclass
class Measured:
    durations: list[float] = field(default_factory=list)  # seconds per op
    starts: list[float] = field(default_factory=list)  # perf_counter() at each op's start
    elapsed: float = 0.0  # summed wall time of the passes
    first: list = field(default_factory=list)  # outcomes of the first pass, the count window
    failures: list = field(default_factory=list)  # outcomes that failed their checks

    @property
    def ops_per_s(self) -> float:
        return len(self.durations) / self.elapsed

    def add(self, outcomes, durations, starts, elapsed) -> None:
        """Fold in one pass, as ``run_pass`` returns it."""
        self.durations += durations
        self.starts += starts
        self.elapsed += elapsed
        self.failures += [o for o in outcomes if not o.ok]
        self.first = self.first or outcomes


def run_pass(wl, engine, call, run_op=None, probe=None):
    """One pass over the workload's ops on a cold ordering cache.

    With a ``speed.Probe``, the probe runs between ops when one is due.
    Returns the outcomes, the per-op seconds and start times, and the
    pass's wall time without the probes.
    """
    from oracleid.ordering import clear_ordering_cache

    outcomes, durations, starts = [], [], []
    probing = 0.0
    start = time.perf_counter()
    clear_ordering_cache()
    for item in wl.pass_ops:
        t0 = time.perf_counter()
        if run_op is None:
            out = wl.op(item, engine, call)
        else:
            out = run_op(wl.op, item, engine, call)
        durations.append(time.perf_counter() - t0)
        starts.append(t0)
        outcomes.append(out)
        if probe is not None:
            probing += probe.after(durations[-1])
    return outcomes, durations, starts, time.perf_counter() - start - probing


def measure(wl, engine, call, seconds, probe) -> Measured:
    """Closed loop over whole passes until ``seconds`` of wall time have passed."""
    run = Measured()
    deadline = time.perf_counter() + seconds
    while not run.first or time.perf_counter() < deadline:
        run.add(*run_pass(wl, engine, call, probe=probe))
    return run


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import the program and the benchmark."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "src"), str(ROOT / "perfbench")],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(probe.stdout)


def tail(durations):
    """Highest listed percentile with at least ten ops beyond it (nearest rank)."""
    n = len(durations)
    ordered = sorted(durations)
    for q in TAIL_PERCENTILES:
        if n * (1 - q / 100) >= 10:
            return q, ordered[math.ceil(q / 100 * n) - 1]
    return None


def blas_threads(np):
    """Thread count reported by numpy's bundled OpenBLAS, if it can be read."""
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cli_equivalence(seed, scale):
    """Run ``oracleid run --engine quantum`` in-process on a few qsearch-wide
    pairs and compare its JSON rows with the library-path traces.

    Returns None when they match, else a description of the first mismatch.
    """
    from oracleid import cli

    import workloads

    wide = workloads.make("qsearch-wide", scale)
    cls = wide.build_class(seed)
    wide.seed, wide.cls = seed, cls
    step = max(1, cls.size // CLI_CHECK_MEMBERS)
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        class_path = Path(tmp) / "class.json"
        cls.save(class_path)
        for x in cls.members[::step][:CLI_CHECK_MEMBERS]:
            rows_path = Path(tmp) / f"{x}.jsonl"
            code = cli.main(["run", "--class-file", str(class_path), "--x", str(x),
                             "--engine", "quantum", "--trials", str(CLI_CHECK_TRIALS),
                             "--seed", str(seed), "-o", str(rows_path)])
            if code != 0:
                return f"oracleid run exited {code} for x={x}"
            rows = [json.loads(line) for line in rows_path.read_text().splitlines()]
            runs = [row for row in rows if not row.get("summary")]
            if len(runs) != CLI_CHECK_TRIALS:
                return f"oracleid run gave {len(runs)} rows for x={x}"
            for trial, row in enumerate(runs):
                out = wide.op((x, trial), "quantum", workloads.plain_call)
                expect = {"trial": trial, **out.trace.to_dict(),
                          "success": out.trace.identified == x, "error": None}
                if row != expect:
                    return f"CLI row differs for x={x} trial={trial}: {row} != {expect}"
    return None


class Report(dict):
    """Metric name -> {value, unit, better, n, ...extra} in spec order."""

    def __init__(self, specs):
        super().__init__()
        self.specs = specs

    def add(self, name, value, n, **extra):
        spec = self.specs[name]
        self[name] = {"value": value, "unit": spec["unit"], "better": spec["better"], "n": n,
                      **extra}


def end_to_end(wl, args, setup_times, import_times, setup_probe, report):
    """Untraced run: fills the end-to-end and reported metrics.

    Gated times are scaled to the probe's reference speed, set-up times by
    the probes taken between set-up repetitions and op times by those taken
    between ops.
    """
    import speed
    from workloads import plain_call

    probe = speed.Probe()
    run = measure(wl, "quantum", plain_call, args.seconds, probe)
    counts = wl.count_metrics(run.first)
    ops = len(run.durations)
    op_ms_p50 = statistics.median(run.durations) * 1e3
    scale = probe.scale()
    local = probe.local_scales(run.starts, run.durations)
    setup_wall_s = statistics.median(setup_times)
    report.add("setup_s", setup_wall_s * setup_probe.scale(), SETUP_REPS)
    report.add("ops_per_s_ref", run.ops_per_s / scale, ops)
    report.add("op_ms_p50_ref",
               statistics.median(d * k for d, k in zip(run.durations, local)) * 1e3, ops)
    report.add("peak_rss_mib", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    base = "ideal_cost_sum" if "ideal_cost_sum" in counts else "ideal_cost_mean"
    report.add("cost_over_ideal", *counts["cost_over_ideal"], base=base,
               base_value=counts[base][0])
    report.add("setup_wall_s", setup_wall_s, SETUP_REPS,
               setup_reps_s=setup_times, import_reps_s=import_times)
    report.add("ops_per_s", run.ops_per_s, ops)
    report.add("op_ms_p50", op_ms_p50, ops)
    report.add("probe_ms", 1e3 * statistics.fmean(probe.times), len(probe.times),
               ref_ms=1e3 * speed.REF_PROBE_S,
               setup_ms=1e3 * statistics.fmean(setup_probe.times))
    report.add("fail_rate", len(run.failures) / ops, ops)
    tail_q = tail(run.durations)
    if tail_q is not None:
        report.add("op_ms_tail", tail_q[1] * 1e3, ops, percentile=tail_q[0])
    for name in ("raw_queries_mean", "raw_queries_p95", "cert_cost_ratio"):
        if name in counts:
            report.add(name, *counts[name])
    for name, base in (("raw_over_ideal", "ideal_cost_mean"),
                       ("raw_over_classical", "classical_queries_mean")):
        if name in counts:
            report.add(name, *counts[name], base=base, base_value=counts[base][0])
    return run, ops, []


def per_layer(wl, args, build_times, report):
    """Untraced and traced passes in turn: fills the per-layer metrics.

    Each pair of adjacent passes gives one overhead ratio, and
    ``trace.overhead`` is their median, so drift in machine speed over the
    run cancels; every other pair runs the traced pass first.
    """
    import tracing
    from workloads import plain_call

    tracer = tracing.Tracer()
    engine = tracing.TracedFinder(tracer)
    untraced, traced = Measured(), Measured()
    window: dict = {}  # the tracer's counts after the first traced pass
    overheads = []  # 1 - untraced / traced pass time, per pair
    while not overheads or untraced.elapsed + traced.elapsed < args.seconds:
        pass_s = {}
        for is_traced in (False, True) if len(overheads) % 2 == 0 else (True, False):
            if is_traced:
                tracer.install()
                try:
                    one = run_pass(wl, engine, tracer.call, run_op=tracer.run_op)
                finally:
                    tracer.uninstall()
                if not traced.first:
                    window.update(tracer.counts)
            else:
                one = run_pass(wl, "quantum", plain_call)
            (traced if is_traced else untraced).add(*one)
            pass_s[is_traced] = one[-1]
        overheads.append(1 - pass_s[False] / pass_s[True])

    errors = []

    def outputs(run):
        return [(o.ok, o.trace.to_dict() if o.trace else None, o.info) for o in run.first]

    if outputs(traced) != outputs(untraced):
        errors.append("traced outputs differ from untraced outputs")
    totals, op_walls, gap = tracer.summary()
    if gap > 1e-9 * max(1.0, max(op_walls)):
        errors.append(f"layer self times miss the op wall time by {gap:.3e} s")

    n_ops = len(op_walls)
    pass_len = len(wl.pass_ops)
    counts = wl.count_metrics(traced.first)

    def per_op(key):  # seconds per op over every traced op
        return totals.get(key, 0.0) / n_ops, n_ops

    def per_pass_op(key):  # count per op over the count window
        return window.get(key, 0) / pass_len, pass_len

    def ratio(num, den):
        return (num / den if den else 0.0), den

    finder_calls = window.get("finder.calls", 0)
    hits, misses = window.get("greedy.hits", 0), window.get("greedy.misses", 0)
    raw_total = counts.get("raw_queries_total", (0, 0))[0]
    peaks = wl.alloc_peaks() if hasattr(wl, "alloc_peaks") else {}
    layer = {
        "kernels.grover_run.calls": per_pass_op("grover.calls"),
        "kernels.grover_run.iterations": per_pass_op("grover.iterations"),
        "kernels.grover_run.s": per_op("kernels.grover_run.s"),
        "kernels.index_probabilities.s": per_op("kernels.index_probabilities.s"),
        "kernels.amp_bytes_computed": per_pass_op("amp_bytes"),
        "qsim.finder.calls": per_pass_op("finder.calls"),
        "qsim.finder.s": per_op("qsim.finder.s"),
        "qsim.finder.self_s": per_op("qsim.finder.self_s"),
        "qsim.finder.exact_ratio": ratio(window.get("finder.exact", 0), finder_calls),
        "qsim.queries_per_call": ratio(raw_total, finder_calls),
        "qsim.verify_queries": ((raw_total - window.get("grover.iterations", 0)) / pass_len,
                                pass_len),
        "ordering.greedy.calls": ((hits + misses) / pass_len, pass_len),
        "ordering.greedy.s": per_op("ordering.greedy.s"),
        "ordering.cache_hit_ratio": ratio(hits, hits + misses),
        "ordering.cache_hits": per_pass_op("greedy.hits"),
        "ordering.cache_misses": per_pass_op("greedy.misses"),
        "identify.run.s": per_op("identify.run.s"),
        "identify.self_s": (per_op("identify.run.self_s")[0]
                            + per_op("identify.identify_all.self_s")[0], n_ops),
        "identify.iterations_per_run": counts.get("iterations_per_run", (0.0, 0)),
        "identify.identify_all.s": per_op("identify.identify_all.s"),
        "sdp.pipeline.s": per_op("sdp.pipeline.s"),
        "sdp.verify.s": per_op("sdp.verify.s"),
        "sdp.verify_stages.s": per_op("sdp.verify_stages.s"),
        "sdp.pipeline.alloc_peak_mib": (peaks.get("pipeline", 0.0), int(bool(peaks))),
        "sdp.verify.alloc_peak_mib": (peaks.get("verify", 0.0), int(bool(peaks))),
        "sdp.solution_dim": counts.get("solution_dim", (0, 0)),
        "sdp.stages": counts.get("stages", (0, 0)),
        "bounds.build_report.s": per_op("bounds.build_report.s"),
        "bounds.gamma_hat.s": per_op("bounds.gamma_hat.s"),
        "bitstrings.class_build.s": (statistics.median(build_times), SETUP_REPS),
        "bench.self_s": per_op(tracing.ROOT + ".self_s"),
        "trace.op_s": (sum(op_walls) / n_ops, n_ops),
        "trace.ops_per_s_untraced": (untraced.ops_per_s, len(untraced.durations)),
        "trace.ops_per_s_traced": (traced.ops_per_s, len(traced.durations)),
        "trace.overhead": (statistics.median(overheads), len(overheads)),
    }
    for name, (value, n) in layer.items():
        report.add(name, value, n)
    report["trace.overhead"]["pairs"] = overheads
    report["layer_self_s"] = {
        prefix: sum(v for k, v in totals.items()
                    if k.startswith(prefix + ".") and k.endswith(".self_s")) / n_ops
        for prefix in LAYERS
    }
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(spans_path)
    report["spans_file"] = str(spans_path.relative_to(ROOT))
    run = Measured(untraced.durations + traced.durations, [], untraced.elapsed + traced.elapsed,
                   traced.first, untraced.failures + traced.failures)
    return run, len(run.durations), errors


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "oracleid" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'oracleid'} is missing",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))

    import numpy as np

    import oracleid
    from oracleid import qsim
    from oracleid.ordering import clear_ordering_cache

    import spec
    import speed
    import workloads

    if not Path(oracleid.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported oracleid from {oracleid.__file__}, not from this checkout",
              file=sys.stderr)
        return 2

    wl = workloads.make(args.workload, args.scale)
    speed.probe()  # untimed warm-up
    setup_probe = speed.Probe()
    setup_times, import_times, build_times = [], [], []
    for _ in range(SETUP_REPS):
        import_times.append(import_seconds())
        clear_ordering_cache()
        t0 = time.perf_counter()
        cls = wl.build_class(args.seed)
        t1 = time.perf_counter()
        wl.setup(args.seed, cls)
        wl.op(wl.pass_ops[0], "quantum", workloads.plain_call)  # untimed warm-up op
        setup_times.append(import_times[-1] + time.perf_counter() - t0)
        build_times.append(t1 - t0)
        setup_probe.after(setup_times[-1])

    report = Report({m["name"]: m for m in spec.END_TO_END + spec.REPORTED + spec.PER_LAYER})
    if args.trace == 0:
        run, ops, errors = end_to_end(wl, args, setup_times, import_times, setup_probe, report)
        result_metrics = spec.END_TO_END
    else:
        run, ops, errors = per_layer(wl, args, build_times, report)
        result_metrics = spec.PER_LAYER
    mismatch = cli_equivalence(args.seed, args.scale)
    if mismatch:
        errors.append(mismatch)
    errors += [f"op failed: {o.error}" for o in run.failures[:5]]

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "sizes": wl.sizes,
        "pass_ops": len(wl.pass_ops),
        "client": "closed loop, one client, one op in flight",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "kernel_backend": getattr(oracleid, "KERNEL_BACKEND", None),
        "blas_threads": blas_threads(np),
        "search_config": asdict(qsim.DEFAULT_CONFIG),
    }
    print(json.dumps({"report": {"context": context, "metrics": report, "errors": errors,
                                 "notes": spec.NOTES}}))
    print(json.dumps({
        "correct": not errors,
        "attempted": ops,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": report[m["name"]]["value"], "unit": m["unit"]}
                    for m in result_metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
