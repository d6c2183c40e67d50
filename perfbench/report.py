"""Run every workload and print every metric with its unit, direction and
sample count; with several seeds, also each metric's median and spread.

Usage (from the repository root)::

    python3 perfbench/report.py                      # seed 1, untraced + traced
    python3 perfbench/report.py --seeds 1-10 --trace 0 --workloads certify

Each run is a fresh ``perfbench/run.py`` process, so ``peak_rss_mib`` is the
high-water mark of one workload alone.  The spread of a metric over seeds is
the distance between its first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of its median; an
end-to-end metric counts as steady when that spread is below a third of its
bound.  Everything is also written to
``perfbench/out/report.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec.RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} failed ({proc.returncode}):\n{proc.stderr}")
    return json.loads(lines[-2])["report"], json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float]:
    """Median and the quartile distance as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec.WORKLOADS))
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", choices=["0", "1", "both"], default="both")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    bounds = {m["name"]: m["bound"] for m in spec.END_TO_END}
    results: dict = {}
    all_correct = True
    for workload in args.workloads.split(","):
        for trace in traces:
            runs = []
            for seed in seeds:
                report, result = run_once(workload, seed, trace)
                runs.append({"seed": seed, "report": report, "result": result})
                all_correct &= result["correct"]
                print(f"# {workload} trace={trace} seed={seed}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']} "
                      f"errors={report['errors']}", flush=True)
            results[f"{workload}/trace{trace}"] = runs
            print(f"\n{workload}  (trace {trace}, {len(seeds)} seed(s))")
            print(f"  {'metric':32} {'median':>14} {'unit':>10} {'better':>7} {'n':>6}"
                  f" {'spread':>8} {'bound/3':>8}")
            metrics = runs[0]["report"]["metrics"]
            for name, first in metrics.items():
                if not isinstance(first, dict) or "value" not in first:
                    continue
                values = [r["report"]["metrics"][name]["value"] for r in runs
                          if name in r["report"]["metrics"]]
                med, share = spread(values)
                bound = bounds.get(name) if trace == 0 else None
                flag = ""
                if bound is not None and len(values) > 1:
                    flag = "" if share < bound / 3 else "  UNSTEADY"
                extra = "".join(f" {k}={first[k]}" for k in ("percentile", "base")
                                if k in first)
                if "base" in first:
                    extra += f" ({statistics.median(r['report']['metrics'][name]['base_value'] for r in runs):.6g})"
                print(f"  {name:32} {med:14.6g} {first['unit']:>10} {first['better']:>7}"
                      f" {first['n']:>6} {share:8.2%} "
                      f"{'' if bound is None else f'{bound / 3:8.2%}'}{extra}{flag}")
            if trace == 1:
                print(f"  layer self time, s/op: {runs[0]['report']['metrics']['layer_self_s']}")
    print(f"\ncontext: {json.dumps(runs[0]['report']['context'])}")
    for note in spec.NOTES:
        print(f"note: {note}")
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / "report.json").write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
