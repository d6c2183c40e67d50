"""Fast self-test of the benchmark at tiny input sizes.

Usage (from the repository root)::

    python3 perfbench/selftest.py

Runs every workload untraced and traced (``--scale tiny``, 1 s each), twice
with one seed, and checks that

* each run exits 0 with a correct result object of exactly the contract keys;
* every metric named in ``BENCHMARK.json`` or ``spec.py`` is present with a unit and a direction;
* the two invocations give identical count metrics;
* the layer self times of the traced run add up to its op time;
* ``run.py`` exits nonzero without printing a result in a directory that
  holds only ``BENCHMARK.json`` and ``perfbench/``.

Exits 1 and lists the failed checks if any fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import spec

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SEED = 7
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

COUNTS_UNTRACED = ["raw_queries_mean", "raw_queries_p95", "raw_over_ideal",
                   "raw_over_classical", "fail_rate", "cert_cost_ratio", "cost_over_ideal"]
COUNTS_TRACED = ["kernels.grover_run.calls", "kernels.grover_run.iterations",
                 "kernels.amp_bytes_computed", "qsim.finder.calls", "qsim.finder.exact_ratio",
                 "qsim.queries_per_call", "qsim.verify_queries", "ordering.greedy.calls",
                 "ordering.cache_hit_ratio", "identify.iterations_per_run",
                 "sdp.solution_dim", "sdp.stages"]

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300,
                          check=False)


def invocation(workload: str, trace: int) -> dict:
    proc = run(workload, trace)
    label = f"{workload} trace={trace}"
    lines = proc.stdout.splitlines()
    check(proc.returncode == 0 and len(lines) >= 2, f"{label}: exit {proc.returncode}\n"
          f"{proc.stderr[-2000:]}")
    if proc.returncode != 0 or len(lines) < 2:
        return {}
    report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
    check(set(result) == RESULT_KEYS, f"{label}: result keys {sorted(result)}")
    check(result["correct"] is True, f"{label}: not correct: {report['errors']}")
    check(result["attempted"] >= 1 and result["failed"] == 0,
          f"{label}: attempted {result['attempted']}, failed {result['failed']}")
    wanted = spec.END_TO_END if trace == 0 else spec.PER_LAYER
    check(set(result["metrics"]) == {m["name"] for m in wanted},
          f"{label}: result metrics {sorted(result['metrics'])}")
    named = list(wanted)
    if trace == 0:
        named += [m for m in spec.REPORTED if m["name"] in report["metrics"]]
        check("fail_rate" in report["metrics"], f"{label}: fail_rate missing")
        per_workload = ("cert_cost_ratio",) if workload == "certify" else (
            "raw_queries_mean", "raw_queries_p95", "raw_over_ideal", "raw_over_classical")
        for name in per_workload:
            check(name in report["metrics"], f"{label}: {name} missing")
    for m in named:
        got = report["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"] and got.get("better") == m["better"]
              and isinstance(got.get("n"), int),
              f"{label}: {m['name']} lacks unit/better/n: {got}")
    if trace == 1:
        op_s = report["metrics"]["trace.op_s"]["value"]
        self_sum = sum(report["metrics"]["layer_self_s"].values())
        check(abs(self_sum - op_s) <= 1e-9 * max(1.0, op_s),
              f"{label}: layer self times sum to {self_sum}, op time {op_s}")
    return report["metrics"]


def stripped_directory_fails() -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in spec.PATHS:
            shutil.copytree(ROOT / path, Path(tmp) / path,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("certify", 0, cwd=Path(tmp))
    check(proc.returncode != 0, "run.py exited 0 without the program")
    check('"correct"' not in proc.stdout, "run.py printed a result without the program")


def main() -> int:
    for w in spec.WORKLOADS:
        for trace, names in ((0, COUNTS_UNTRACED), (1, COUNTS_TRACED)):
            first, second = invocation(w["name"], trace), invocation(w["name"], trace)
            for name in names:
                a, b = first.get(name, {}).get("value"), second.get(name, {}).get("value")
                check(a == b, f"{w['name']} trace={trace}: {name} differs: {a} vs {b}")
    stripped_directory_fails()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
