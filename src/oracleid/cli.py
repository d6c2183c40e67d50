"""Command-line harness: class generation, identification runs, verification
suites, and bound sweeps.

Subcommands::

    oracleid gen    --kind hamming1 --n 3 [--seed S] [--output FILE]
    oracleid run    --class-file C.json (--x 010 | --all) [--engine ideal|quantum]
                    [--trials T] [--algorithm final|improved|basic] [--jobs J]
    oracleid verify --suite ordering|sdp|lp|all [--n N] [--m M] [--class-file C]
                    [--tolerance T]
    oracleid bounds --grid "N=4,8;M=4,16" [--output FILE]

Per-trace output is JSON lines (one object per run, then a summary object);
sweeps are CSV.  gen and run are deterministic given --seed (default 0);
verify and bounds draw nothing at random.  run and bounds spread their
work over --jobs worker processes.  verify and bounds exit nonzero when
any check fails; run exits nonzero only on hard errors (statistical
misidentification by the quantum engine is reported in the summary, not
an error).  Invalid input (a bad value, an unreadable file) ends with one
``oracleid: error:`` line on stderr and exit code 2.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import bounds as bounds_mod
from . import qsim, sdp
from .bitstrings import _KIND_READS, BitString, ConceptClass, generate_class
from .identify import (
    PromiseViolation,
    run_final,
    run_halving_basic,
    run_halving_improved,
)
from .ordering import hegedus_ordering, verify_ordering

_ALGORITHMS = {
    "basic": run_halving_basic,
    "improved": run_halving_improved,
    "final": run_final,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved run parameters, echoed verbatim into every report."""

    seed: int
    engine: str
    trials: int
    output: str | None
    class_source: str | None
    algorithm: str = "final"
    jobs: int = 1


def _check_tolerance(tolerance: float) -> None:
    # inf would pass every check, whatever its violation; nan would fail them all
    if not 0 <= tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and non-negative, got {tolerance}")


def _check_positive(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"--{flag} must be positive, got {value}")


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"--seed must be non-negative, got {seed}")


def _emit(text: str, output: str | None) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _starmap(fn, arg_tuples: list[tuple], jobs: int) -> list:
    """``fn(*args)`` for each tuple, in order: in this process, or spread over
    up to ``jobs`` worker processes."""
    if jobs > 1 and len(arg_tuples) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(arg_tuples))) as pool:
            return list(pool.map(fn, *zip(*arg_tuples)))
    return [fn(*args) for args in arg_tuples]


# ---------------------------------------------------------------- gen

def cmd_gen(args) -> int:
    _check_seed(args.seed)
    cls = generate_class(
        args.kind,
        args.n,
        k=args.k,
        free_bits=args.free_bits,
        size=args.m,
        seed=args.seed,
    )
    _emit(cls.to_json() + "\n", args.output)
    return 0


# ---------------------------------------------------------------- run

def _run_rows(cls: ConceptClass, xs: list[str], algorithm: str, engine: str,
              trials: int, seed: int) -> list[dict]:
    runner = _ALGORITHMS[algorithm]
    rows = []
    for x_text in xs:
        x = BitString.from_str(x_text)
        for trial in range(trials):
            trial_seed = np.random.SeedSequence((seed, x.value, trial))
            row: dict = {"trial": trial}
            try:
                trace = runner(cls, x, engine, seed=trial_seed)
                row.update(trace.to_dict())
                row["success"] = trace.identified == x
                row["error"] = None
            except PromiseViolation as exc:
                row.update({"x": x_text, "success": False, "error": str(exc)})
            rows.append(row)
    return rows


def cmd_run(args) -> int:
    if args.all == (args.x is not None):
        raise ValueError("run needs one of --x and --all")
    _check_positive("trials", args.trials)
    _check_positive("jobs", args.jobs)
    _check_seed(args.seed)
    cls = ConceptClass.load(args.class_file)
    if args.all:
        xs = [str(m) for m in cls.members]
    else:
        try:
            member = BitString.from_str(args.x) in cls
        except ValueError:  # not a binary string
            member = False
        if not member:
            raise ValueError(f"--x {args.x} is not a member of the class")
        xs = [args.x]

    config = ExperimentConfig(
        seed=args.seed,
        engine=args.engine,
        trials=args.trials,
        output=args.output,
        class_source=args.class_file,
        algorithm=args.algorithm,
        jobs=args.jobs,
    )
    # the class is parsed once; each worker gets it with one slice of members
    step = -(-len(xs) // args.jobs)
    jobs = [(cls, xs[i:i + step], args.algorithm, args.engine, args.trials, args.seed)
            for i in range(0, len(xs), step)]
    results = _starmap(_run_rows, jobs, args.jobs)

    lines = []
    rows = [row for batch in results for row in batch]
    for row in rows:
        lines.append(_json_line(row))
    successes = sum(1 for row in rows if row["success"])
    raw = [row.get("raw_queries", 0) for row in rows if row["error"] is None]
    ideal = [row.get("ideal_cost", 0.0) for row in rows if row["error"] is None]
    summary = {
        "summary": True,
        "config": asdict(config),
        "search_config": asdict(qsim.DEFAULT_CONFIG),
        "runs": len(rows),
        "success_rate": successes / len(rows) if rows else 0.0,
        "mean_raw_queries": float(np.mean(raw)) if raw else 0.0,
        "mean_ideal_cost": float(np.mean(ideal)) if ideal else 0.0,
        "errors": sum(1 for row in rows if row["error"] is not None),
    }
    lines.append(_json_line(summary))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# ---------------------------------------------------------------- verify

def _verify_ordering_suite(n: int, tolerance: float, checks: list) -> None:
    base = [BitString(n, v) for v in range(1 << n)]
    worst = 0.0
    worst_order = None
    count = 0
    for mask in range(1, 1 << len(base)):
        # one class per subset, validated once and read by both calls
        subset = ConceptClass(n, tuple(base[i] for i in range(len(base)) if (mask >> i) & 1))
        order = hegedus_ordering(subset)
        ratio = verify_ordering(subset, order)
        if ratio >= worst:
            worst, worst_order = ratio, order
        count += 1
    checks.append({
        "check": f"ordering: every nonempty subset of {{0,1}}^{n} ({count} sets) "
                 f"prunes within the guarantee",
        "passed": worst <= 1.0 + tolerance,
        "detail": f"worst ratio {worst:.6f}",
        "worst_ordering": worst_order.to_dict() if worst_order else None,
    })


def _verify_sdp_suite(
    class_file: str | None, tolerance: float, checks: list, dump: bool = False
) -> None:
    if class_file:
        cls = ConceptClass.load(class_file)
    else:
        cls = generate_class("hamming1", 3)
    pipe = sdp.oracle_id_pipeline(cls)
    target = sdp.LabelTarget(np.zeros(cls.size, dtype=np.intp), np.arange(cls.size))
    violation = sdp.verify_feasible(target, pipe.solution)
    entry = {
        "check": f"sdp: identification solution feasible for J - I on {cls.size} members",
        "passed": violation <= tolerance,
        "detail": f"max violation {violation:.3e}",
        "matrix": "J - I",
        "max_violation": violation,
        "cost": {str(x): pipe.cost(x) for x in cls.members},
    }
    if dump:
        entry["vectors"] = {
            "u": pipe.solution.u.tolist(),
            "v": pipe.solution.v.tolist(),
        }
    checks.append(entry)
    for k, (sol, tgt) in enumerate(zip(pipe.stage_solutions, pipe.stage_targets), 1):
        v = sdp.verify_feasible(tgt, sol)
        checks.append({
            "check": f"sdp: stage {k} feasible for its refinement target",
            "passed": v <= tolerance,
            "detail": f"max violation {v:.3e}",
            "matrix": f"gram(f_{k-1}) - gram(f_{k})",
            "max_violation": v,
        })
    the8 = sdp.find_first_one_solution(6)
    ranks = sdp.first_disagreement_ranks(the8.domain, tuple(range(6)), BitString.zeros(6), 6)
    target = sdp.LabelTarget(np.zeros(the8.size, dtype=np.intp), ranks)
    v8 = sdp.verify_feasible(target, the8)
    checks.append({
        "check": "sdp: first-disagreement solution feasible on the 6-bit cube",
        "passed": v8 <= tolerance,
        "detail": f"max violation {v8:.3e}",
        "matrix": "J - F (first disagreement, width 6)",
        "max_violation": v8,
    })


def _verify_lp_suite(n: int, m: int, tolerance: float, checks: list) -> None:
    cert = bounds_mod.check_dual_certificate(n, m, tol=tolerance)
    checks.append({
        "check": f"lp: dual certificate feasible at N={n}, m={m}",
        "passed": cert.feasible,
        "detail": f"min slack {cert.min_slack:.6f}",
    })
    primal = bounds_mod.lp_primal_opt(n, m)
    checks.append({
        "check": f"lp: weak duality (primal <= dual) at N={n}, m={m}",
        "passed": primal <= cert.dual_value + tolerance,
        "detail": f"primal {primal:.6f}, dual {cert.dual_value:.6f}",
    })
    if n <= 12:
        brute, _ = bounds_mod.brute_force_cost(1 << m, n)
        checks.append({
            "check": f"lp: exhaustive optimum <= primal at N={n}, M=2^{m}",
            "passed": brute <= primal + tolerance,
            "detail": f"brute {brute:.6f}, primal {primal:.6f}",
        })


# the options each suite reads, with their defaults; "all" runs the lp
# suite at N=8, so there --n is the ordering suite's alone
_VERIFY_DEFAULTS = {"n": 4, "m": 3, "class_file": None}
_SUITE_READS = {"ordering": ("n",), "sdp": ("class_file",), "lp": ("n", "m"),
                "all": ("n", "m", "class_file")}


def cmd_verify(args) -> int:
    _check_tolerance(args.tolerance)
    reads = _SUITE_READS[args.suite]
    given = {k: getattr(args, k) for k in _VERIFY_DEFAULTS}
    unread = [f"--{k.replace('_', '-')}" for k, v in given.items()
              if v is not None and k not in reads]
    if unread:
        raise ValueError(f"the {args.suite} suite does not read {' or '.join(unread)}")
    resolved = {k: _VERIFY_DEFAULTS[k] if v is None else v for k, v in given.items()}
    # the config echoes only what the suites run read
    config = {k: resolved[k] for k in reads}
    config["tolerance"] = args.tolerance
    n, m = resolved["n"], resolved["m"]
    checks: list[dict] = []
    if args.suite in ("ordering", "all"):
        if not 1 <= n <= 4:
            raise ValueError("the ordering suite is exhaustive and needs 1 <= --n <= 4")
        _verify_ordering_suite(n, args.tolerance, checks)
    if args.suite in ("sdp", "all"):
        _verify_sdp_suite(args.class_file, args.tolerance, checks, dump=args.dump)
    if args.suite in ("lp", "all"):
        _verify_lp_suite(n if args.suite == "lp" else 8, m, args.tolerance, checks)

    all_passed = all(c["passed"] for c in checks)
    for c in checks:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['check']} ({c['detail']})")
    report = {
        "suite": args.suite,
        "passed": all_passed,
        "checks": checks,
        "config": config,
    }
    if args.output:
        _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
    return 0 if all_passed else 1


# ---------------------------------------------------------------- bounds

def _parse_grid(text: str) -> tuple[list[int], list[int]]:
    axes: dict[str, list[int]] = {}
    cap = bounds_mod._EXHAUSTIVE_N_CAP
    if text.strip():
        for part in text.split(";"):
            key, _, values = part.partition("=")
            key = key.strip().upper()
            if key not in ("N", "M"):
                raise ValueError(f"unknown grid axis {key!r}")
            if key in axes:
                raise ValueError(f"grid axis {key} is given twice")
            parsed = []
            for v in filter(str.strip, values.split(",")):
                try:
                    parsed.append(int(v))
                except ValueError:
                    raise ValueError(f"grid axis {key} needs integer values, got {v.strip()!r}") from None
            axes[key] = parsed
            least = 1 if key == "N" else 2  # a string has at least 1 bit, a class 2 members
            for v in parsed:
                if v < least:
                    raise ValueError(f"grid axis {key} needs values >= {least}, got {v}")
                if key == "N" and v > cap:
                    raise ValueError(f"grid axis N needs values <= {cap} "
                                     f"(the exhaustive optimum's cap), got {v}")
    return axes.get("N", []), axes.get("M", [])


def cmd_bounds(args) -> int:
    _check_tolerance(args.tolerance)
    _check_positive("jobs", args.jobs)
    ns, ms = _parse_grid(args.grid)
    cells = [(m, n) for n in ns for m in ms if m <= (1 << n)]
    reports = _starmap(bounds_mod.build_report, cells, args.jobs)
    lines = [bounds_mod.CSV_HEADER]
    lines += [rep.to_csv_row() for rep in reports]
    _emit("\n".join(lines) + "\n", args.output)
    ok = all(
        rep.brute_force_C <= rep.lp_primal + args.tolerance
        and rep.lp_primal <= rep.lp_dual + args.tolerance
        for rep in reports
    )
    return 0 if ok else 1


# ---------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oracleid",
        description="identification-problem laboratory",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a concept-class JSON file")
    gen.add_argument("--kind", required=True, choices=list(_KIND_READS))
    gen.add_argument("--n", type=int, required=True, help="string length")
    gen.add_argument("--k", type=int, default=None, help="Hamming weight")
    gen.add_argument("--free-bits", type=int, default=None)
    gen.add_argument("--m", type=int, default=None, help="random-class size")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", "-o", default=None)
    gen.set_defaults(func=cmd_gen)

    run = sub.add_parser("run", help="run identification and emit JSON-line traces")
    run.add_argument("--class-file", required=True)
    run.add_argument("--x", default=None, help="hidden string (ASCII bits)")
    run.add_argument("--all", action="store_true", help="run every member")
    run.add_argument("--engine", choices=["ideal", "quantum"], default="ideal")
    run.add_argument("--algorithm", choices=sorted(_ALGORITHMS), default="final")
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--jobs", type=int, default=1)
    run.add_argument("--output", "-o", default=None)
    run.set_defaults(func=cmd_run)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=["ordering", "sdp", "lp", "all"],
                        required=True)
    verify.add_argument("--n", type=int, default=None,
                        help="string length (ordering, lp; default 4)")
    verify.add_argument("--m", type=int, default=None,
                        help="log2 of the class size (lp; default 3)")
    verify.add_argument("--class-file", default=None)
    verify.add_argument("--dump", action="store_true",
                        help="include solution vectors in the JSON report")
    verify.add_argument("--tolerance", type=float, default=1e-9)
    verify.add_argument("--output", "-o", default=None)
    verify.set_defaults(func=cmd_verify)

    bounds = sub.add_parser("bounds", help="sweep bound formulas over a grid")
    bounds.add_argument("--grid", required=True,
                        help='e.g. "N=4,8;M=4,16" (cells with M > 2^N are skipped)')
    bounds.add_argument("--tolerance", type=float, default=1e-9)
    bounds.add_argument("--jobs", type=int, default=1)
    bounds.add_argument("--output", "-o", default=None)
    bounds.set_defaults(func=cmd_bounds)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # bad input: one line, argparse's exit code
        print(f"oracleid: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
