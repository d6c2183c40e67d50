"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The headline guarantees are asymptotic, so acceptance works at desk scale
with exhaustive checks where feasible and explicit constant-factor
brackets everywhere else.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import random_class
from oracleid.bitstrings import BitString, ConceptClass, generate_class
from oracleid.bounds import (
    brute_force_cost,
    check_dual_certificate,
    closed_form_cost,
    gamma_hat,
    lower_bound_k,
    lp_primal_opt,
)
from oracleid.identify import identify_all, run_final
from oracleid.ordering import hegedus_ordering, verify_ordering
from oracleid import sdp


def report(tag: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag} [{'PASS' if passed else 'FAIL'}] {detail}")
    assert passed, f"{tag}: {detail}"


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def exact_runs():
    """Exact-engine traces: 10,000 sampled small classes plus the named
    families up to 12 bits; shared by the correctness and cost criteria."""
    rng = np.random.default_rng(20240917)
    collections = []
    for _ in range(10_000):
        size = int(rng.integers(1, 9))
        cls = random_class(rng, 4, size)
        collections.append(cls)
    for n in range(2, 13):
        collections.append(generate_class("cube", n))
        collections.append(generate_class("hamming1", n))
        collections.append(generate_class("prefix", n, free_bits=math.ceil(math.log2(n))))
    return [(cls, identify_all(cls)) for cls in collections]


# ---------------------------------------------------------------- criteria

def test_01_ordering_guarantee_exhaustive():
    start = time.perf_counter()
    base4 = [BitString(4, v) for v in range(16)]
    worst = 0.0
    checked = 0
    for mask in range(1, 1 << 16):
        subset = [base4[i] for i in range(16) if (mask >> i) & 1]
        worst = max(worst, verify_ordering(subset, hegedus_ordering(subset)))
        checked += 1
    rng = np.random.default_rng(1)
    for _ in range(500):
        cls = random_class(rng, 6, int(rng.integers(1, 65)))
        worst = max(worst, verify_ordering(cls, hegedus_ordering(cls)))
        checked += 1
    elapsed = time.perf_counter() - start
    report(
        "01",
        worst <= 1.0 and elapsed < 60.0,
        f"{checked} candidate sets, worst pruning ratio {worst:.6f}, {elapsed:.1f}s",
    )


def test_02_identification_correct_and_trace_bounded(exact_runs):
    runs = wrong = violations = 0
    for cls, traces in exact_runs:
        for x, trace in traces.items():
            runs += 1
            wrong += trace.identified != x
            if trace.sum_positions > cls.n or trace.pruning_product > cls.size:
                violations += 1
    report(
        "02",
        wrong == 0 and violations == 0,
        f"{runs} exact runs over {len(exact_runs)} classes: "
        f"{wrong} misidentified, {violations} trace-bound violations",
    )


def test_03_cost_within_the_program_optimum(exact_runs):
    budget_cache: dict[tuple[int, int], float] = {}
    violations = 0
    worst_margin = -math.inf
    for cls, traces in exact_runs:
        key = (cls.size, cls.n)
        if key not in budget_cache:
            budget_cache[key] = brute_force_cost(*key)[0]
        allowance = budget_cache[key] + math.sqrt(cls.n)
        for trace in traces.values():
            margin = trace.ideal_cost - allowance
            worst_margin = max(worst_margin, margin)
            violations += margin > 1e-9
    report(
        "03",
        violations == 0,
        f"ideal cost vs optimum + sqrt(N): {violations} violations, "
        f"worst margin {worst_margin:.3e}",
    )


def test_04_first_disagreement_solution_everywhere():
    start = time.perf_counter()
    worst_violation = 0.0
    worst_cost_ratio = 0.0
    for n in range(1, 17):
        sol = sdp.find_first_one_solution(n)
        cost = sdp.cost_of(sol)
        for idx, x in enumerate(sol.domain):
            f = next((j + 1 for j in range(n) if x.bit(j)), n + 1)
            worst_cost_ratio = max(worst_cost_ratio, cost.values[idx] / (3 * math.sqrt(f)))
        if n <= 10:
            cls = ConceptClass(n, sol.domain)
            ranks = sdp.first_disagreement_ranks(cls, tuple(range(n)), BitString.zeros(n), n)
            target = sdp.LabelTarget(np.zeros(cls.size, dtype=np.intp), ranks)
            worst_violation = max(worst_violation, sdp.verify_feasible(target, sol))
    elapsed = time.perf_counter() - start
    report(
        "04",
        worst_violation < 1e-9 and worst_cost_ratio <= 1.0 and elapsed < 120.0,
        f"widths 1..16: worst violation {worst_violation:.2e}, "
        f"worst c(x)/(3 sqrt f) = {worst_cost_ratio:.4f}, {elapsed:.1f}s",
    )


def test_05_composed_identification_solutions():
    rng = np.random.default_rng(5)
    classes = [generate_class("hamming1", 3), generate_class("cube", 2)]
    classes += [random_class(rng, 4, int(rng.integers(2, 13))) for _ in range(5)]
    worst_violation = 0.0
    worst_additivity = 0.0
    worst_conditioning = 0.0
    kappa = 0.0
    for cls in classes:
        pipe = sdp.oracle_id_pipeline(cls)
        target = np.ones((cls.size,) * 2) - np.eye(cls.size)
        worst_violation = max(worst_violation, sdp.verify_feasible(target, pipe.solution))

        # stagewise additivity of the chained cost
        stage_costs = [sdp.cost_of(s).values for s in pipe.stage_solutions]
        gap = pipe.cost.values - sum(stage_costs)
        worst_additivity = max(worst_additivity, float(gap.max()))

        # per-stage conditioning: each input is charged its own block cost
        for sol in pipe.stage_solutions:
            stage_cost = sdp.cost_of(sol)
            for x in cls.members:
                i = sol.domain.index(x)
                own = max(
                    float(np.einsum("jd,jd->", sol.u[i], sol.u[i])),
                    float(np.einsum("jd,jd->", sol.v[i], sol.v[i])),
                )
                worst_conditioning = max(worst_conditioning, abs(stage_cost(x) - own))

        traces = identify_all(cls)
        for x in cls.members:
            tr = traces[x]
            denom = sum(math.sqrt(p) for p in tr.positions) + math.sqrt(cls.n)
            kappa = max(kappa, pipe.cost(x) / denom)
    report(
        "05",
        worst_violation < 1e-9 and worst_additivity <= 1e-12
        and worst_conditioning <= 1e-12 and kappa <= 3.0,
        f"{len(classes)} classes: violation {worst_violation:.2e}, additivity gap "
        f"{worst_additivity:.2e}, conditioning gap {worst_conditioning:.2e}, "
        f"measured kappa {kappa:.3f}",
    )


def test_06_relaxation_chain_with_certificates():
    worst_slack = math.inf
    duality_gaps = 0
    chain_gaps = 0
    for n in range(4, 65):
        for m in range(1, n + 1):
            cert = check_dual_certificate(n, m, tol=1e-9)
            worst_slack = min(worst_slack, cert.min_slack)
            primal = lp_primal_opt(n, m)
            duality_gaps += primal > cert.dual_value + 1e-9
            if n <= 12:
                chain_gaps += brute_force_cost(1 << m, n)[0] > primal + 1e-9
    report(
        "06",
        worst_slack >= 0.0 and duality_gaps == 0 and chain_gaps == 0,
        f"N in 4..64: min dual slack {worst_slack:.6f}, {duality_gaps} duality gaps, "
        f"{chain_gaps} chain gaps",
    )


def test_07_closed_form_brackets_the_optimum():
    worst_lo, worst_hi = math.inf, 0.0
    for n in range(4, 21):
        for m in sorted({2, 4, 16, 2 ** math.ceil(n / 2), 2**n}):
            ratio = closed_form_cost(m, n) / max(brute_force_cost(m, n)[0], 1e-300)
            worst_lo = min(worst_lo, ratio)
            worst_hi = max(worst_hi, ratio)
    exact = all(closed_form_cost(1 << n, n) == float(n) for n in range(4, 21))
    report(
        "07",
        1 / 8 <= worst_lo and worst_hi <= 8 and exact,
        f"ratio range [{worst_lo:.3f}, {worst_hi:.3f}], full-cube values exact: {exact}",
    )


def test_08_lower_bound_brackets():
    k9, v9 = lower_bound_k(8, 9)
    k256, v256 = lower_bound_k(8, 256)
    anchors = (
        k9 == 1
        and v9 == pytest.approx(2 * math.sqrt(2))
        and v256 == pytest.approx(math.sqrt(20))
    )
    worst = 0.0
    cells = 0
    for n in range(4, 17):
        cap = 1 << n
        for m in range(n + 1, cap + 1):
            _, value = lower_bound_k(n, m)
            worst = max(worst, value / closed_form_cost(m, n))
            cells += 1
    report(
        "08",
        anchors and worst <= 8.0,
        f"anchors ok: {anchors}; {cells} cells, worst lower/upper ratio {worst:.3f}",
    )


def test_09_elimination_rate():
    hand = (
        gamma_hat(ConceptClass.from_strings(["00", "11"])).value == Fraction(1, 2)
        and gamma_hat(generate_class("cube", 2)).value == Fraction(1, 3)
        and gamma_hat(generate_class("hamming1", 3)).value == Fraction(1, 3)
    )
    rng = np.random.default_rng(9)
    in_range = 0
    total = 200
    for _ in range(total):
        n = int(rng.integers(2, 9))
        size = int(rng.integers(2, min(13, 1 << n) + 1))
        inv = 1 / gamma_hat(random_class(rng, n, size)).value
        in_range += 2 <= inv <= n + 1
    report(
        "09",
        hand and in_range == total,
        f"hand-derived values exact: {hand}; {in_range}/{total} random classes in range",
    )


def test_10_quantum_engine_statistics():
    start = time.perf_counter()
    n = 8
    class_h1 = generate_class("hamming1", n)
    class_rand = generate_class("random", n, size=16, seed=424242)
    outcomes = []
    worst_drift = 0.0
    for label, cls in (("weight-one", class_h1), ("random-16", class_rand)):
        ideal = identify_all(cls)
        successes = 0
        raw = []
        budget = []
        trials = 500
        for t in range(trials):
            x = cls.members[t % cls.size]
            trace = run_final(cls, x, "quantum", seed=(97, t))
            successes += trace.identified == x
            raw.append(trace.raw_queries)
            budget.append(10.0 * (ideal[x].ideal_cost + math.sqrt(n)))
            worst_drift = max(worst_drift, trace.norm_drift)
        outcomes.append(
            (label, successes / trials, float(np.mean(raw)), float(np.mean(budget)))
        )

    # byte-exact determinism per seed
    x = class_h1.members[-1]
    first = run_final(class_h1, x, "quantum", seed=(97, 7)).to_dict()
    second = run_final(class_h1, x, "quantum", seed=(97, 7)).to_dict()
    import json

    deterministic = json.dumps(first) == json.dumps(second)

    elapsed = time.perf_counter() - start
    ok = (
        all(rate >= 0.60 for _, rate, _, _ in outcomes)
        and all(mean_raw <= mean_budget for _, _, mean_raw, mean_budget in outcomes)
        and worst_drift < 1e-9
        and deterministic
        and elapsed < 300.0
    )
    detail = "; ".join(
        f"{label}: success {rate:.3f}, raw {mean_raw:.1f} <= budget {mean_budget:.1f}"
        for label, rate, mean_raw, mean_budget in outcomes
    )
    report("10", ok, f"{detail}; drift {worst_drift:.1e}; deterministic {deterministic}; {elapsed:.0f}s")
