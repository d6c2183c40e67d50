"""Closed-form and certified complexity bounds for identification.

The central quantity is the optimum of the trace-cost program

    maximize    sum_i sqrt(p_i)
    subject to  sum_i p_i <= N,   prod_i max(2, p_i) <= M,
                r in [N],  p_i in [N],

which upper-bounds the idealized cost of any final-algorithm run on a
class of M strings of length N.  ``brute_force_cost`` solves it exactly by
exhaustive search; ``closed_form_cost`` evaluates the matching closed form
``min( sqrt(N log2 M / (log2(N / log2 M) + 1)), sqrt(M) )``; the LP pair
(``lp_primal_opt`` / ``check_dual_certificate``) sandwiches the optimum
from above through an exactly-solved relaxation and an explicit dual
point, giving the chain

    brute_force_cost  <=  lp_primal_opt  <=  dual certificate value.

Also here: the threshold-class lower-bound scan and the per-class
elimination parameter ``gamma_hat`` with its learning bound.  All
logarithms are base 2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bitstrings import BitString, ConceptClass, bit_columns

__all__ = [
    "brute_force_cost",
    "closed_form_cost",
    "lp_primal_opt",
    "lp_problem_data",
    "DualCertificate",
    "check_dual_certificate",
    "lower_bound_k",
    "GammaHatResult",
    "gamma_hat",
    "LearningBound",
    "learning_bound",
    "BoundReport",
    "build_report",
    "CSV_HEADER",
]

_EXHAUSTIVE_N_CAP = 24


def brute_force_cost(M: int, N: int) -> tuple[float, tuple[int, ...]]:
    """Exact optimum of the trace-cost program, with an optimal multiset.

    Exhaustive search over nondecreasing part lists with Cauchy-Schwarz
    pruning; fine up to N = 24.  M = 1 is defined as cost 0 with no parts
    (a singleton promise needs no queries), since the r >= 1 constraint
    would otherwise make the program infeasible there.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if M < 1:
        raise ValueError("M must be positive")
    if M == 1:
        return 0.0, ()
    if N > _EXHAUSTIVE_N_CAP:
        raise ValueError(
            f"exhaustive search capped at N={_EXHAUSTIVE_N_CAP}; use closed_form_cost"
        )

    best_val = 0.0
    best_parts: tuple[int, ...] = ()

    def rec(min_p: int, sum_left: int, prod_left: int, acc: float, parts: list[int]):
        nonlocal best_val, best_parts
        if acc > best_val:
            best_val = acc
            best_parts = tuple(parts)
        if sum_left < min_p:
            return
        # at most floor(log2 prod_left) more parts (factor >= 2 each), each
        # eating >= min_p of the sum budget; Cauchy-Schwarz caps their value
        k_max = min(prod_left.bit_length() - 1, sum_left // min_p)
        if k_max <= 0 or acc + math.sqrt(sum_left * k_max) <= best_val:
            return
        for p in range(min_p, sum_left + 1):
            factor = max(2, p)
            if factor > prod_left:
                break
            parts.append(p)
            rec(p, sum_left - p, prod_left // factor, acc + math.sqrt(p), parts)
            parts.pop()

    rec(1, N, M, 0.0, [])
    return best_val, best_parts


def closed_form_cost(M: int, N: int) -> float:
    """min( sqrt(N log2 M / (log2(N / log2 M) + 1)), sqrt(M) ), unit constant."""
    if N < 1:
        raise ValueError("N must be positive")
    if not 2 <= M <= (1 << N):
        raise ValueError(f"need 2 <= M <= 2^{N}")
    logm = math.log2(M)
    value = math.sqrt(N * logm / (math.log2(N / logm) + 1.0))
    return min(value, math.sqrt(M))


def lp_problem_data(N: int, m: int):
    """Data of the relaxed budget LP, after the constant-4 loosening.

    Variables ``x_k`` (k = 1..n') count parts of rounded size ``2^k``:

        maximize    sum_k sqrt(2^k) x_k
        subject to  sum_k 2^k x_k <= 4N,   sum_k k x_k <= 4m,   x >= 0,

    with ``n' = ceil(log2(4N))``.  Returns (objective, rows, rhs): the
    objective as floats, the rows ``(2^k)_k`` and ``(k)_k`` and the
    right-hand side ``(4N, 4m)`` as exact ints.
    """
    if N < 1 or m < 1:
        raise ValueError("N and m must be positive")
    ks = range(1, math.ceil(math.log2(4 * N)) + 1)
    objective = [math.sqrt(2.0**k) for k in ks]
    rows = [[2**k for k in ks], list(ks)]
    rhs = [4 * N, 4 * m]
    return objective, rows, rhs


def lp_primal_opt(N: int, m: int) -> float:
    """Exact LP optimum by enumerating its basic feasible points.

    Two inequality constraints mean every vertex has at most two positive
    coordinates; the candidate points are solved in exact rationals.
    """
    objective, (sizes, counts), (big_n, big_m) = lp_problem_data(N, m)
    variables = list(zip(objective, sizes, counts))
    best = 0.0
    for c, a, k in variables:
        best = max(best, c * float(min(Fraction(big_n, a), Fraction(big_m, k))))
    for (ck, ak, k), (cl, al, l) in itertools.combinations(variables, 2):
        det = ak * l - al * k
        if det == 0:
            continue
        xk = Fraction(big_n * l - al * big_m, det)
        xl = Fraction(ak * big_m - big_n * k, det)
        if xk >= 0 and xl >= 0:
            best = max(best, ck * float(xk) + cl * float(xl))
    return best


@dataclass(frozen=True)
class DualCertificate:
    y: float
    z: float
    dual_value: float
    min_slack: float
    feasible: bool
    n_prime: int
    d: float


def check_dual_certificate(N: int, m: int, tol: float = 1e-9) -> DualCertificate:
    """Evaluate the explicit dual point and check it satisfies every row.

    With ``d = log2(2N/m)`` (requires m <= N so d >= 1), the point is
    ``y = 1/sqrt(d 2^d)``, ``z = sqrt(2^d / d)``; feasibility means
    ``2^k y + k z >= sqrt(2^k)`` for every k up to ``ceil(log2(4N))``.
    Its objective ``4N y + 4m z`` upper-bounds the primal by weak duality.
    """
    objective, (sizes, counts), (big_n, big_m) = lp_problem_data(N, m)
    if m > N:
        raise ValueError("outside certificate regime (need m <= N so that d >= 1)")
    d = math.log2(2.0 * N / m)
    y = 1.0 / math.sqrt(d * 2.0**d)
    z = math.sqrt(2.0**d / d)
    min_slack = min(a * y + k * z - c for c, a, k in zip(objective, sizes, counts))
    return DualCertificate(
        y=y,
        z=z,
        dual_value=big_n * y + big_m * z,
        min_slack=min_slack,
        feasible=min_slack >= -tol,
        n_prime=len(objective),
        d=d,
    )


def lower_bound_k(N: int, M: int) -> tuple[int, float]:
    """Best threshold weight and its lower-bound value sqrt((N-k+1) k).

    Scans k in [N] for the largest ``(N-k+1) k`` subject to
    ``C(N, k-1) + C(N, k) <= M`` (the weight-{k-1, k} class fits in the
    budget), using exact integer binomials.  Requires N < M <= 2^N; the
    smallest optimal k is returned on ties.
    """
    if not N < M <= (1 << N):
        raise ValueError(f"need N < M <= 2^{N}")
    best_k = None
    best_val = -1
    for k in range(1, N + 1):
        if math.comb(N, k - 1) + math.comb(N, k) <= M:
            val = (N - k + 1) * k
            if val > best_val:
                best_val, best_k = val, k
    assert best_k is not None  # k = 1 needs 1 + N <= M, granted by M > N
    return best_k, math.sqrt(best_val)


@dataclass(frozen=True)
class GammaHatResult:
    value: Fraction
    witness: tuple[BitString, ...]

    def __float__(self) -> float:
        return float(self.value)


def _split_half_scores(m: int, columns: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """``(size, top)`` of every subset of ``m`` members, indexed by the
    subset's bitmask: its popcount and ``max over columns of min(ones,
    size - ones)``.

    A mask is a high half ``hi`` of ``m - m // 2`` bits over a low half
    ``lo`` of ``m // 2`` bits, and a popcount of ``mask & col`` is the sum
    of the halves' popcounts, so each column's ``ones`` is one outer sum of
    two tables of 2^(m/2) entries; its row-major (hi, lo) order is the mask
    order.  Counts stay within ``m``, so every array is ``uint8``.
    """
    low = m // 2
    low_mask = (1 << low) - 1
    his = np.arange(1 << (m - low), dtype=np.uint32)
    los = his[: low_mask + 1]
    popcount = np.bitwise_count(his)  # uint8
    size = np.add.outer(popcount, popcount[los])
    top = np.zeros_like(size)
    ones = np.empty_like(size)
    rest = np.empty_like(size)
    for col in columns:
        np.add.outer(popcount[his & (col >> low)], popcount[los & (col & low_mask)], out=ones)
        np.subtract(size, ones, out=rest)
        np.minimum(ones, rest, out=ones)
        np.maximum(top, ones, out=top)
    return size.ravel(), top.ravel()


def _first_minimum(size: np.ndarray, top: np.ndarray) -> tuple[Fraction, int]:
    """Exact minimum of ``top / size`` over the entries with ``size >= 2``,
    with the index of the first entry that attains it.

    Float division is correctly rounded, so equal fractions give equal
    floats.  Two unequal fractions of at most 1/2 differ by at least
    ``1 / (size * size')``, and rounding moves each by at most 2^-55, so
    while sizes (at most the member count) stay under 2^26 the float
    order is the exact order.
    """
    ratio = np.divide(top, size, out=np.full(size.shape, np.inf), where=size >= 2)
    first = int(np.argmin(ratio))
    return Fraction(int(top[first]), int(size[first])), first


def gamma_hat(concept_class: ConceptClass) -> GammaHatResult:
    """Worst-case best-single-query elimination fraction of a class.

    Over every subset S of at least two members (exhaustive, up to 20
    members), the adversary answers each queried bit so as to keep as many
    candidates as possible; the learner picks the bit whose worse answer
    still eliminates the largest fraction.  gamma_hat is the minimum over S
    of that guaranteed fraction, returned as an exact rational.

    All 2^m index bitmasks are scored from two popcount tables of 2^(m/2)
    entries, one per half of the mask (``_split_half_scores``): ~0.8 ms at
    16 members and ~12 ms at 20 (``BENCH_gamma.json``).  The witness is the
    first subset attaining the minimum in enumeration order (index bitmasks
    counted upward).
    """
    m = concept_class.size
    if m < 2:
        raise ValueError("need at least two members")
    if m > 20:
        raise ValueError("gamma_hat is exact and caps at 20 members")
    # per bit: which member indices have that bit set, as an index bitmask
    columns = bit_columns(concept_class.n, concept_class.values)
    value, witness = _first_minimum(*_split_half_scores(m, columns))
    members = tuple(
        concept_class.members[i] for i in range(m) if (witness >> i) & 1
    )
    return GammaHatResult(value=value, witness=members)


@dataclass(frozen=True)
class LearningBound:
    query_bound: float  # sqrt((1/g) / log2(1/g)) * log2(M)
    trace_sum_bound: float  # log2(M) / g, bounding sum_i p_i on any run


def learning_bound(M: int, gamma) -> LearningBound:
    """Query bound implied by the elimination parameter, unit constant."""
    g = float(gamma)
    if not 0.0 < g < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    if M < 2:
        raise ValueError("need at least two members")
    inv = 1.0 / g
    logm = math.log2(M)
    return LearningBound(
        query_bound=math.sqrt(inv / math.log2(inv)) * logm,
        trace_sum_bound=logm / g,
    )


CSV_HEADER = "M,N,brute_force_C,closed_form_C,lp_primal,lp_dual,k_lower,lower_value"


@dataclass(frozen=True)
class BoundReport:
    M: int
    N: int
    brute_force_C: float
    closed_form_C: float
    lp_primal: float
    lp_dual: float
    k_lower: int | None
    lower_value: float | None

    def to_csv_row(self) -> str:
        tail = (
            f"{self.k_lower},{self.lower_value!r}"
            if self.k_lower is not None
            else ","
        )
        return (
            f"{self.M},{self.N},{self.brute_force_C!r},{self.closed_form_C!r},"
            f"{self.lp_primal!r},{self.lp_dual!r},{tail}"
        )


def build_report(M: int, N: int) -> BoundReport:
    """One row of the bound sweep for a given (M, N)."""
    brute, _ = brute_force_cost(M, N)
    closed = closed_form_cost(M, N)  # also validates 2 <= M <= 2^N
    m = max(1, math.ceil(math.log2(M)))
    cert = check_dual_certificate(N, m)
    primal = lp_primal_opt(N, m)
    if M > N:
        k, value = lower_bound_k(N, M)
    else:
        k, value = None, None
    return BoundReport(
        M=M,
        N=N,
        brute_force_C=brute,
        closed_form_C=closed,
        lp_primal=primal,
        lp_dual=cert.dual_value,
        k_lower=k,
        lower_value=value,
    )
