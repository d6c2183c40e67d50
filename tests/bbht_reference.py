"""Reference searches for tests: the per-round sampler and the scan built on it.

``bbht_reference`` rebuilds the full measurement distribution for every
round's drawn iteration count, checks its norm and samples it with
``np.searchsorted``.  ``qsim._bbht`` builds and checks each distinct count's
distribution once per call and samples it by bisection; with nothing marked
it builds none: a round there is one draw of ``j`` and one of ``u``, and
measures ``floor(u * dim)``, which is what this sampler returns on the
exactly uniform distribution, whose norm is exactly 1.  It must return the
same rank, record the same drift and leave the generator in the same state.
The probabilities are read through the ``qsim`` module, so a test that
patches ``qsim.grover_probabilities`` patches both where something is
marked.

The references read the rank tuple, never the view's memo of known ranks.
They charge every verification, including one of a rank already verified,
and count each rank's verifications in their own ``verified`` record;
``repeats(verified)`` is what the memo saves, so on a view that knows the
ranks ``verified`` holds ``qsim`` charges a search or scan exactly the
reference's queries minus its repeats.  What a search knows is also what
ends it: from its own record the reference reads a window none of whose
ranks is unknown rank by rank, and stops a search at the round that
verifies the window's last unknown rank, as ``qsim._bbht`` does from the
view's memo.
"""
import math
from collections import Counter
from typing import Sequence

import numpy as np

from oracleid import qsim
from oracleid.qsim import EngineContext, SearchConfig


def repeats(verified: Counter) -> int:
    """Verifications of a rank after its first."""
    return sum(count - 1 for count in verified.values())


def _verify(ranks: Sequence[int], t: int, ctx: EngineContext, verified: Counter) -> int:
    ctx.queries += 1
    verified[t] += 1
    return ranks[t]


def _read(ranks: Sequence[int], start: int, limit: int, ctx: EngineContext, verified: Counter) -> int | None:
    """The direct read of [start, limit): its first marked rank, or None."""
    return next((t for t in range(start, limit) if _verify(ranks, t, ctx, verified)), None)


def bbht_reference(
    ranks: Sequence[int], limit: int, ctx: EngineContext, config: SearchConfig,
    verified: Counter, start: int = 0, stop: bool = True,
) -> int | None:
    """The unknown-count search over the window [start, limit) of ``ranks``:
    read rank by rank when at most ``max(classical_width, 1)`` ranks wide,
    else amplified as a register of its own, where index ``i`` addresses
    rank ``start + i``.

    With ``stop``, a window whose every rank ``verified`` records is read
    rank by rank instead, whether at entry or after the round that verified
    its last unrecorded rank; ``stop=False`` is the search that runs to its
    budget whatever it has verified."""
    size = limit - start
    unknown = set(range(start, limit)) - verified.keys()
    if size <= max(config.classical_width, 1) or stop and not unknown:
        return _read(ranks, start, limit, ctx, verified)
    dim = 1 << (size - 1).bit_length()
    marked = np.zeros(dim, dtype=bool)
    marked[:size] = ranks[start:limit]
    n_marked = int(np.count_nonzero(marked))
    budget = config.cutoff_coeff * math.sqrt(size)
    m = 1.0
    m_cap = math.sqrt(dim)
    used = 0
    while used <= budget and (unknown or not stop):
        j = int(ctx.rng.integers(0, math.ceil(m)))
        ctx.queries += j
        used += j
        p_marked, p_unmarked = qsim.grover_probabilities(dim, n_marked, j)
        drift = abs(math.sqrt(n_marked * p_marked + (dim - n_marked) * p_unmarked) - 1.0)
        ctx.max_drift = max(ctx.max_drift, drift)
        if drift > config.norm_tol:
            raise RuntimeError(f"simulated state norm drifted by {drift:.3e}")
        cum = np.cumsum(np.where(marked, p_marked, p_unmarked))
        v = int(np.searchsorted(cum, ctx.rng.random() * cum[-1], side="right"))
        if v < size:
            unknown.discard(start + v)
            if _verify(ranks, start + v, ctx, verified):
                return start + v
        m = min(m * config.growth, m_cap)
    return _read(ranks, start, limit, ctx, verified) if stop and not unknown else None


def known_zeros(ranks: Sequence[int], verified: Counter) -> int:
    """Length of the prefix of ``ranks`` that ``verified`` records as zeros."""
    return next((t for t, bit in enumerate(ranks) if bit or t not in verified), len(ranks))


def first_one_reference(
    ranks: Sequence[int], ctx: EngineContext, config: SearchConfig, verified: Counter
) -> int | None:
    """One first-marked scan of ``ranks`` as ``qsim._first_one`` makes it
    on a view that knows the ranks ``verified`` records: windows
    ``[previous top, top)`` of a doubling ladder from ``[0,
    max(classical_width, 1))``, each started no lower than the recorded
    zeros at the front, then reductions ``[window start, candidate)``
    until one finds nothing, each window one ``bbht_reference`` call.
    Returns the 1-based rank or None."""
    width, lo = len(ranks), 0
    top = min(max(config.classical_width, 1), width)
    while lo < width:
        start = max(lo, known_zeros(ranks, verified))
        best = bbht_reference(ranks, top, ctx, config, verified, start)
        if best is not None:
            while (w := bbht_reference(ranks, best, ctx, config, verified, start)) is not None:
                best = w
            return best + 1
        top, lo = min(2 * top, width), top
    return None
