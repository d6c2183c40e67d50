"""Reference unknown-count search for tests: the per-round sampler.

Every round rebuilds the full measurement distribution for its drawn
iteration count, checks its norm and samples it with ``np.searchsorted``.
``qsim._bbht`` builds and checks each distinct count's distribution once
per call and samples it by bisection; with nothing marked it builds none: a
round there is one draw of ``j`` and one of ``u``, and measures
``floor(u * dim)``, which is what this sampler returns on the exactly
uniform distribution, whose norm is exactly 1.  It must return the same
rank, charge the same queries, record the same drift and leave the generator
in the same state.  The probabilities are read through the ``qsim`` module,
so a test that patches ``qsim.grover_probabilities`` patches both where
something is marked.
"""

import math

import numpy as np

from oracleid import qsim
from oracleid.qsim import EngineContext, SearchConfig, _Effective


def bbht_reference(eff: _Effective, limit: int, ctx: EngineContext, config: SearchConfig) -> int | None:
    if limit <= 0:
        return None
    dim = 1 << max(0, (limit - 1).bit_length())
    if dim == 1:
        # single candidate: one verification settles it
        if eff.query(0, ctx):
            return 0
        return None
    marked = np.zeros(dim, dtype=bool)
    marked[:limit] = eff.ranks[:limit]
    n_marked = int(np.count_nonzero(marked))
    budget = config.cutoff_coeff * math.sqrt(limit)
    m = 1.0
    m_cap = math.sqrt(dim)
    used = 0
    while used <= budget:
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
        if v < limit:
            if eff.query(v, ctx):
                return v
        m = min(m * config.growth, m_cap)
    return None
