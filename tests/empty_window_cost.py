"""Exact expected raw queries of one amplified ``qsim._bbht`` call over a
window with nothing marked, as a test oracle.

A round draws ``j`` uniformly from ``[0, ceil(m))``, adds it to the
iterations used and measures an index uniform over the ``dim`` register;
that index is a window rank the view does not know yet with probability
``(limit - d) / dim``, ``d`` the window's known ranks, and verifying it
costs one query and makes ``d`` one larger.  The state is iterations used
x ranks known.  A call ends once its iterations pass ``cutoff_coeff *
sqrt(limit)`` or, with ``stop``, once ``d`` reaches ``limit``; it costs its
iterations plus the ranks it verified.  Only the number of ranks known at
entry matters, not which they are.
"""

import math

import numpy as np

from oracleid.qsim import SearchConfig, search_dim


def empty_window_cost(limit: int, known: int, config: SearchConfig, stop: bool = True) -> float:
    """Expected queries of ``_bbht`` over ``limit`` unmarked ranks of
    which ``known`` are known at entry (``known < limit``); with ``stop``
    False the call runs to its budget whatever it has verified."""
    dim = search_dim(limit)
    top = math.floor(config.cutoff_coeff * math.sqrt(limit))  # last used value that runs
    d = np.arange(limit + 1)
    hit = (limit - d) / dim
    active = np.zeros((top + 1, limit + 1))
    active[0, known] = 1.0
    m, m_cap, cost = 1.0, math.sqrt(dim), 0.0
    while active.sum() > 1e-15:
        draws = math.ceil(m)
        drawn = np.zeros((top + draws, limit + 1))
        for j in range(draws):
            drawn[j : j + top + 1] += active / draws
        after = drawn * (1 - hit)
        after[:, 1:] += drawn[:, :-1] * hit[:-1]
        done = np.zeros(after.shape, dtype=bool)
        done[top + 1 :] = True
        done[:, limit] |= stop
        cost += (after * done * np.add.outer(np.arange(len(after)), d - known)).sum()
        active = np.where(done, 0.0, after)[: top + 1]
        m = min(m * config.growth, m_cap)
    return cost
