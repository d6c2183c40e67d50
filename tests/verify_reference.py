"""Test oracle: the all-pairs feasibility check.

``verify_feasible`` below is the check that ``oracleid.sdp.verify_feasible``
replaced: it computes the constraint sum of every input pair, ``ROW_CHUNK``
rows against all columns at a time, where the runtime check proves scan
parts from their ranks, and otherwise proves the pairs across coarse label
classes zero and computes only the rest.  The differential tests hold the
runtime check to it exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from oracleid.bitstrings import BitString
from oracleid.sdp import LabelTarget, SdpSolution

ROW_CHUNK = 64


def _domain_bits(n: int, domain: Sequence[BitString]) -> np.ndarray:
    text = "".join(format(x.value, f"0{n}b") for x in domain).encode("ascii")
    return (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(len(domain), n)


def verify_feasible(A, sol: SdpSolution) -> float:
    """Worst absolute violation of the bilinear constraints against ``A``.

    ``A`` is an (inputs, inputs) array or a `LabelTarget`.  Every input
    pair is checked, ``ROW_CHUNK`` rows at a time, so memory stays flat.
    A return value at most the caller's tolerance certifies feasibility.

    Per part, the constraint sums of all pairs are ``U1 V0^T + U0 V1^T``,
    one product ``[U1 U0] [V0 V1]^T``, masked to equal blocks, where
    ``U1``/``U0`` keep the ``u[x, j]`` with ``x_j`` = 1/0 (flattened over
    bits and coordinates), and likewise ``V``.
    """
    m = sol.size
    if isinstance(A, LabelTarget):
        if np.shape(A.coarse) != (m,) or np.shape(A.fine) != (m,):
            raise ValueError(f"label target needs {m} labels per side")
        target_rows = A.rows
    else:
        dense = np.asarray(A, dtype=float)
        if dense.shape != (m, m):
            raise ValueError(f"target must be {m}x{m}, got {dense.shape}")

        def target_rows(lo, hi):
            return dense[lo:hi].copy()

    bits = _domain_bits(sol.domain.n, sol.domain.members)
    ones = bits[:, :, None].astype(float)
    zeros = 1.0 - ones

    def split(w, first, second):
        return np.concatenate([(w * first).reshape(m, -1), (w * second).reshape(m, -1)], axis=1)

    factors = []
    for block, u, v in sol.parts:
        blocked = len(np.unique(block)) > 1
        factors.append((block if blocked else None, split(u, ones, zeros), split(v, zeros, ones)))
    worst = 0.0
    for lo in range(0, m, ROW_CHUNK):
        hi = min(lo + ROW_CHUNK, m)
        # |target - sums| in place: few temporaries, so the heap stays put
        residual = target_rows(lo, hi)
        for block, uu, vv in factors:
            inner = uu[lo:hi] @ vv.T
            if block is not None:
                inner *= block[lo:hi, None] == block[None, :]
            residual -= inner
        worst = max(worst, float(np.abs(residual, out=residual).max()))
    return worst
