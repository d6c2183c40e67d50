"""Test oracles for the SDP checks, reading the members' bits one string
at a time (``domain_bits``).

``verify_feasible`` computes the constraint sum of every input pair from
the parts' unpacked ``(block, u, v)`` rows; the differential tests hold both
paths of the runtime check to it exactly.  ``dense_sums``, ``dense_verify``
and ``dense_cost`` read the ambient ``u``/``v`` arrays instead, one bit at a
time, against dense targets built with ``dense_gram``.
"""

from __future__ import annotations

import numpy as np

from oracleid.sdp import LabelTarget

ROW_CHUNK = 64


def domain_bits(domain) -> np.ndarray:
    text = "".join(str(x) for x in domain).encode("ascii")
    return (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(len(domain), -1)


def verify_feasible(A, sol) -> float:
    """Worst absolute violation of the bilinear constraints against ``A``.

    ``A`` is an (inputs, inputs) array or a `LabelTarget`.  Every input
    pair is checked, ``ROW_CHUNK`` rows at a time, so memory stays flat.
    A return value at most the caller's tolerance certifies feasibility; a
    non-finite entry or coordinate gives a non-finite value.

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

    bits = domain_bits(sol.domain)
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
        # np.maximum, not max: a NaN chunk must not lose to an earlier worst
        worst = np.maximum(worst, np.abs(residual, out=residual).max())
    return float(worst)


def dense_gram(outputs) -> np.ndarray:
    """Gram matrix of a function given by its outputs: 1 where two equal."""
    outputs = list(outputs)
    return np.array([[float(a == b) for b in outputs] for a in outputs])


def dense_sums(sol) -> np.ndarray:
    """Constraint sum of every input pair, bit by bit."""
    u, v = sol.u, sol.v
    bits = domain_bits(sol.domain)
    got = np.zeros((sol.size, sol.size))
    for j in range(sol.n_bits):
        mask = bits[:, j][:, None] != bits[:, j][None, :]
        got += mask * (u[:, j, :] @ v[:, j, :].T)
    return got


def dense_verify(target, sol) -> float:
    """Worst absolute violation over every input pair, bit by bit."""
    return float(np.abs(dense_sums(sol) - np.asarray(target, dtype=float)).max())


def dense_cost(sol) -> np.ndarray:
    u, v = sol.u, sol.v
    return np.maximum(np.einsum("xjd,xjd->x", u, u), np.einsum("xjd,xjd->x", v, v))
