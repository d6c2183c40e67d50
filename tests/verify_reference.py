"""Test oracles for the SDP checks, reading the members' bits one string
at a time (``domain_bits``).

``verify_feasible`` computes the constraint sum of every input pair from
each part's rows (its ``block``, ``u`` and ``v``), a chunk of rows at a
time: the pair-by-pair check, which takes any target and any solution,
scan parts and the dense parts of ``sdp_compose`` alike.  The runtime rank
proof is held to it exactly.  ``dense_sums``, ``dense_verify`` and
``dense_cost`` read the ambient ``u``/``v`` arrays instead, one bit at a
time, against dense targets built with ``dense_gram`` or expanded from
label targets by ``target_rows``; the pair-by-pair check is held to them.
``rank_cost`` writes no row: it adds up each scan row's squares as Python
floats, in rank order, and the runtime ``cost_of`` is held to it byte for
byte.
"""

from __future__ import annotations

import numpy as np

from oracleid.sdp import LabelTarget

ROW_CHUNK = 64


def domain_bits(domain) -> np.ndarray:
    text = "".join(str(x) for x in domain).encode("ascii")
    return (np.frombuffer(text, dtype=np.uint8) - ord("0")).reshape(len(domain), -1)


def target_rows(A, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of the target as a new dense float array: a
    `LabelTarget`'s entry ``(x, y)`` is ``[coarse_x == coarse_y] - [fine_x
    == fine_y]``."""
    if not isinstance(A, LabelTarget):
        return np.array(A[lo:hi], dtype=float)
    coarse, fine = np.asarray(A.coarse), np.asarray(A.fine)
    return (coarse[lo:hi, None] == coarse).astype(float) - (fine[lo:hi, None] == fine)


def dense_target(A) -> np.ndarray:
    """The whole target as a dense float array."""
    return target_rows(A, 0, len(A.coarse) if isinstance(A, LabelTarget) else len(A))


def verify_feasible(A, sol) -> float:
    """Worst absolute violation of the bilinear constraints against ``A``.

    ``A`` is an (inputs, inputs) array or a `LabelTarget`.  Every input
    pair is checked, ``ROW_CHUNK`` rows at a time.  A non-finite entry or
    coordinate gives a non-finite value.

    Per part, the constraint sums of all pairs are ``U1 V0^T + U0 V1^T``,
    one product ``[U1 U0] [V0 V1]^T``, masked to equal blocks, where
    ``U1``/``U0`` keep the ``u[x, j]`` with ``x_j`` = 1/0 (flattened over
    bits and coordinates), and likewise ``V``.
    """
    m = sol.size
    if isinstance(A, LabelTarget):
        if np.shape(A.coarse) != (m,) or np.shape(A.fine) != (m,):
            raise ValueError(f"label target needs {m} labels per side")
    elif np.shape(A) != (m, m):
        raise ValueError(f"target must be {m}x{m}, got {np.shape(A)}")

    bits = domain_bits(sol.domain)
    ones = bits[:, :, None].astype(float)
    zeros = 1.0 - ones

    def split(w, first, second):
        return np.concatenate([(w * first).reshape(m, -1), (w * second).reshape(m, -1)], axis=1)

    factors = []
    for part in sol.parts:
        block = np.asarray(part.block)
        blocked = len(np.unique(block)) > 1
        factors.append((block if blocked else None, split(part.u, ones, zeros), split(part.v, zeros, ones)))
    worst = 0.0
    for lo in range(0, m, ROW_CHUNK):
        hi = min(lo + ROW_CHUNK, m)
        residual = target_rows(A, lo, hi)
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
    """Worst absolute violation over every input pair, bit by bit; a
    non-finite entry or coordinate gives a non-finite value."""
    return float(np.abs(dense_sums(sol) - dense_target(target)).max())


def dense_cost(sol) -> np.ndarray:
    u, v = sol.u, sol.v
    return np.maximum(np.einsum("xjd,xjd->x", u, u), np.einsum("xjd,xjd->x", v, v))


def rank_cost(sol) -> np.ndarray:
    """Per-input cost of a scan solution, one float at a time: per part, in
    order, the squared ramp ``t**-0.25`` for each rank ``t`` before the
    input's rank (through its block's width at rank 0), in rank order, then
    the squared spike ``rank**0.25``."""
    values = np.zeros(sol.size)
    for part in sol.parts:
        for x, (block, rank) in enumerate(zip(part.block.tolist(), part.rank.tolist())):
            cost = 0.0
            for t in range(1, rank if rank else int(part.width[block]) + 1):
                ramp = t**-0.25
                cost += ramp * ramp
            if rank:
                spike = rank**0.25
                cost += spike * spike
            values[x] += cost
    return values
