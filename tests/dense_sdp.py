"""Dense reference for the SDP checks, used only by tests.

Reads a solution's ambient ``u``/``v`` arrays of shape (inputs, bits, dim)
and checks the bilinear constraints one bit at a time, the way the
solutions were checked before they were stored as parts.  Targets are dense
matrices here, built from function outputs with ``dense_gram``.
"""

import numpy as np


def domain_bits(domain):
    return np.array([[x.bit(j) for j in range(x.n)] for x in domain], dtype=np.uint8)


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
