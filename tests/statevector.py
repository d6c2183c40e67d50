"""Reference numpy statevector for the search model; used only by tests.

Layout: ``k`` index qubits plus one target qubit, as a flat complex array
of length ``2 * dim``; entry ``2*v + b`` is the amplitude of index ``v``
with target bit ``b``.
"""

import math

import numpy as np


def basis(qubits: int, index: int = 0) -> np.ndarray:
    amps = np.zeros(1 << qubits, dtype=np.complex128)
    amps[index] = 1.0
    return amps


def uniform_with_minus_target(index_qubits: int) -> np.ndarray:
    """Uniform superposition over the index register, target in |0>-|1>."""
    amps = np.empty(2 << index_qubits, dtype=np.complex128)
    amps[0::2] = 1.0 / math.sqrt(amps.size)
    amps[1::2] = -amps[0::2]
    return amps


class OracleCounter:
    """Number of ``apply_oracle`` calls it was handed to."""

    def __init__(self) -> None:
        self.count = 0


def apply_oracle(amps: np.ndarray, x, counter: OracleCounter | None = None) -> np.ndarray:
    """``|v, b> -> |v, b XOR x_v>``; indices at or beyond ``x.n`` are unmarked."""
    view = amps.reshape(-1, 2)
    if x.n > len(view):
        raise ValueError(f"index register of width {len(view)} too narrow for {x.n} bits")
    rows = [v for v in range(x.n) if x.bit(v)]
    view[rows] = view[rows, ::-1]
    if counter is not None:
        counter.count += 1
    return amps


def grover_run(amps: np.ndarray, marked: np.ndarray, iterations: int) -> np.ndarray:
    """``iterations`` rounds of oracle plus inversion about the mean, in place."""
    view = amps.reshape(-1, 2)
    for _ in range(iterations):
        view[marked] = view[marked, ::-1]
        view[:] = 2.0 * view.mean(axis=0, keepdims=True) - view
    return amps


def index_probabilities(amps: np.ndarray) -> np.ndarray:
    return (np.abs(amps.reshape(-1, 2)) ** 2).sum(axis=1)
