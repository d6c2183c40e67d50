"""Shared test utilities."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Hashable, Iterable

import numpy as np

from oracleid.bitstrings import BitString, ConceptClass, generate_class, majority_value

# Classes the pruning tree is checked on, against the pipeline's level walk
# and for its nodes' candidates: wide, cube, weight-k, random, prefix, and
# the one- and two-member edges.
PIPELINE_CLASSES = {
    "hamming1-8": lambda: generate_class("hamming1", 8),
    "cube-5": lambda: generate_class("cube", 5),
    "hamming-9-3": lambda: generate_class("hamming", 9, k=3),
    "random-10-150": lambda: generate_class("random", 10, size=150, seed=1),
    "random-13-400": lambda: generate_class("random", 13, size=400, seed=1),
    "random-40-300": lambda: generate_class("random", 40, size=300, seed=2),
    "prefix-8-4": lambda: generate_class("prefix", 8, free_bits=4),
    "two-members": lambda: ConceptClass.from_strings(["0110", "0101"]),
    "one-member": lambda: ConceptClass.from_strings(["0101"]),
}


@dataclass(frozen=True)
class FunctionTable:
    """A total function on a concept class, given by one output per member:
    the form the composition algebra and the reference pipeline take
    functions in."""

    domain: ConceptClass
    outputs: tuple[Hashable, ...]

    def __post_init__(self):
        if len(self.outputs) != self.domain.size:
            raise ValueError("need exactly one output per domain member")

    def __call__(self, x: BitString) -> Hashable:
        return self.outputs[self.domain.index(x)]

    @cached_property
    def labels(self) -> tuple[Hashable, ...]:
        return tuple(dict.fromkeys(self.outputs))

    @cached_property
    def codes(self) -> np.ndarray:
        """Per member, the index of its output in ``labels``: two members
        share a code iff they share an output.  Read-only, computed once."""
        index: dict[Hashable, int] = {}
        codes = np.array([index.setdefault(out, len(index)) for out in self.outputs], dtype=np.intp)
        codes.setflags(write=False)
        return codes


def random_class(rng: np.random.Generator, n: int, size: int) -> ConceptClass:
    values = rng.choice(1 << n, size=size, replace=False)
    return ConceptClass.from_values(n, (int(v) for v in values))


def subsets_of_cube(n: int):
    """Every nonempty subset of {0,1}^n as a list of BitStrings."""
    base = [BitString(n, v) for v in range(1 << n)]
    for mask in range(1, 1 << len(base)):
        yield [base[i] for i in range(len(base)) if (mask >> i) & 1]


def majority_string(strings: Iterable[BitString]) -> BitString:
    """Bitwise majority of a nonempty set of equal-length strings.

    Bit ``i`` of the result is 1 iff at least half the strings have bit
    ``i`` equal to 1 (ties go to 1).  The result need not be a member of
    the input set.
    """
    members = list(strings)
    if not members:
        raise ValueError("majority of empty set")
    n = members[0].n
    if any(m.n != n for m in members):
        raise ValueError("strings must have uniform length")
    return BitString(n, majority_value([m.value for m in members], n))


def preimage(f: FunctionTable, label: Hashable) -> tuple[BitString, ...]:
    """The members ``f`` maps to ``label``, in domain order."""
    return tuple(
        m for m, out in zip(f.domain.members, f.outputs) if out == label
    )


def groups(f: FunctionTable) -> list[np.ndarray]:
    """Member indices per label of ``f``, ascending, labels in ``f.labels``
    order."""
    codes = f.codes
    order = np.argsort(codes, kind="stable")
    ends = np.cumsum(np.bincount(codes)).tolist()
    return [order[lo:hi] for lo, hi in zip([0] + ends, ends)]
