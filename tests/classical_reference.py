"""Reference classical baseline for tests: the per-level bit-count loop.

At every level it counts, bit by bit over every candidate, until it finds
the first bit on which the candidates disagree, then keeps the candidates
that agree with the hidden string there.  ``identify.classical_identify``
must return the same ``(identified, queries)`` for members and non-members.
"""

from oracleid.bitstrings import BitString, ConceptClass
from oracleid.identify import PromiseViolation


def classical_identify_reference(
    concept_class: ConceptClass, x: BitString
) -> tuple[BitString, int]:
    if x.n != concept_class.n:
        raise ValueError("hidden string length does not match the class")
    n = concept_class.n
    S = list(concept_class.values)
    queries = 0
    while len(S) > 1:
        split = None
        for j in range(n):
            mask = 1 << (n - 1 - j)
            ones = sum(1 for v in S if v & mask)
            if 0 < ones < len(S):
                split = j
                break
        assert split is not None  # distinct strings always disagree somewhere
        queries += 1
        want = x.bit(split)
        mask = 1 << (n - 1 - split)
        S = [v for v in S if ((v & mask) != 0) == bool(want)]
        if not S:
            raise PromiseViolation("candidate set emptied; promise violated")
    return BitString(n, S[0]), queries
