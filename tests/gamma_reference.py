"""Reference ``gamma_hat`` for tests: one Python loop over the subsets.

Scores each subset with one ``int.bit_count`` per subset and bit, the way
the elimination parameter was computed before the scan was vectorized, in
the same order as ``bounds.gamma_hat``, so the two agree on the witness as
well as the value.
"""

from fractions import Fraction

from oracleid.bitstrings import ConceptClass
from oracleid.bounds import GammaHatResult


def gamma_hat_reference(concept_class: ConceptClass) -> GammaHatResult:
    m = concept_class.size
    if m < 2:
        raise ValueError("need at least two members")
    if m > 20:
        raise ValueError("gamma_hat is exact and caps at 20 members")
    n = concept_class.n
    values = concept_class.values
    # per bit: which member indices have that bit set, as an index bitmask
    columns = []
    for j in range(n):
        mask = 0
        for i, v in enumerate(values):
            if (v >> (n - 1 - j)) & 1:
                mask |= 1 << i
        columns.append(mask)
    subsets = (t for t in range(1, 1 << m) if t.bit_count() >= 2)

    best_num, best_den = 1, 1  # running minimum fraction, starts at 1
    witness = 0
    for t in subsets:
        size = t.bit_count()
        top = 0
        for col in columns:
            ones = (t & col).bit_count()
            score = min(ones, size - ones)
            if score > top:
                top = score
        # min over subsets of top/size
        if top * best_den < best_num * size:
            best_num, best_den, witness = top, size, t
    members = tuple(
        concept_class.members[i] for i in range(m) if (witness >> i) & 1
    )
    return GammaHatResult(value=Fraction(best_num, best_den), witness=members)
