"""oracleid: a desk-scale laboratory for the oracle identification problem.

Identify a hidden N-bit string promised to lie in a known class of M
strings, using as few oracle queries as possible.  The package implements
the halving-style identification loops with ideal and simulated-quantum
search engines, the greedy informative query ordering, the staged
query-complexity SDP certificate for identification and its check, and the
exhaustive / LP-certified / closed-form cost bounds, plus a CLI harness.
"""

from .bitstrings import (
    BitString,
    ConceptClass,
    generate_class,
)
from .identify import (
    IdealFinder,
    PromiseViolation,
    QuantumFinder,
    RunTrace,
    classical_identify,
    identify_all,
    run_final,
    run_halving_basic,
    run_halving_improved,
)
from .ordering import Ordering, first_disagreement_rank, hegedus_ordering, verify_ordering

__version__ = "0.1.0"

__all__ = [
    "BitString",
    "ConceptClass",
    "generate_class",
    "Ordering",
    "hegedus_ordering",
    "verify_ordering",
    "first_disagreement_rank",
    "RunTrace",
    "PromiseViolation",
    "IdealFinder",
    "QuantumFinder",
    "run_halving_basic",
    "run_halving_improved",
    "run_final",
    "identify_all",
    "classical_identify",
    "__version__",
]
