"""Fixed-seed quantum traces must not change.

``golden_traces.json`` holds ``RunTrace.to_dict()`` (minus ``norm_drift``,
a floating-point observation rather than an outcome) of each identification
loop with the quantum engine: ``run_final`` (unprefixed keys) and the two
halving loops (``basic/`` and ``improved/``).  The rows were last
re-recorded when the final algorithm's search (``qsim._bbht``) began to use
the promise: an amplified window that no candidate of the scan's tree node
agreeing with every known rank has a 1 in returns None, drawing and
charging nothing.  Such a window holds no marked rank whenever the hidden
string is a member, so only ``raw_queries`` changed, each row's falling,
in 2 ``run_final`` rows (``hamming1-16/2/0`` and ``/2/1``) and no halving
row, which has no node (1,573 to 1,552 summed over all 156), and every
outcome stayed the same.  Before that they were recorded when the search
began to end once every rank
of its window is known, reading a window with no unknown rank for free and
stopping a search with nothing marked at the round that verifies its last
unknown rank.  That changes the draws only of a search that holds no
unknown marked rank, so only ``raw_queries`` changed, each row's falling,
in 5 ``run_final`` and 6 ``improved/`` rows and no ``basic/`` row (1,722
to 1,573 summed over all 156), and every outcome stayed the same.  Before
that they were recorded when the scan's search began to read every
region of at most ``classical_width`` ranks directly, whichever stage or
reduction asks, instead of testing a stage's absolute top: the stage
window ``[4, 8)`` and a window narrowed by known zeros are now read rank
by rank rather than amplified.  Only ``raw_queries`` changed, each row's
falling, in 22 ``run_final`` and 31 ``improved/`` rows and no ``basic/``
row (2,376 to 1,722 summed over all 156), and every outcome stayed the
same.  Before that they were recorded when each finder call began to
keep one memo of the ranks its queries have read
(``qsim._Effective.known``), so that no rank is charged twice, a search
round's verification of a known zero included: only
``raw_queries`` changed, each row's falling, in 23 ``run_final``, 28
``improved/`` and 13 ``basic/`` rows (3,793 to 2,376 summed over all 156),
and every draw and outcome stayed the same.  Before that they were
recorded when the first-disagreement scan (``qsim._first_one``) began to
search each stage's window ``[previous top, top)`` instead of the whole
prefix ``[0, top)``, again a change of ``raw_queries`` alone, and before
that when the certified per-scan failure bound (``qsim.scan_failure``)
cut each search call from three repetitions to one, an intended change of
draw order; the earlier rows had carried over unchanged from the
statevector simulator and from the three separate loops.  The random draws
the loops make, and therefore every outcome, must not change.  Regenerate with
``python tests/test_golden_traces.py`` only when a change to the draw order
is intended.
"""

import json
from pathlib import Path

from oracleid.bitstrings import generate_class
from oracleid.identify import (
    PromiseViolation,
    run_final,
    run_halving_basic,
    run_halving_improved,
)

GOLDEN = Path(__file__).with_name("golden_traces.json")

LOOPS = (("", run_final), ("basic/", run_halving_basic), ("improved/", run_halving_improved))


def _cases():
    hamming = generate_class("hamming1", 16)
    for i, x in enumerate(hamming.members):
        for t in range(2):
            yield f"hamming1-16/{i}/{t}", hamming, x, (20, i, t)
    rand = generate_class("random", 12, size=40, seed=5)
    for i, x in enumerate(rand.members[:20]):
        yield f"random-12-40/{i}", rand, x, (21, i)


def current_traces() -> dict:
    out = {}
    for prefix, runner in LOOPS:
        for key, cls, x, seed in _cases():
            try:
                row = runner(cls, x, "quantum", seed=seed).to_dict()
                del row["norm_drift"]
            except PromiseViolation as exc:
                row = {"error": str(exc)}
            out[prefix + key] = row
    return out


def test_quantum_traces_match_recorded():
    expected = json.loads(GOLDEN.read_text())
    assert current_traces() == expected


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(current_traces(), indent=1, sort_keys=True) + "\n")
