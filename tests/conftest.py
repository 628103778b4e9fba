"""Shared corpus and cached constructors for the test suite."""

from functools import lru_cache

from nearvec.finite_field import Field
from nearvec.space import TwistedSpace
from nearvec.structure import decompose

# irreducible moduli used throughout (verified at construction)
MODULI = {
    (2, 2): (1, 1, 1),     # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (2, 4): (1, 1, 0, 0, 1),  # x^4 + x + 1
    (3, 3): (1, 2, 0, 1),  # x^3 + 2x + 1
    (5, 3): (1, 1, 0, 1),  # x^3 + x + 1
    (3, 2): (1, 0, 1),     # x^2 + 1
    (5, 2): (2, 0, 1),     # x^2 + 2
    (7, 2): (1, 0, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (2, 0, 1),
    (2, 11): (1, 0, 1) + (0,) * 8 + (1,),  # x^11 + x^2 + 1
}

# The sweep corpus: p in {3,5,7,11,13} x r in {1,2}, n <= 3.  The r = 1
# cells for p <= 7 carry every exponent-class combination up to
# coordinate permutation; the larger cells carry every combination that
# keeps the exhaustive oracles fast (single-class spaces of order^2 or
# order^3 vectors dominate the cost).  Char-2 members exist for the
# order-2 checks.
CORPUS = [
    # p = 2 (characteristic-2 extras)
    (2, 1, (1,)),
    (2, 1, (1, 1, 1)),
    (2, 2, (1, 2)),
    (2, 3, (1, 3)),
    (2, 3, (3, 5)),
    # p = 3
    (3, 1, (1,)),
    (3, 1, (1, 1)),
    (3, 1, (1, 1, 1)),
    (3, 2, (1,)),
    (3, 2, (5,)),
    (3, 2, (1, 3)),
    (3, 2, (1, 5)),
    (3, 2, (5, 5)),
    (3, 2, (1, 1, 1)),
    (3, 2, (1, 1, 5)),
    # p = 5
    (5, 1, (1,)),
    (5, 1, (3,)),
    (5, 1, (1, 1)),
    (5, 1, (1, 3)),
    (5, 1, (3, 3)),
    (5, 1, (1, 1, 1)),
    (5, 1, (1, 1, 3)),
    (5, 1, (1, 3, 3)),
    (5, 1, (3, 3, 3)),
    (5, 2, (1,)),
    (5, 2, (7,)),
    (5, 2, (1, 7)),
    (5, 2, (7, 7)),
    (5, 2, (13, 19)),
    (5, 2, (1, 7, 13)),
    # p = 7
    (7, 1, (1,)),
    (7, 1, (5,)),
    (7, 1, (1, 1)),
    (7, 1, (1, 5)),
    (7, 1, (5, 5)),
    (7, 1, (1, 1, 1)),
    (7, 1, (1, 1, 5)),
    (7, 1, (1, 5, 5)),
    (7, 1, (5, 5, 5)),
    (7, 2, (1,)),
    (7, 2, (13,)),
    (7, 2, (1, 5)),
    (7, 2, (5, 41)),
    # p = 11
    (11, 1, (7,)),
    (11, 1, (3, 3)),
    (11, 1, (1, 9)),
    (11, 1, (9, 9)),
    (11, 1, (3, 7, 3)),
    (11, 1, (1, 3, 7)),
    (11, 1, (1, 1, 1)),
    (11, 1, (3, 9, 9)),
    (11, 2, (1,)),
    (11, 2, (7,)),
    # p = 13
    (13, 1, (5,)),
    (13, 1, (1, 1)),
    (13, 1, (1, 5)),
    (13, 1, (11, 11)),
    (13, 1, (1, 5, 7)),
    (13, 1, (5, 7, 11)),
    (13, 2, (1,)),
    (13, 2, (5,)),
]

SWEEP_PRIMES = (3, 5, 7, 11, 13)


@lru_cache(maxsize=None)
def get_field(p, r):
    return Field(p, r, MODULI.get((p, r)))


@lru_cache(maxsize=None)
def get_space(p, r, exponents):
    return TwistedSpace(get_field(p, r), exponents)


def corpus_spaces():
    return [get_space(*entry) for entry in CORPUS]


def sweep_spaces():
    """The corpus members belonging to the p/r sweep (no char-2 extras)."""
    return [get_space(*entry) for entry in CORPUS if entry[0] in SWEEP_PRIMES]


def check_components_against_bruteforce(space, brute):
    """Assert that each ``decompose`` component holds, and counts, exactly
    the members of the brute-force Q(V) supported inside its class;
    return those counts in class order."""
    components = {c.class_id: c for c in decompose(space).components}
    counts = []
    for cls in space.classes:
        sup = set(cls.support)
        part = {v for v in brute.members if sup.issuperset(space.support(v))}
        comp = components[cls.index]
        assert comp.members == part, (space, cls.index)
        assert comp.member_count == len(part), (space, cls.index)
        counts.append(len(part))
    return counts
