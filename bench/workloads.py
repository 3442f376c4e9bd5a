"""Seeded inputs for the four workloads.

A workload is a list of rounds; every round runs the same cells in the
same order, each on a fresh draw, so every run attempts whole rounds of
the same operations.  Round r of a workload under seed s is drawn from
its own generator, random.Random("<workload>/<s>/<r>"), so the inputs
depend on nothing but the seed and two processes agree on them.

This module does not import macres: it makes the raw inputs (linear
forms and their closed-form resultants), and run.py turns them into
PolySystem values.
"""

import hashlib
import random
from fractions import Fraction

from oracle import split_resultant

# Dense integer cells, one system each per round.  The (2,2,3) cell is
# drawn with fraction coefficients: the rational share is 1 in 7.  Seven
# cells, an odd count, keep the median inside one cell's cluster of
# latencies rather than on the edge between two.
NUMERIC_CELLS = [
    ((2, 2, 2), "int"),
    ((2, 2, 3), "fraction"),
    ((2, 3, 3), "int"),
    ((3, 3, 3), "int"),
    ((2, 2, 2, 2), "int"),
    ((1, 2, 2, 3), "int"),
    ((2, 3, 4), "int"),
]

# Sparse cells: the support of every linear form is fixed per cell (three
# of the n variables), the coefficients are drawn.  In the two "fallback"
# cells the form of f_1 omits X_1, so the coefficient of X_1^{d_1} in f_1
# vanishes, every extraneous minor of the canonical ladder is singular
# and the permutation fallback must run; in the "direct" cells each f_j
# keeps X_j and the minimal t succeeds at once.  Fixed supports make the
# share of fallback calls the same in every round (2 in 5).  The five
# cells take distinct times (about 14, 25, 50, 170 and 750 ms), so the
# median falls inside the direct (1,1,3,3) cluster and p90 inside the
# fallback (1,1,3,3) one, not on the edge between two clusters.
SPARSE_CELLS = [
    ((1, 1, 2, 3), "fallback",
     [[(1, 2, 3)], [(0, 2, 3)], [(1, 2, 3), (0, 1, 3)],
      [(0, 2, 3), (0, 1, 2), (0, 2, 3)]]),
    ((1, 1, 3, 3), "fallback",
     [[(1, 2, 3)], [(0, 2, 3)], [(1, 2, 3), (0, 1, 3), (0, 2, 3)],
      [(0, 1, 2), (0, 2, 3), (0, 2, 3)]]),
    ((1, 1, 2, 3), "direct",
     [[(0, 2, 3)], [(0, 1, 2)], [(0, 2, 3), (0, 1, 3)],
      [(0, 1, 2), (0, 2, 3), (0, 1, 2)]]),
    ((1, 1, 3, 3), "direct",
     [[(0, 1, 2)], [(0, 2, 3)], [(0, 1, 2), (0, 1, 3), (0, 2, 3)],
      [(0, 2, 3), (1, 2, 3), (0, 1, 2)]]),
    ((1, 1, 2, 2, 2), "direct",
     [[(0, 1, 2)], [(0, 1, 2)], [(0, 1, 4), (0, 1, 2)],
      [(0, 2, 4), (0, 1, 4)], [(0, 1, 3), (0, 3, 4)]]),
]

# Generic cells and the degrees t run for each: every t <= 2 (all of
# them within the default size gate of 16).  The three (1,2,3) calls
# are the slowest fifth of a round and p90 falls inside the middle one
# (t=1); (1,1,1,3) is left out because its t=0 and t=2 calls (about 1 s
# each, 10% apart) would put p90 on the edge between two clusters.
SYMBOLIC_CELLS = [
    ((4, 4), (0, 1, 2)),
    ((1, 1, 4), (0, 1, 2)),
    ((1, 2, 2), (0, 1, 2)),
    ((1, 1, 1, 2), (0, 1, 2)),
    ((1, 2, 3), (0, 1, 2)),
]

WORKLOADS = ("numeric-minimal", "numeric-classical", "sparse-fallback",
             "symbolic-sweep")


class Case:
    """One resultant call: the degrees, the coefficient domain, the
    degree t to pass (None for the program's default), the split forms
    and their closed-form resultant.  Symbolic cases carry the forms of
    a split specialization used to check the generic output."""

    __slots__ = ("degrees", "domain", "t", "forms", "expected", "label")

    def __init__(self, degrees, domain, t, forms, expected, label):
        self.degrees = degrees
        self.domain = domain
        self.t = t
        self.forms = forms
        self.expected = expected
        self.label = label

    def key(self):
        return (self.label, self.degrees, self.domain, self.t, self.forms,
                self.expected)


class Draws:
    """Counts of split draws made and of those rejected because their
    closed form was 0."""

    def __init__(self):
        self.made = 0
        self.rejected = 0


def _entry(rng):
    # |c| up to 99: with |c| <= 9 about 1 in 70 dense draws hit a zero
    # closed form or a singular extraneous minor at tcrit + 1 by accident,
    # which made a seed-dependent share of classical calls fall back
    return rng.choice((-1, 1)) * rng.randint(1, 99)


def _dense_entry(rng, domain):
    c = _entry(rng)
    if domain == "fraction":
        return Fraction(c, rng.randint(1, 4))
    return c


def _draw(rng, degrees, draws, entry):
    """Split forms with a nonzero closed form; entry(rng, i, k, v) gives
    the coefficient of X_v in the k-th form of f_i."""
    n = len(degrees)
    while True:
        forms = tuple(tuple(tuple(entry(rng, i, k, v) for v in range(n))
                            for k in range(d))
                      for i, d in enumerate(degrees))
        draws.made += 1
        value = split_resultant(forms)
        if value:
            return forms, value
        draws.rejected += 1


def round_cases(workload, seed, r, draws):
    """The cases of round r of a workload under a seed."""
    rng = random.Random("%s/%d/%d" % (workload, seed, r))
    cases = []
    if workload in ("numeric-minimal", "numeric-classical"):
        for degrees, domain in NUMERIC_CELLS:
            forms, value = _draw(rng, degrees, draws,
                                 lambda g, i, k, v: _dense_entry(g, domain))
            t = None
            if workload == "numeric-classical":
                t = sum(d - 1 for d in degrees) + 1
            cases.append(Case(degrees, domain, t, forms, value, domain))
    elif workload == "sparse-fallback":
        for degrees, label, support in SPARSE_CELLS:
            def entry(g, i, k, v, support=support):
                return _entry(g) if v in support[i][k] else 0
            forms, value = _draw(rng, degrees, draws, entry)
            cases.append(Case(degrees, "int", None, forms, value, label))
    elif workload == "symbolic-sweep":
        for degrees, ts in SYMBOLIC_CELLS:
            for t in ts:
                forms, value = _draw(rng, degrees, draws,
                                     lambda g, i, k, v: _dense_entry(g, "int"))
                cases.append(Case(degrees, "generic", t, forms, value, "generic"))
    else:
        raise ValueError("unknown workload %r" % (workload,))
    return cases


def input_digest(workload, seed, rounds=4):
    """sha256 over the cases of the first rounds, to show that a seed
    gives the same inputs in separate processes."""
    h = hashlib.sha256()
    draws = Draws()
    for r in range(rounds):
        for case in round_cases(workload, seed, r, draws):
            h.update(repr(case.key()).encode())
    return h.hexdigest()[:16]
