"""Every integer parameter goes through the one check, ``cartan.check_int``.

Each parameter is fed values that are not ints (a bool is not one) and,
where it has one, a value below its bound: each must raise a ValueError
subclass, never a bare TypeError and never an answer.  Its smallest valid
value must still give the answer it gave before the check was shared.
"""

import pytest

from klr import (
    GradedDim,
    KLRRing,
    LaurentPoly,
    a2,
    act_word,
    cycle,
    cyclotomic_spec,
    default_orientation,
    graded_basis,
    ideal_degree_dim,
    pair_monomials,
    qbinom,
    qfact,
    qint,
    quotient_gdim,
    seq_enumerate,
    single_vertex,
    sym_plus_spec,
)
from klr.laurent import qmultinomial

NOT_INTS = (1.5, 2.0, True, False, "2", None)

A1 = KLRRing(single_vertex())
A2 = KLRRing(a2())
SYM = sym_plus_spec(A1, (("i", 2),))  # lowest degree -2, top 2


def _element(perm, dots):
    return A1.element_from_json([{"source": ["i"], "permutation": perm,
                                  "dots": dots, "coeff": "1"}])


def _qmultinomial(n):
    # warm the memo with the ints that 2.0, True and False equal, so a
    # part that skips the check would read a cached answer
    for k in (0, 1, 2):
        qmultinomial((k, 2))
    return qmultinomial((n, 2))


def _act(k):
    return act_word(A2.graph, default_orientation(A2.graph), ("i", "j"),
                    [("D", k)], {(0, 0): 1})


# name -> (call of one value, value below the bound or None, smallest
# valid value, its answer); a prime of None is the field Q, not a bad value
PARAMETERS = {
    "dot index (kernel)": (
        lambda k: str(A2.evaluate_word(("i", "j"), [("D", k)])),
        0, 1, "x1[ij]"),
    "crossing index (kernel)": (
        lambda k: str(A2.evaluate_word(("i", "j"), [("C", k)])),
        0, 1, "s1[ij]"),
    "dot index (polynomial representation)": (
        _act, 0, 1, (("i", "j"), {(1, 0): 1})),
    "vertex count": (lambda n: seq_enumerate((("i", n),)), -1, 0, [()]),
    "divided-power block size": (
        lambda n: str(pair_monomials(A2, (("i", n),), (("i", 1),))),
        0, 1, "1 / (1-q^2)"),
    "nilhecke strand count": (
        lambda m: A1.nilhecke_em(m, "i") == A1.idempotent(()), -1, 0, True),
    "permutation entry": (lambda x: str(_element([x], [0])), 0, 1, "1[i]"),
    "dot exponent": (lambda e: str(_element([1], [e])), -1, 0, "1[i]"),
    "denominator factor": (
        lambda a: str(GradedDim(LaurentPoly.one(), (a,))), 0, 1,
        "1 / (1-q^2)"),
    "coefficient (GradedDim.from_json)": (
        lambda c: str(GradedDim.from_json({"num": {"0": c}, "den": []})),
        None, 0, "0"),
    "LaurentPoly exponent": (
        lambda n: LaurentPoly({1: 1}) ** n, -1, 0, LaurentPoly.one()),
    "LaurentPoly key (constructor)": (
        lambda e: LaurentPoly({e: 1}), None, 0, LaurentPoly.one()),
    "LaurentPoly coefficient (constructor)": (
        lambda c: LaurentPoly({1: c}), None, 0, LaurentPoly.zero()),
    "LaurentPoly.const": (LaurentPoly.const, None, 0, LaurentPoly.zero()),
    "LaurentPoly.q_power exponent": (
        LaurentPoly.q_power, None, 0, LaurentPoly.one()),
    "LaurentPoly.shifted": (
        lambda k: LaurentPoly.one().shifted(k), None, 0, LaurentPoly.one()),
    "LaurentPoly.q_power coefficient": (
        lambda c: LaurentPoly.q_power(1, c), None, 0, LaurentPoly.zero()),
    "LaurentPoly.truncate cutoff": (
        lambda c: LaurentPoly({0: 1, 1: 1}).truncate(c), None, 0,
        LaurentPoly.one()),
    "GradedDim.series cutoff": (
        lambda c: GradedDim(LaurentPoly.one(), (1,)).series(c), None, 0,
        LaurentPoly.one()),
    "qint": (qint, -1, 0, LaurentPoly.zero()),
    "qfact": (qfact, -1, 0, LaurentPoly.one()),
    "qmultinomial part": (_qmultinomial, -1, 0, LaurentPoly.one()),
    "qbinom n": (lambda n: qbinom(n, 0), -1, 0, LaurentPoly.one()),
    "qbinom k": (lambda k: qbinom(3, k), -1, 0, LaurentPoly.one()),
    "cyclotomic dot power": (
        lambda n: str(quotient_gdim(
            A1, cyclotomic_spec(A1, (("i", 2),), {"i": n}))),
        -1, 0, "all degrees zero\ntotal (q=1): 0\nstabilized"),
    "window": (
        lambda w: str(quotient_gdim(A1, SYM, cutoff=-2, window=w)),
        0, 1, "deg   -2: 1\ntotal (q=1): 1\nNOT stabilized within cutoff -2"),
    "cutoff": (
        lambda c: quotient_gdim(A1, SYM, cutoff=c, window=1).degrees,
        -3, -2, {-2: 1}),
    "prime": (
        lambda p: quotient_gdim(A1, SYM, prime=p).degrees,
        1, 2, {-2: 1, -1: 0, 0: 2, 1: 0, 2: 1}),
    "ideal prime": (
        lambda p: ideal_degree_dim(A1, SYM, 0, p), 1, 2, 1),
    "cycle length": (lambda n: cycle(n).vertices, 2, 3, ("1", "2", "3")),
    "graded_basis degree": (
        lambda d: graded_basis(A1.graph, (("i", 1),), d),
        None, 0, [(("i",), (0,), (0,))]),
    "ideal_degree_dim degree": (
        lambda d: ideal_degree_dim(A1, SYM, d), None, -2, 0),
}


@pytest.mark.parametrize("name", sorted(PARAMETERS))
def test_every_integer_parameter_is_checked(name):
    call, below, smallest, answer = PARAMETERS[name]
    bad = NOT_INTS + (() if below is None else (below,))
    if "prime" in name:
        bad = tuple(v for v in bad if v is not None)
    for value in bad:
        # pytest.raises(ValueError) lets a bare TypeError through, which
        # fails the test, and so does a call that returns
        with pytest.raises(ValueError):
            call(value)
    assert call(smallest) == answer

