"""End-to-end acceptance suite.

Each test pins down one headline guarantee of the package, with an explicit
wall-clock budget asserted alongside the mathematical content.
"""

import itertools
import math
import time

from klr import (
    GradedDim,
    K0Vector,
    KLRRing,
    LaurentPoly,
    char_projective,
    cycle_alpha,
    cyclotomic_spec,
    degree_lower_bound,
    equal_in_f,
    graded_basis,
    orthogonal_idempotents_check,
    pair_monomials,
    pair_recursive,
    quotient_gdim,
    shuffle_product,
    sym_plus_spec,
    tight,
)
from klr.laurent import qfact, qint
from klr.sequences import divided_weight
from klr.verify import oracle, relations


class Budget:
    """Context manager asserting a wall-clock budget in seconds."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            elapsed = time.monotonic() - self.start
            assert elapsed < self.seconds, (
                f"budget exceeded: {elapsed:.1f}s >= {self.seconds}s")
        return False


def monomials_of_total(verts, total):
    out = []

    def rec(prefix, rem):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for v in verts:
            for n in range(1, rem + 1):
                rec(prefix + [(v, n)], rem - n)

    rec([], total)
    return out


def test_01_relation_suite(ring_a1, ring_a2, ring_a1xa1, ring_cycle3):
    with Budget(5):
        for ring in (ring_a1, ring_a2, ring_a1xa1, ring_cycle3):
            assert relations(ring) == []


def test_02_oracle_consistency(ring_a1, ring_a2, ring_a1xa1, ring_cycle3):
    with Budget(10):
        for ring in (ring_a1, ring_a2, ring_a1xa1, ring_cycle3):
            assert oracle(ring) == []


def test_03_pairing_values_and_routes(ring_a1, ring_a2):
    with Budget(5):
        assert (pair_monomials(ring_a1, (("i", 1),), (("i", 1),))
                == GradedDim(LaurentPoly.one(), (1,)))
        assert (pair_monomials(ring_a1, (("i", 2),), (("i", 2),))
                == GradedDim(LaurentPoly.one(), (1, 2)))
        by_weight = {}
        for total in range(1, 6):
            for mono in monomials_of_total(["i", "j"], total):
                by_weight.setdefault(divided_weight(mono), []).append(mono)
        for monos in by_weight.values():
            for t1 in monos:
                for t2 in monos:
                    assert (pair_monomials(ring_a2, t1, t2)
                            == pair_recursive(ring_a2, t1, t2)), (t1, t2)
        # different weights pair to zero along both routes
        assert pair_monomials(ring_a2, (("i", 2),), (("i", 1), ("j", 1))
                              ).is_zero()
        assert pair_recursive(ring_a2, (("i", 2),), (("i", 1), ("j", 1))
                              ).is_zero()


def test_04_shuffle_lemma(ring_a2, ring_a1xa1):
    with Budget(5):
        for ring in (ring_a2, ring_a1xa1):
            for n1 in range(1, 4):
                for n2 in range(1, 5 - n1):
                    for t1 in monomials_of_total(["i", "j"], n1):
                        for t2 in monomials_of_total(["i", "j"], n2):
                            lhs = char_projective(ring, t1 + t2)
                            rhs = shuffle_product(
                                char_projective(ring, t1),
                                char_projective(ring, t2))
                            assert lhs == rhs, (t1, t2)


def test_05_serre_k0_identities(ring_a1, ring_a2, ring_a1xa1):
    with Budget(10):
        mono = K0Vector.monomial
        assert equal_in_f(ring_a1xa1,
                          mono((("i", 1), ("j", 1))),
                          mono((("j", 1), ("i", 1))))
        assert equal_in_f(ring_a2,
                          mono((("i", 1), ("j", 1), ("i", 1))).scale(qint(2)),
                          mono((("i", 1), ("i", 1), ("j", 1)))
                          + mono((("j", 1), ("i", 1), ("i", 1))))
        assert equal_in_f(ring_a2,
                          mono((("i", 1), ("j", 1), ("i", 1))),
                          mono((("i", 2), ("j", 1)))
                          + mono((("j", 1), ("i", 2))))
        assert equal_in_f(ring_a1,
                          mono((("i", 1), ("i", 1))),
                          mono((("i", 2),)).scale(qfact(2)))


def test_06_orthogonal_idempotents(ring_a2):
    with Budget(5):
        assert orthogonal_idempotents_check(ring_a2, "i", "j")
        assert orthogonal_idempotents_check(ring_a2, "j", "i")


def test_07_nilhecke_idempotents(ring_a1):
    with Budget(5):
        for m in range(1, 9):
            em = ring_a1.nilhecke_em(m, "i")
            assert em.degree() == 0
            assert em * em == em


def test_08_cycle_phenomenon(ring_cycle3, ring_cycle4):
    with Budget(10):
        alpha3, sq3 = cycle_alpha(ring_cycle3, 3)
        assert sq3.is_zero()
        alpha4, sq4 = cycle_alpha(ring_cycle4, 4)
        assert sq4 == -2 * alpha4


def test_09_tightness(ring_a2):
    with Budget(5):
        for a, b, c in [(0, 1, 0), (1, 2, 1), (1, 3, 1), (2, 3, 1)]:
            theta = tuple(x for x in (("i", a), ("j", b), ("i", c)) if x[1])
            rep = tight(ring_a2, theta)
            assert rep.tight, (a, b, c)
        rep = tight(ring_a2, (("i", 1), ("j", 1), ("i", 1)))
        assert not rep.tight
        assert rep.constant_term == 2
        # Lusztig's A2 closed form: i^(a) j^(b) i^(c) is a canonical basis
        # element iff b >= a + c; all 560 monomials up to 16 strands
        count = 0
        for a, b, c in itertools.product(range(1, 15), repeat=3):
            if a + b + c > 16:
                continue
            count += 1
            rep = tight(ring_a2, (("i", a), ("j", b), ("i", c)))
            assert rep.tight == (b >= a + c), (a, b, c)
            if b == a + c - 1:
                assert rep.constant_term == 2, (a, b, c)
                assert rep.first_bad == (0, 2), (a, b, c)
            elif b < a + c - 1:
                assert rep.first_bad[0] < 0, (a, b, c)
        assert count == 560
        # 20 strands: both routes agree on i^(4) j^(12) i^(4)
        theta = (("i", 4), ("j", 12), ("i", 4))
        assert (pair_monomials(ring_a2, theta, theta)
                == pair_recursive(ring_a2, theta, theta))


def test_10_quotients(ring_a1, ring_a2):
    with Budget(5):
        # one-strand cyclotomic quotients are truncated polynomial rings
        for lam in range(1, 5):
            spec = cyclotomic_spec(ring_a1, (("i", 1),), {"i": lam})
            rep = quotient_gdim(ring_a1, spec, cutoff=2 * lam + 4, window=3)
            assert rep.stabilized
            assert ({d: n for d, n in rep.degrees.items() if n}
                    == {2 * t: 1 for t in range(lam)})
        # total dimension of the symmetric-ideal quotient is (m!)^2
        symplus_cases = [
            (ring_a1, (("i", 1),), 6),
            (ring_a1, (("i", 2),), 8),
            (ring_a1, (("i", 3),), 10),
            (ring_a2, (("i", 1), ("j", 1)), 8),
            (ring_a2, (("i", 2), ("j", 1)), 8),
            (ring_a2, (("i", 1), ("j", 2)), 8),
        ]
        for ring, weight, cutoff in symplus_cases:
            m = sum(n for _, n in weight)
            rep = quotient_gdim(ring, sym_plus_spec(ring, weight),
                                cutoff=cutoff, window=3)
            assert rep.stabilized
            assert rep.total() == math.factorial(m) ** 2, weight
        # regression fixtures, recorded from the first verified run
        fixtures = {
            (1, 1): {0: 1},
            (1, 2): {0: 1, 2: 1},
            (2, 2): {-2: 1, 0: 2, 2: 1},
        }
        for (m, lam), expected in fixtures.items():
            spec = cyclotomic_spec(ring_a1, (("i", m),), {"i": lam})
            rep = quotient_gdim(ring_a1, spec, cutoff=10, window=3)
            assert rep.stabilized, (m, lam)
            assert {d: n for d, n in rep.degrees.items() if n} == expected


def test_12_quotient_gate(ring_a1, ring_a2):
    # R^lambda(nu) for lambda = Lambda_i + Lambda_j, nu = 2i + 2j on a2:
    # the cyclotomic quotient categorifies V(lambda) (Kang-Kashiwara)
    weight = (("i", 2), ("j", 2))
    want = {-2: 4, -1: 8, 0: 12, 1: 8, 2: 4}
    for prime in (None, 2147483629):
        with Budget(5):
            spec = cyclotomic_spec(ring_a2, weight, {"i": 1, "j": 1})
            rep = quotient_gdim(ring_a2, spec, cutoff=6, window=3,
                                prime=prime)
            assert {d: n for d, n in rep.degrees.items() if n} == want
            assert rep.stabilized
    # lambda = 2 Lambda_i + Lambda_j, nu = 3i + 2j, up to degree 0; the
    # q-Shapovalov form on V(lambda) gives the same degrees.  Without dead
    # products, 52 504 rows are reduced at degree 0 for a rank of 3 003.
    weight = (("i", 3), ("j", 2))
    want = {-6: 1, -5: 8, -4: 29, -3: 72, -2: 140, -1: 216, 0: 282}
    for prime in (None, 2147483629):
        with Budget(10):
            spec = cyclotomic_spec(ring_a2, weight, {"i": 2, "j": 1})
            rep = quotient_gdim(ring_a2, spec, cutoff=0, window=1,
                                prime=prime)
            assert {d: n for d, n in rep.degrees.items() if n} == want
            assert rep.stats[0]["rows"] <= 15000
    # NH_3 with lambda = 2: three strands need lambda >= 3
    with Budget(5):
        spec = cyclotomic_spec(ring_a1, (("i", 3),), {"i": 2})
        rep = quotient_gdim(ring_a1, spec, cutoff=6, window=3)
        assert rep.total() == 0 and rep.stabilized


def test_11_degree_lower_bound(ring_a2):
    with Budget(10):
        weights = []
        for a in range(0, 5):
            for b in range(0, 5 - a):
                if a + b:
                    weights.append(tuple(
                        x for x in (("i", a), ("j", b)) if x[1]))
        for weight in weights:
            lb = degree_lower_bound(weight)
            for d in range(lb - 4, lb):
                assert graded_basis(ring_a2.graph, weight, d) == [], weight
            assert graded_basis(ring_a2.graph, weight, lb) != []
