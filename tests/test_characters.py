import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klr import (
    GradedDim,
    GraphError,
    K0Vector,
    KLRRing,
    LaurentPoly,
    WeightMismatchError,
    a2,
    bar_k0,
    char_at_divided,
    char_projective,
    comultiply,
    cycle_alpha,
    equal_in_f,
    orthogonal_idempotents_check,
    pair_monomials,
    pair_recursive,
    serre_check,
    shuffle_product,
    sigma_k0,
    tight,
)
from klr.laurent import qbinom, qfact
from klr.sequences import divided_weight


def monomials_of_weight(verts, total):
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


def test_pairing_values(ring_a1):
    assert (pair_monomials(ring_a1, (("i", 1),), (("i", 1),))
            == GradedDim(LaurentPoly.one(), (1,)))
    assert (pair_monomials(ring_a1, (("i", 2),), (("i", 2),))
            == GradedDim(LaurentPoly.one(), (1, 2)))


def test_pairing_weight_orthogonality(ring_a2):
    assert pair_monomials(ring_a2, (("i", 1),), (("j", 1),)).is_zero()


def test_pairing_symmetry(ring_a2):
    monos = monomials_of_weight(["i", "j"], 3)
    for t1 in monos:
        for t2 in monos:
            assert (pair_monomials(ring_a2, t1, t2)
                    == pair_monomials(ring_a2, t2, t1))


def test_pair_routes_agree(ring_a2):
    for total in (1, 2, 3):
        for t1 in monomials_of_weight(["i", "j"], total):
            for t2 in monomials_of_weight(["i", "j"], total):
                assert (pair_monomials(ring_a2, t1, t2)
                        == pair_recursive(ring_a2, t1, t2))


def test_pair_routes_reject_unknown_vertices(ring_a2):
    """Both routes check labels before the weight short-circuit."""
    k, i = (("k", 1),), (("i", 1),)
    for route in (pair_monomials, pair_recursive):
        for left, right in ((k, k), (i, k), (k, i)):
            with pytest.raises(GraphError):
                route(ring_a2, left, right)
    with pytest.raises(GraphError):
        comultiply(ring_a2.graph, k)


def test_pair_recursive_memo_is_transparent():
    """A warm numerator memo gives the same pairings as a cold one."""
    monos = monomials_of_weight(["i", "j"], 4)
    weight = divided_weight((("i", 2), ("j", 2)))
    same = [t for t in monos if divided_weight(t) == weight]
    targets, others = same[:3], same[3:]
    warm = KLRRing(a2())
    for t1 in others:
        for t2 in others:
            pair_recursive(warm, t1, t2)
    assert warm._pair_cache
    for t1 in targets:
        for t2 in same:
            cold = pair_recursive(KLRRing(a2()), t1, t2)
            hot = pair_recursive(warm, t1, t2)
            assert hot.num == cold.num and hot.den == cold.den, (t1, t2)
            assert hot == pair_monomials(warm, t1, t2), (t1, t2)


def test_char_values(ring_a1, ring_a1xa1):
    cv = char_projective(ring_a1, (("i", 1),))
    assert cv.value(("i",)) == GradedDim(LaurentPoly.one(), (1,))
    cv2 = char_projective(ring_a1, (("i", 2),))
    assert cv2.value(("i", "i")) == GradedDim(LaurentPoly.q_power(-1), (1, 1))
    cv3 = char_projective(ring_a1xa1, (("i", 1), ("j", 1)))
    one2 = GradedDim(LaurentPoly.one(), (1, 1))
    assert cv3.value(("i", "j")) == one2
    assert cv3.value(("j", "i")) == one2


def test_shuffle_products(ring_a2, ring_a1xa1):
    ci = char_projective(ring_a1xa1, (("i", 1),))
    cj = char_projective(ring_a1xa1, (("j", 1),))
    prod = shuffle_product(ring_a1xa1.graph, ci, cj)
    one2 = GradedDim(LaurentPoly.one(), (1, 1))
    assert prod.value(("i", "j")) == one2
    assert prod.value(("j", "i")) == one2
    prod = shuffle_product(ring_a2.graph,
                           char_projective(ring_a2, (("i", 1),)),
                           char_projective(ring_a2, (("j", 1),)))
    assert prod.value(("i", "j")) == one2
    assert prod.value(("j", "i")) == one2 * LaurentPoly.q_power(1)


def test_shuffle_lemma(ring_a2, ring_a1xa1):
    for ring in (ring_a2, ring_a1xa1):
        for n1 in (1, 2):
            for n2 in (1, 2):
                for t1 in monomials_of_weight(["i", "j"], n1):
                    for t2 in monomials_of_weight(["i", "j"], n2):
                        lhs = char_projective(ring, t1 + t2)
                        rhs = shuffle_product(ring.graph,
                                              char_projective(ring, t1),
                                              char_projective(ring, t2))
                        assert lhs == rhs, (t1, t2)


def test_comultiply_examples(ring_a2):
    g = ring_a2.graph
    one = LaurentPoly.one()
    assert comultiply(g, ()) == [((), (), one)]
    terms = comultiply(g, (("i", 1),))
    assert sorted((l, r, c.coeffs) for l, r, c in terms) == sorted([
        ((("i", 1),), (), {0: 1}), ((), (("i", 1),), {0: 1})])
    # r(theta_i theta_j): the crossed term picks up q^{-i.j} = q
    terms = comultiply(g, (("i", 1), ("j", 1)))
    lookup = {(l, r): c for l, r, c in terms}
    assert lookup[((("j", 1),), (("i", 1),))] == LaurentPoly.q_power(1)
    assert lookup[((("i", 1),), (("j", 1),))] == one
    # divided block: q^{-ab} factors
    terms = comultiply(g, (("i", 2),))
    lookup = {(l, r): c for l, r, c in terms}
    assert lookup[((("i", 1),), (("i", 1),))] == LaurentPoly.q_power(-1)


def test_adjointness(ring_a2):
    rng = random.Random(31)
    monos = monomials_of_weight(["i", "j"], 2) + monomials_of_weight(
        ["i", "j"], 3)
    for _ in range(30):
        x = rng.choice(monos)
        total = sum(n for _, n in divided_weight(x))
        k = rng.randint(0, total)
        splits = [(y, y2)
                  for y in monomials_of_weight(["i", "j"], k)
                  for y2 in monomials_of_weight(["i", "j"], total - k)
                  if divided_weight(y + y2) == divided_weight(x)]
        if not splits:
            continue
        y, y2 = rng.choice(splits)
        lhs = pair_monomials(ring_a2, x, y + y2)
        rhs = GradedDim.zero()
        for left, right, coeff in comultiply(ring_a2.graph, x):
            t1 = pair_monomials(ring_a2, left, y)
            if t1.is_zero():
                continue
            t2 = pair_monomials(ring_a2, right, y2)
            if t2.is_zero():
                continue
            rhs = rhs + t1 * t2 * coeff
        assert lhs == rhs, (x, y, y2)


def test_character_corollaries(ring_a2):
    P = char_projective(ring_a2, (("i", 1), ("j", 1), ("i", 1)))
    assert (P.value(("i", "j", "i"))
            == char_at_divided(P, (("i", 2), ("j", 1)))
            + char_at_divided(P, (("j", 1), ("i", 2))))
    assert (P.value(("i", "i", "j"))
            == char_at_divided(P, (("i", 2), ("j", 1))) * qbinom(2, 1))


def test_commuting_labels_character_equality(ring_a1xa1):
    P = char_projective(ring_a1xa1, (("i", 1), ("j", 1)))
    assert P.value(("i", "j")) == P.value(("j", "i"))


def test_equal_in_f(ring_a1, ring_a2, ring_a1xa1):
    assert equal_in_f(ring_a1xa1,
                      K0Vector.monomial((("i", 1), ("j", 1))),
                      K0Vector.monomial((("j", 1), ("i", 1))))
    assert equal_in_f(ring_a2,
                      K0Vector.monomial((("i", 1), ("j", 1), ("i", 1))),
                      K0Vector.monomial((("i", 2), ("j", 1)))
                      + K0Vector.monomial((("j", 1), ("i", 2))))
    assert equal_in_f(ring_a1,
                      K0Vector.monomial((("i", 1), ("i", 1))),
                      K0Vector.monomial((("i", 2),)).scale(qfact(2)))
    assert not equal_in_f(
        ring_a1, K0Vector.monomial((("i", 1),)),
        K0Vector.monomial((("i", 1),)).scale(LaurentPoly.q_power(1)))
    with pytest.raises(WeightMismatchError):
        K0Vector.monomial((("i", 1),)) + K0Vector.monomial((("j", 1),))
    with pytest.raises(WeightMismatchError):
        (char_projective(ring_a2, (("i", 1),))
         + char_projective(ring_a2, (("j", 1),)))


def test_bar_sigma_k0():
    u = K0Vector.monomial((("i", 2), ("j", 1)), LaurentPoly.q_power(1))
    b = bar_k0(u)
    assert b.coeffs == {(("i", 2), ("j", 1)): LaurentPoly.q_power(-1)}
    assert bar_k0(b).coeffs == u.coeffs
    s = sigma_k0(u)
    assert s.coeffs == {(("j", 1), ("i", 2)): LaurentPoly.q_power(1)}


def test_serre(ring_a2, ring_a1xa1):
    assert serre_check(ring_a2, "i", "j")
    assert serre_check(ring_a1xa1, "i", "j")
    with pytest.raises(ValueError):
        serre_check(ring_a2, "i", "i")


def test_orthogonal_idempotents(ring_a2, ring_a1xa1):
    assert orthogonal_idempotents_check(ring_a2, "i", "j")
    assert orthogonal_idempotents_check(ring_a2, "j", "i")
    with pytest.raises(GraphError):
        orthogonal_idempotents_check(ring_a1xa1, "i", "j")


def test_orthogonal_idempotents_oracle_confirmation(ring_a2):
    from klr import oracle_equal
    seq = ("i", "j", "i")
    e1 = ring_a2.evaluate_word(seq, [("C", 1), ("C", 2), ("C", 1)])
    e2 = -ring_a2.evaluate_word(seq, [("C", 2), ("C", 1), ("C", 2)])
    one = ring_a2.idempotent(seq)
    assert oracle_equal(e1 * e1, e1, 3)
    assert oracle_equal(e2 * e2, e2, 3)
    assert oracle_equal(e1 * e2, ring_a2.zero(), 3)
    assert oracle_equal(e2 * e1, ring_a2.zero(), 3)
    assert oracle_equal(e1 + e2, one, 3)


def test_tight(ring_a1, ring_a2):
    assert tight(ring_a1, (("i", 1),)).tight
    assert tight(ring_a1, (("i", 3),)).tight
    for a, b, c in [(0, 1, 0), (1, 2, 1), (1, 3, 1), (2, 3, 1)]:
        theta = tuple(x for x in (("i", a), ("j", b), ("i", c)) if x[1])
        assert tight(ring_a2, theta).tight, (a, b, c)
    rep = tight(ring_a2, (("i", 1), ("j", 1), ("i", 1)))
    assert not rep.tight
    assert rep.constant_term == 2
    assert rep.first_bad == (0, 2)
    assert "constant term 2" in str(rep)
    # End(P_ii) is the nilHecke ring NH_2, with psi in degree -2
    rep = tight(ring_a2, (("i", 1), ("i", 1)))
    assert not rep.tight
    assert rep.first_bad == (-2, 1) and rep.constant_term == 3
    assert rep.to_json() == {"monomial": "i i", "tight": False,
                             "constant_term": 3, "first_bad": [-2, 1]}


def _scan_tight(ring, theta, cutoff=12):
    """The series-scan verdict tight() gave before it was exact.

    Returns (tight, constant term, first bad term), or None where the scan
    refused a self-pairing with a negative power of q.
    """
    series = pair_monomials(ring, theta, theta).series(cutoff)
    if not series.is_zero() and series.min_exp() < 0:
        return None
    constant = series[0]
    first_bad = None
    if constant != 1:
        first_bad = (0, constant)
    else:
        for e in range(1, cutoff + 1):
            if series[e] < 0:
                first_bad = (e, series[e])
                break
    return first_bad is None, constant, first_bad


def _divided(draw, seq):
    """Group a plain sequence into divided blocks at random."""
    blocks = []
    for v in seq:
        if blocks and blocks[-1][0] == v and draw(st.booleans()):
            blocks[-1] = (v, blocks[-1][1] + 1)
        else:
            blocks.append((v, 1))
    return tuple(blocks)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_pairing_routes_positive_and_tightness_exact(ring_a1, ring_a2,
                                                     ring_cycle3, data):
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_cycle3]))
    seq = data.draw(st.lists(st.sampled_from(ring.graph.vertices),
                             min_size=1, max_size=7))
    theta = _divided(data.draw, seq)
    theta2 = _divided(data.draw, data.draw(st.permutations(seq)))
    forward = pair_monomials(ring, theta, theta2)
    assert forward == pair_recursive(ring, theta, theta2)
    assert forward == pair_monomials(ring, theta2, theta)
    assert forward == pair_recursive(ring, theta2, theta)
    # the form is a graded dimension of a hom space (KL I, section 3)
    self_pairing = pair_monomials(ring, theta, theta).series(12)
    for series in (forward.series(12), self_pairing):
        assert all(c >= 0 for c in series.coeffs.values())
    rep = tight(ring, theta)
    old = _scan_tight(ring, theta)
    if old is not None:
        assert (rep.tight, rep.constant_term, rep.first_bad) == old
    else:
        low = self_pairing.min_exp()
        assert not rep.tight and rep.first_bad == (low, self_pairing[low])


def test_cycle_alpha(ring_cycle3, ring_cycle4):
    alpha, sq = cycle_alpha(ring_cycle3, 3)
    assert alpha.degree() == 0
    assert sq.is_zero()
    alpha4, sq4 = cycle_alpha(ring_cycle4, 4)
    assert sq4 == -2 * alpha4
    with pytest.raises(ValueError):
        cycle_alpha(ring_cycle3, 2)
    # '1' '2' '3' span a path in the 4-cycle, and '4' is not in the 3-cycle
    for ring, n in ((ring_cycle4, 3), (ring_cycle3, 4)):
        with pytest.raises(GraphError):
            cycle_alpha(ring, n)
