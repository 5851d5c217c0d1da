import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klr import (
    CharacterVector,
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
    pair_k0,
    pair_monomials,
    pair_recursive,
    serre_check,
    shuffle_product,
    sigma_k0,
    tight,
)
from klr.laurent import qbinom, qfact
from klr.polyrep import act, act_many, default_orientation, oracle_equal
from klr.quotients import IdealSpec
from klr.sequences import divided_weight, expand, factorial_poly, reverse


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


def test_bad_divided_powers_raise_value_error(ring_a2):
    """Every divided-sequence entry point rejects n < 1 and non-int n."""
    ok = (("i", 1),)
    for n in (0, -1, 1.5):
        bad = (("i", n),)
        for route in (pair_monomials, pair_recursive):
            for left, right in ((bad, ok), (ok, bad), (bad, ())):
                with pytest.raises(ValueError, match="divided-power block"):
                    route(ring_a2, left, right)
        with pytest.raises(ValueError, match="divided-power block"):
            comultiply(ring_a2.graph, bad)
        with pytest.raises(ValueError, match="divided-power block"):
            char_projective(ring_a2, bad)
        with pytest.raises(ValueError, match="divided-power block"):
            tight(ring_a2, bad)
        with pytest.raises(ValueError, match="divided-power block"):
            char_at_divided(char_projective(ring_a2, ok), bad)
        with pytest.raises(ValueError, match="divided-power block"):
            K0Vector.monomial(bad)


# (theta, theta') -> the error both pairing routes raise: a bad block
# anywhere is reported before any unknown vertex, and the unknown vertices
# are named as written, in first-seen order
BAD_PAIRINGS = {
    "bad block in theta', unknown vertex in theta": (
        (("z", 1),), (("i", 0),),
        ValueError, "divided-power block size 0 is not an integer >= 1"),
    "n = 0": ((("i", 0),), (("i", 1),),
              ValueError, "divided-power block size 0 is not an integer >= 1"),
    "n = True": ((("i", 1),), (("i", True),), ValueError,
                 "divided-power block size True is not an integer >= 1"),
    "n = 1.5": ((("i", 1.5),), (("i", 1),), ValueError,
                "divided-power block size 1.5 is not an integer >= 1"),
    "block not a tuple": ((["i", 1],), (("i", 1),), ValueError,
                          "divided-power block ['i', 1] is not (vertex, n)"),
    "unhashable label": (((["i"], 1),), (("i", 1),),
                         GraphError, "unknown vertex ['i']"),
    "unhashable label, bad block after it": (
        ((["i"], 1),), (("i", 0),),
        ValueError, "divided-power block size 0 is not an integer >= 1"),
    "unknown vertices on both sides": (
        (("z", 1), ("i", 1)), (("y", 1), ("z", 2)),
        GraphError, "unknown vertex 'z' or 'y'"),
    "equal labels of two reprs": (((1, 1),), ((1.0, 1),),
                                  GraphError, "unknown vertex 1 or 1.0"),
}


@pytest.mark.parametrize("case", sorted(BAD_PAIRINGS))
def test_pair_routes_raise_one_error(ring_a2, case):
    theta, theta2, kind, message = BAD_PAIRINGS[case]
    for route in (pair_monomials, pair_recursive):
        with pytest.raises(ValueError) as err:
            route(ring_a2, theta, theta2)
        assert (type(err.value), str(err.value)) == (kind, message), route


def test_pair_monomials_memo_reads_a_repeat():
    """A repeated hom-route pairing reads the ring's hom cache: one hit, no
    new entry, and an equal value in a GradedDim of its own."""
    ring = KLRRing(a2())
    theta, theta2 = (("i", 2), ("j", 1)), (("i", 1), ("j", 1), ("i", 1))
    first = pair_monomials(ring, theta, theta2)
    before = ring.stats()
    second = pair_monomials(ring, theta, theta2)
    after = ring.stats()
    assert after["caches"] == before["caches"]
    assert after["caches"]["hom"] == 1
    assert after["hits"] == {**before["hits"],
                             "hom": before["hits"]["hom"] + 1}
    assert second is not first
    assert (second.num, second.den) == (first.num, first.den)
    assert second == pair_recursive(KLRRing(a2()), theta, theta2)


def test_hom_memo_is_keyed_by_the_runs_of_the_source():
    """The hom DP reads only the runs of theta': i i j and i^(2) j share
    one entry, and each call applies the multinomials of its own block
    split after the memo."""
    ring = KLRRing(a2())
    theta = (("i", 1), ("j", 1), ("i", 1))
    plain_src, divided_src = (("i", 1), ("i", 1), ("j", 1)), (("i", 2), ("j", 1))
    first = pair_monomials(ring, theta, plain_src)
    before = ring.stats()
    second = pair_monomials(ring, theta, divided_src)
    after = ring.stats()
    assert after["caches"] == before["caches"]
    assert after["caches"]["hom"] == 1
    assert after["hits"] == {**before["hits"],
                             "hom": before["hits"]["hom"] + 1}
    assert first == pair_recursive(KLRRing(a2()), theta, plain_src)
    assert second == pair_recursive(KLRRing(a2()), theta, divided_src)
    seq_j = expand(theta)
    for src in (plain_src, divided_src):
        assert ring.gdim_hom_divided(seq_j, src) == ring.gdim_hom(
            seq_j, expand(src)).divide_poly(factorial_poly(src)), src


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
    prod = shuffle_product(ci, cj)
    one2 = GradedDim(LaurentPoly.one(), (1, 1))
    assert prod.value(("i", "j")) == one2
    assert prod.value(("j", "i")) == one2
    prod = shuffle_product(char_projective(ring_a2, (("i", 1),)),
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
                        rhs = shuffle_product(char_projective(ring, t1),
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



def test_comparisons_with_other_types(ring_a2):
    """Vectors of two weights are not equal in f, and no vector, element
    or graded dimension equals an int or a string it is not; the zero
    element equals, so hashes as, 0."""
    assert not equal_in_f(ring_a2, K0Vector.monomial((("i", 1),)),
                          K0Vector.monomial((("j", 1),)))
    zero, x = ring_a2.zero(), ring_a2.generator(("C", 1), ("i", "j"))
    assert zero == 0 and not x == 0 and not x == "x"
    assert len({zero, 0}) == 1
    assert not char_projective(ring_a2, (("i", 1),)) == 1
    assert not GradedDim.one() == "x"


# each operator of a value type, or ring operation, given an operand of
# another type; a bool is not an int operand (check_int)
FOREIGN_OPERANDS = {
    "gd + 'x'": lambda v: v["gd"] + "x",
    "gd * True": lambda v: v["gd"] * True,
    "True * gd": lambda v: True * v["gd"],
    "gd + True": lambda v: v["gd"] + True,
    "True - gd": lambda v: True - v["gd"],
    "lp + True": lambda v: v["lp"] + True,
    "lp - True": lambda v: v["lp"] - True,
    "True - lp": lambda v: True - v["lp"],
    "lp * True": lambda v: v["lp"] * True,
    "elem * True": lambda v: v["elem"] * True,
    "True * elem": lambda v: True * v["elem"],
    "ring.element([1])": lambda v: v["elem"].ring.element([1]),
    "ring.element(None)": lambda v: v["elem"].ring.element(None),
    "ring.multiply(elem, 1)": lambda v: v["elem"].ring.multiply(v["elem"], 1),
    "ring.multiply(1, elem)": lambda v: v["elem"].ring.multiply(1, v["elem"]),
    "ring.psi(1)": lambda v: v["elem"].ring.psi(1),
    "gd * 'x'": lambda v: v["gd"] * "x",
    "'x' * gd": lambda v: "x" * v["gd"],
    "cv.scale('x')": lambda v: v["cv"].scale("x"),
    "cv + 1": lambda v: v["cv"] + 1,
    "k0 + 1": lambda v: v["k0"] + 1,
    "k0 - 1": lambda v: v["k0"] - 1,
    "elem + 1": lambda v: v["elem"] + 1,
    "elem - 1": lambda v: v["elem"] - 1,
    "elem + 'x'": lambda v: v["elem"] + "x",
    "CharacterVector(g, w, [])": lambda v: CharacterVector(
        v["cv"].graph, v["cv"].weight, []),
    "CharacterVector(None, w, {})": lambda v: CharacterVector(
        None, v["cv"].weight, {}),
    "shuffle_product(cv, 1)": lambda v: shuffle_product(v["cv"], 1),
    "pair_k0(ring, 1, theta)": lambda v: pair_k0(v["elem"].ring, 1,
                                                 (("i", 1),)),
    "equal_in_f(ring, 1, 1)": lambda v: equal_in_f(v["elem"].ring, 1, 1),
    "equal_in_f(None, u, u)": lambda v: equal_in_f(None, v["k0"], v["k0"]),
    "lp.exact_div(1)": lambda v: v["lp"].exact_div(1),
    "gd.divide_poly(1)": lambda v: v["gd"].divide_poly(1),
    "K0Vector(w, [])": lambda v: K0Vector(v["k0"].weight, []),
    "CharacterVector(g, w, {seq: 1})": lambda v: CharacterVector(
        v["cv"].graph, v["cv"].weight, {("i",): 1}),
    "K0Vector(w, {theta: 1})": lambda v: K0Vector(v["k0"].weight,
                                                  {(("i", 1),): 1}),
    "bar_k0(1)": lambda v: bar_k0(1),
    "sigma_k0(1)": lambda v: sigma_k0(1),
    "char_at_divided(1, theta)": lambda v: char_at_divided(1, (("i", 1),)),
    "IdealSpec(w, ['x'])": lambda v: IdealSpec((("i", 1),), ["x"]),
    "act(o, x, seq, [])": lambda v: act(
        default_orientation(v["elem"].ring.graph), v["elem"], ("i", "j"), []),
    "act(o, 1, seq, {})": lambda v: act(
        default_orientation(v["elem"].ring.graph), 1, ("i",), {}),
    "act_many(o, 1, seq, [{}])": lambda v: act_many(
        default_orientation(v["elem"].ring.graph), 1, ("i",), [{}]),
    "oracle_equal(1, 1)": lambda v: oracle_equal(1, 1),
    "oracle_equal(elem, 1)": lambda v: oracle_equal(v["elem"], 1),
    "KLRRing(None)": lambda v: KLRRing(None),
    "KLRRing('x')": lambda v: KLRRing("x"),
}


@pytest.mark.parametrize("case", sorted(FOREIGN_OPERANDS))
def test_foreign_operand_raises_type_error(ring_a2, case):
    """The TypeError is the operand's, not a call with the wrong number
    of arguments, which also raises one."""
    values = {"gd": GradedDim.one(), "lp": LaurentPoly.one(),
              "cv": char_projective(ring_a2, (("i", 1),)),
              "k0": K0Vector.monomial((("i", 1),)),
              "elem": ring_a2.generator(("C", 1), ("i", "j"))}
    with pytest.raises(TypeError) as info:
        FOREIGN_OPERANDS[case](values)
    assert "positional argument" not in str(info.value)


def test_k0_vector_keeps_its_weight_in_normal_form(ring_a2):
    """[P_ij] filed under the weight written j + i is [P_ij]."""
    one, ij = LaurentPoly.one(), (("i", 1), ("j", 1))
    u = K0Vector((("j", 1), ("i", 1), ("k", 0)), {ij: one})
    assert u.weight == (("i", 1), ("j", 1))
    assert equal_in_f(ring_a2, u, K0Vector.monomial(ij))


def test_k0_vector_refuses_a_key_of_another_weight():
    """[P_j] filed under weight i is refused, not counted as 0."""
    with pytest.raises(WeightMismatchError):
        K0Vector((("i", 1),), {(("j", 1),): LaurentPoly.one()})
    with pytest.raises(ValueError):
        K0Vector((("i", 1),), {(("i", 0),): LaurentPoly.one()})
    with pytest.raises(TypeError):
        K0Vector(None, {})


def test_character_vector_refuses_a_key_of_another_weight():
    """A character holds only sequences of its weight, which is over its
    graph; a shuffle product then reads the weight it holds."""
    with pytest.raises(WeightMismatchError):
        CharacterVector(a2(), (("i", 1),), {("j",): GradedDim.one()})
    with pytest.raises(TypeError):
        CharacterVector(a2(), (("i", 1),), {"i": GradedDim.one()})
    with pytest.raises(GraphError):
        CharacterVector(a2(), (("k", 1),), {})
    with pytest.raises(TypeError):
        CharacterVector(a2(), None, {})
    cv = CharacterVector(a2(), (("j", 1), ("i", 0)), {("j",): GradedDim.one()})
    assert cv.weight == (("j", 1),)
    with pytest.raises(TypeError):
        hash(cv)


def test_character_readers_refuse_an_unknown_vertex(ring_a2):
    """A label that is not a vertex is bad input, as on the pairing
    routes; a sequence of another weight over the graph's vertices is 0."""
    cv = char_projective(ring_a2, (("i", 1), ("j", 1)))
    with pytest.raises(GraphError, match="unknown vertex 'k'"):
        cv.value(("k", "z"))
    with pytest.raises(GraphError, match="unknown vertex 'k'"):
        char_at_divided(cv, (("k", 1), ("j", 1)))
    assert cv.value(("i", "i")).is_zero()
    assert char_at_divided(cv, (("j", 2),)).is_zero()


def test_characters_carry_their_graph(ring_a2, ring_a1xa1):
    """A character vector is over the graph of its ring: two over unequal
    graphs neither add nor shuffle, and are never equal, though here their
    values agree."""
    i_a2 = char_projective(ring_a2, (("i", 1),))
    i_a1xa1 = char_projective(ring_a1xa1, (("i", 1),))
    assert i_a2.graph is ring_a2.graph and i_a2.values == i_a1xa1.values
    assert i_a2 != i_a1xa1
    with pytest.raises(WeightMismatchError, match="weights differ"):
        i_a2 + i_a1xa1
    with pytest.raises(WeightMismatchError, match="other graphs"):
        shuffle_product(i_a2, i_a1xa1)
    assert i_a2 + char_projective(KLRRing(a2()), (("i", 1),)) == i_a2.scale(
        LaurentPoly.const(2))


def test_shuffle_product_divides_nothing(ring_a2, monkeypatch):
    """A shuffle multiplies two values and shifts the numerator by q^deg:
    on a2, the characters of i^(2)j and ji shuffle with no exact division,
    to the character of the concatenation."""
    f = char_projective(ring_a2, (("i", 2), ("j", 1)))
    g = char_projective(ring_a2, (("j", 1), ("i", 1)))
    divisions = []
    exact_div = LaurentPoly.exact_div
    monkeypatch.setattr(LaurentPoly, "exact_div",
                        lambda p, d: divisions.append(d) or exact_div(p, d))
    prod = shuffle_product(f, g)
    assert divisions == []
    assert sum(len(v.den) for v in prod.values.values()) == 50
    assert prod == char_projective(
        ring_a2, (("i", 2), ("j", 1), ("j", 1), ("i", 1)))


def test_character_and_k0_vector_arithmetic(ring_a2):
    ij = char_projective(ring_a2, (("i", 1), ("j", 1)))
    ji = char_projective(ring_a2, (("j", 1), ("i", 1)))
    total = ij + ji
    assert total.weight == ij.weight == (("i", 1), ("j", 1))
    for seq in (("i", "j"), ("j", "i")):
        assert total.value(seq) == ij.value(seq) + ji.value(seq)
    assert str(total) == ("ij: (1 + q) / ((1-q^2)^2)\n"
                          "ji: (1 + q) / ((1-q^2)^2)")
    assert ij + CharacterVector(ij.graph, ij.weight, {}) == ij
    q = LaurentPoly.q_power(1)
    assert str(ij.scale(q)) == ("ij: q / ((1-q^2)^2)\n"
                                "ji: q^2 / ((1-q^2)^2)")
    assert total.scale(q) == ij.scale(q) + ji.scale(q)
    zero = ij.scale(LaurentPoly.zero())
    assert zero.values == {} and str(zero) == "0"
    with pytest.raises(WeightMismatchError, match="weights differ"):
        ij + char_projective(ring_a2, (("i", 2),))

    u = (K0Vector.monomial((("i", 2), ("j", 1)))
         + K0Vector.monomial((("j", 1), ("i", 2))).scale(
             LaurentPoly({1: 1, -1: 2})))
    assert u.to_json() == {"i^(2) j": {"0": 1},
                           "j i^(2)": {"-1": 2, "1": 1}}
    assert str(u) == "(1)*[P_i^(2) j] + (2*q^-1 + q)*[P_j i^(2)]"
    assert (str(u.scale(-LaurentPoly.one()))
            == "(-1)*[P_i^(2) j] + (-2*q^-1 - q)*[P_j i^(2)]")
    assert (u - u).to_json() == {} and str(u - u) == "0"


def test_bar_sigma_k0():
    u = K0Vector.monomial((("i", 2), ("j", 1))).scale(LaurentPoly.q_power(1))
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
    assert oracle_equal(e1 * e1, e1)
    assert oracle_equal(e2 * e2, e2)
    assert oracle_equal(e1 * e2, ring_a2.zero())
    assert oracle_equal(e2 * e1, ring_a2.zero())
    assert oracle_equal(e1 + e2, one)


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
def test_form_is_sigma_invariant(ring_a2, ring_a1xa1, ring_cycle3, data):
    """(rev theta, rev theta') = (theta, theta') on both routes.  The
    coproduct route peels letters from the right, so reversing the
    monomials sends it down other recursions."""
    ring = data.draw(st.sampled_from([ring_a2, ring_a1xa1, ring_cycle3]))
    seq = data.draw(st.lists(st.sampled_from(ring.graph.vertices),
                             min_size=0, max_size=5))
    theta = _divided(data.draw, seq)
    theta2 = _divided(data.draw, data.draw(st.permutations(seq)))
    for route in (pair_monomials, pair_recursive):
        assert (route(ring, reverse(theta), reverse(theta2))
                == route(ring, theta, theta2)), (route, theta, theta2)


def _k0_vector(draw, seq):
    """A sum of 1-3 divided reorderings of seq with Laurent coefficients."""
    coeff = st.dictionaries(st.integers(-3, 3),
                            st.integers(-2, 2).filter(bool),
                            min_size=1, max_size=2).map(LaurentPoly)
    u = None
    for _ in range(draw(st.integers(1, 3))):
        theta = _divided(draw, draw(st.permutations(seq)))
        term = K0Vector.monomial(theta).scale(draw(coeff))
        u = term if u is None else u + term
    return u, coeff


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_pair_k0(ring_a2, ring_a1xa1, ring_cycle3, data):
    """pair_k0 is Z[q, 1/q]-linear in u, is pair_monomials on a single
    symbol, sums pair_recursive to the same value, and is sigma-invariant."""
    ring = data.draw(st.sampled_from([ring_a2, ring_a1xa1, ring_cycle3]))
    seq = data.draw(st.lists(st.sampled_from(ring.graph.vertices),
                             min_size=1, max_size=5))
    theta = _divided(data.draw, data.draw(st.permutations(seq)))
    u, coeff = _k0_vector(data.draw, seq)
    v, _ = _k0_vector(data.draw, seq)
    a, b = data.draw(coeff), data.draw(coeff)
    pu, pv = pair_k0(ring, u, theta), pair_k0(ring, v, theta)
    assert pair_k0(ring, u.scale(a) + v.scale(b), theta) == pu * a + pv * b
    sym = _divided(data.draw, data.draw(st.permutations(seq)))
    assert (pair_k0(ring, K0Vector.monomial(sym), theta)
            == pair_monomials(ring, sym, theta))
    recursive = GradedDim.zero()
    for key, c in u.coeffs.items():
        recursive = recursive + pair_recursive(ring, key, theta) * c
    assert pu == recursive
    assert pair_k0(ring, sigma_k0(u), reverse(theta)) == pu


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


def _peel_by_comultiply(graph, theta, plain_seq, memo):
    """Numerator of (theta, plain_seq) over (1-q^2)^len(plain_seq), peeling
    the last letter through the terms of the full coproduct r(theta)."""
    key = (theta, plain_seq)
    if key not in memo:
        if not plain_seq:
            memo[key] = LaurentPoly.zero() if theta else LaurentPoly.one()
        else:
            single = ((plain_seq[-1], 1),)
            out = LaurentPoly.zero()
            for left, right, coeff in comultiply(graph, theta):
                if right == single:
                    out = out + _peel_by_comultiply(
                        graph, left, plain_seq[:-1], memo) * coeff
            memo[key] = out
    return memo[key]


def _check_peel(ring, theta, theta2):
    plain_seq = expand(theta2)
    num = _peel_by_comultiply(ring.graph, theta, plain_seq, {})
    # (theta, expansion of theta') = theta'! (theta, theta')
    assert (pair_recursive(ring, theta, theta2) * factorial_poly(theta2)
            == GradedDim(num, (1,) * len(plain_seq))), (theta, theta2)


def test_pair_recursive_matches_comultiply_peel_examples(ring_a2):
    ring = ring_a2
    i_i2 = (("i", 1), ("i", 2))
    for theta2 in (i_i2, (("i", 3),), (("i", 2), ("i", 1)),
                   (("i", 1), ("i", 1), ("i", 1))):
        _check_peel(ring, i_i2, theta2)
    _check_peel(ring, (("i", 1), ("j", 1), ("i", 2)),
                (("i", 2), ("j", 1), ("i", 1)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pair_recursive_matches_comultiply_peel(ring_a2, ring_a1xa1,
                                                ring_cycle3, data):
    """The closed-form peel equals the filtered coproduct terms."""
    ring = data.draw(st.sampled_from([ring_a2, ring_a1xa1, ring_cycle3]))
    seq = data.draw(st.lists(st.sampled_from(ring.graph.vertices),
                             min_size=0, max_size=5))
    theta = _divided(data.draw, seq)
    theta2 = _divided(data.draw, data.draw(st.permutations(seq)))
    _check_peel(ring, theta, theta2)
    # a plain sequence of another weight pairs to zero by both
    other = _divided(data.draw, data.draw(st.lists(
        st.sampled_from(ring.graph.vertices), min_size=len(seq),
        max_size=len(seq))))
    _check_peel(ring, theta, other)
