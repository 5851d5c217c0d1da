import random

from klr import (
    act,
    act_generator,
    act_word,
    default_orientation,
    oracle_equal,
    reversed_orientation,
)
from klr.polyrep import divided_difference, monomials_up_to, poly_add, poly_const

from klr.verify import label_seqs, random_word


def test_divided_difference():
    # d(x1) = 1; d(x1 x2) = 0; d(x1^2) = x1 + x2
    assert divided_difference({(1, 0): 1}, 1) == {(0, 0): 1}
    assert divided_difference({(1, 1): 1}, 1) == {}
    assert divided_difference({(2, 0): 1}, 1) == {(1, 0): 1, (0, 1): 1}


def test_generator_cases(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    # oriented edge i -> j (lex order): crossing over (i, j) multiplies
    seq, p = act_generator(g, ori, ("C", 1), ("i", "j"), poly_const(2))
    assert seq == ("j", "i")
    assert p == {(1, 0): 1, (0, 1): 1}
    # against the orientation: plain swap
    seq, p = act_generator(g, ori, ("C", 1), ("j", "i"), {(1, 0): 1})
    assert seq == ("i", "j")
    assert p == {(0, 1): 1}
    # equal labels: divided difference
    seq, p = act_generator(g, ori, ("C", 1), ("i", "i"), {(1, 0): 1})
    assert seq == ("i", "i")
    assert p == {(0, 0): 1}


def test_double_crossing_action_both_orientations(ring_a2):
    g = ring_a2.graph
    for ori in (default_orientation(g), reversed_orientation(g)):
        seq, p = act_word(g, ori, ("i", "j"),
                          [("C", 1), ("C", 1)], poly_const(2))
        assert seq == ("i", "j")
        assert p == {(1, 0): 1, (0, 1): 1}


def test_defining_relations_numerically(ring_a1, ring_a2, ring_a1xa1):
    """Generator-composition identities on monomials of degree <= 4."""
    for ring in (ring_a1, ring_a2, ring_a1xa1):
        g = ring.graph
        ori = default_orientation(g)
        for seq in label_seqs(g, 2):
            for mono in monomials_up_to(2, 4):
                f = {mono: 1}
                s2, dd = act_word(g, ori, seq, [("C", 1), ("C", 1)], f)
                assert s2 == seq
                a, b = seq
                if a == b:
                    assert dd == {}
                elif g.cartan(a, b) == 0:
                    assert dd == f
                else:
                    want = poly_add({(mono[0] + 1, mono[1]): 1},
                                    {(mono[0], mono[1] + 1): 1})
                    assert dd == want
        for seq in label_seqs(g, 3):
            for mono in monomials_up_to(3, 3):
                f = {mono: 1}
                sL, L = act_word(g, ori, seq,
                                 [("C", 1), ("C", 2), ("C", 1)], f)
                sR, R = act_word(g, ori, seq,
                                 [("C", 2), ("C", 1), ("C", 2)], f)
                assert sL == sR
                diff = poly_add(L, R, -1)
                if seq[0] == seq[2] and g.cartan(seq[0], seq[1]) == -1:
                    assert diff == f
                else:
                    assert diff == {}


def test_action_matches_kernel(ring_a1, ring_a2, ring_a1xa1):
    rng = random.Random(21)
    for ring in (ring_a1, ring_a2, ring_a1xa1):
        g = ring.graph
        seqs = label_seqs(g, 3)
        for orient in (default_orientation(g), reversed_orientation(g)):
            for _ in range(25):
                seq = rng.choice(seqs)
                tokens = random_word(rng, 3, 5)
                elem = ring.evaluate_word(seq, tokens)
                for mono in monomials_up_to(3, 2):
                    ws, wp = act_word(g, orient, seq, tokens, {mono: 1})
                    want = {ws: wp} if wp else {}
                    assert act(orient, elem, seq, {mono: 1}) == want


def test_homomorphism_property(ring_a2):
    rng = random.Random(22)
    g = ring_a2.graph
    ori = default_orientation(g)
    seqs = label_seqs(g, 3)
    for _ in range(25):
        seq = rng.choice(seqs)
        y = ring_a2.evaluate_word(seq, random_word(rng, 3, 4))
        same_weight = [s for s in seqs if sorted(s) == sorted(seq)]
        x = ring_a2.evaluate_word(rng.choice(same_weight),
                                  random_word(rng, 3, 4))
        for mono in monomials_up_to(3, 2):
            inner = act(ori, y, seq, {mono: 1})
            composed = {}
            for s2, p2 in inner.items():
                for s3, p3 in act(ori, x, s2, p2).items():
                    composed[s3] = poly_add(composed.get(s3, {}), p3)
            composed = {s: p for s, p in composed.items() if p}
            assert composed == act(ori, x * y, seq, {mono: 1})


def test_oracle_equal(ring_a1):
    e = ring_a1.idempotent(("i", "i"))
    assert oracle_equal(e, e, 0)
    cc = ring_a1.evaluate_word(("i", "i"), [("C", 1), ("C", 1)])
    assert oracle_equal(cc, ring_a1.zero(), 3)
    x1 = ring_a1.generator(("D", 1), ("i",))
    assert not oracle_equal(x1, x1 + ring_a1.idempotent(("i",)), 3)


def test_oracle_orientation_independent(ring_a2):
    rng = random.Random(23)
    g = ring_a2.graph
    seqs = label_seqs(g, 3)
    for _ in range(15):
        seq = rng.choice(seqs)
        x = ring_a2.evaluate_word(seq, random_word(rng, 3, 4))
        y = ring_a2.evaluate_word(seq, random_word(rng, 3, 4))
        verdicts = {oracle_equal(x, y, 2, default_orientation(g)),
                    oracle_equal(x, y, 2, reversed_orientation(g))}
        assert len(verdicts) == 1
