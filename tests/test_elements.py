import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from klr import (
    GeneratorIndexError,
    GradedDim,
    GraphError,
    InhomogeneousError,
    KLRRing,
    LaurentPoly,
    WeightMismatchError,
    diagram_degree,
    single_vertex,
)
from klr.permutations import (
    all_permutations,
    apply_perm_to_seq,
    apply_word_to_seq,
    canonical_word,
    inverse,
    longest_element,
)

from klr.verify import label_seqs, random_word


def test_idempotents(ring_a2):
    e = ring_a2.idempotent(("i", "j"))
    assert e * e == e
    f = ring_a2.idempotent(("j", "i"))
    assert (e * f).is_zero()


def test_generator_degrees(ring_a1, ring_a2):
    assert ring_a1.generator(("D", 1), ("i",)).degree() == 2
    assert ring_a1.generator(("C", 1), ("i", "i")).degree() == -2
    assert ring_a2.generator(("C", 1), ("i", "j")).degree() == 1
    mixed = (ring_a2.idempotent(("i", "j"))
             + ring_a2.generator(("D", 1), ("i", "j")))
    with pytest.raises(InhomogeneousError):
        mixed.degree()
    with pytest.raises(InhomogeneousError):
        ring_a2.zero().degree()


def test_generator_range_errors(ring_a2):
    with pytest.raises(IndexError):
        ring_a2.generator(("D", 3), ("i", "j"))
    with pytest.raises(IndexError):
        ring_a2.generator(("C", 2), ("i", "j"))
    with pytest.raises(GeneratorIndexError):
        ring_a2.evaluate_word(("i", "j"), [("C", 5)])
    with pytest.raises(GeneratorIndexError):
        ring_a2.evaluate_word(("i", "j"), [("C", 1), ("C", 5)])
    with pytest.raises(ValueError):
        ring_a2.evaluate_word(("i", "j"), [("D", 0)])
    for make in (lambda: ring_a2.evaluate_word(("i", "k"), []),
                 lambda: ring_a2.generator(("C", 1), ("k", "i")),
                 lambda: ring_a2.idempotent(("k",))):
        with pytest.raises(GraphError):
            make()


def test_element_from_json_rejects_bad_vectors(ring_a2):
    good = {"source": ["i", "j"], "permutation": [2, 1], "dots": [0, 1],
            "coeff": 1}
    assert ring_a2.element_from_json([good]) == ring_a2.element(
        {(("i", "j"), (1, 0), (0, 1)): 1})
    for bad in ({"permutation": [1]}, {"permutation": [1, 2, 3]},
                {"dots": [0, 0, 0]}, {"dots": [0]}, {"permutation": [1, 1]},
                {"permutation": [0, 1]}, {"dots": [0, -1]},
                {"permutation": ["a", "b"]}, {"dots": [0.5, 0]},
                {"dots": "01"}, {"coeff": 1.5}, {"coeff": None},
                {"source": ["i", "k"]}):
        with pytest.raises(ValueError):
            ring_a2.element_from_json([{**good, **bad}])
    for data in (good, "ij", [good, 1]):
        with pytest.raises(ValueError):
            ring_a2.element_from_json(data)
    ii = {"source": ["i", "i"], "permutation": [1, 2], "dots": [0, 0],
          "coeff": "1"}
    with pytest.raises(WeightMismatchError):
        ring_a2.element_from_json([good, ii])


def test_weight_mismatch(ring_a1):
    x = ring_a1.idempotent(("i",))
    y = ring_a1.idempotent(("i", "i"))
    with pytest.raises(WeightMismatchError):
        x * y
    with pytest.raises(WeightMismatchError):
        x + y
    with pytest.raises(WeightMismatchError):
        y - x
    assert x + ring_a1.zero() == x


def test_double_crossings(ring_a1, ring_a2, ring_a1xa1):
    ii = ("i", "i")
    assert ring_a1.evaluate_word(ii, [("C", 1), ("C", 1)]).is_zero()
    ij = ("i", "j")
    assert (ring_a1xa1.evaluate_word(ij, [("C", 1), ("C", 1)])
            == ring_a1xa1.idempotent(ij))
    want = (ring_a2.generator(("D", 1), ij)
            + ring_a2.generator(("D", 2), ij))
    assert ring_a2.evaluate_word(ij, [("C", 1), ("C", 1)]) == want


def test_nilhecke_dot_slides(ring_a1):
    ii = ("i", "i")
    e = ring_a1.idempotent(ii)
    c = ring_a1.generator(("C", 1), ii)
    x1 = ring_a1.generator(("D", 1), ii)
    x2 = ring_a1.generator(("D", 2), ii)
    assert x1 * c - c * x2 == e
    assert c * x1 - x2 * c == e
    # crossing over a bottom dot is already a basis element ...
    got = ring_a1.evaluate_word(ii, [("D", 1), ("C", 1)])
    assert got.terms == {(ii, (1, 0), (1, 0)): 1}
    # ... while a dot on top of a crossing rewrites with a correction term
    got = ring_a1.evaluate_word(ii, [("C", 1), ("D", 1)])
    assert got.terms == {(ii, (1, 0), (0, 1)): 1, (ii, (0, 1), (0, 0)): 1}


def test_braid_relations(ring_a1, ring_a2, ring_a1xa1):
    for ring in (ring_a1, ring_a2, ring_a1xa1):
        for seq in label_seqs(ring.graph, 3):
            L = ring.evaluate_word(seq, [("C", 1), ("C", 2), ("C", 1)])
            R = ring.evaluate_word(seq, [("C", 2), ("C", 1), ("C", 2)])
            if seq[0] == seq[2] and ring.graph.cartan(seq[0], seq[1]) == -1:
                assert L - R == ring.idempotent(seq)
            else:
                assert L == R


def test_associativity_random(ring_a1, ring_a2, ring_a1xa1):
    rng = random.Random(11)
    for ring in (ring_a1, ring_a2, ring_a1xa1):
        seqs = label_seqs(ring.graph, 3)
        for _ in range(40):
            seq = rng.choice(seqs)
            a, b, c = (ring.evaluate_word(seq, random_word(rng, 3, 4))
                       for _ in range(3))
            assert (a * b) * c == a * (b * c)


def test_degree_additivity(ring_a2):
    rng = random.Random(12)
    seqs = label_seqs(ring_a2.graph, 3)
    checked = 0
    for _ in range(60):
        seq = rng.choice(seqs)
        a = ring_a2.evaluate_word(seq, random_word(rng, 3, 4))
        b = ring_a2.evaluate_word(seq, random_word(rng, 3, 4))
        ab = a * b
        if a and b and ab:
            assert ab.degree() == a.degree() + b.degree()
            checked += 1
    assert checked > 10


def _dot_reference(ring, k, i, w):
    """Reference for a dot over a basis diagram, the former top-down scan:
    a dot at top position k moves down the canonical word of w, and at each
    equal-label crossing it passes it adds +/- the word with that crossing
    deleted."""
    word = canonical_word(w)
    r = len(word)
    # sequence at the level just below each crossing, top-to-bottom
    below_seq = [None] * r
    cur = i
    for t in range(r - 1, -1, -1):
        below_seq[t] = cur
        c = word[t]
        lst = list(cur)
        lst[c - 1], lst[c] = lst[c], lst[c - 1]
        cur = tuple(lst)
    out = ring.zero()
    p = k
    for t in range(r):
        c = word[t]
        if p != c and p != c + 1:
            continue
        if below_seq[t][c - 1] != below_seq[t][c]:
            p = c + 1 if p == c else c
        else:
            deleted = word[:t] + word[t + 1:]
            tokens = [("C", letter) for letter in reversed(deleted)]
            sign = 1 if p == c else -1
            out = out + sign * ring.evaluate_word(i, tokens)
            p = c + 1 if p == c else c
    u = tuple(1 if a == p - 1 else 0 for a in range(len(i)))
    return out + ring.element({(i, w, u): 1})


def _multiply_inside_out(ring, x, y):
    """Reference product, the former KLRRing.multiply: push the dots of x
    into y one at a time, then stack the crossings of x on top, each as a
    crossing generator over the current top sequence."""
    out = {}
    for (ix, px, ux), cx in x.terms.items():
        word_x = tuple(reversed(canonical_word(px)))
        for (iy, py, uy), cy in y.terms.items():
            if apply_perm_to_seq(py, iy) != ix:
                continue
            acc = ring.element({(iy, py, uy): cx * cy})
            for pos, mult in enumerate(ux):
                for _ in range(mult):
                    pushed = ring.zero()
                    for (i, w, u), c in acc.terms.items():
                        dot = _dot_reference(ring, pos + 1, i, w)
                        pushed = pushed + c * ring.element(
                            {(j, v, tuple(map(add, e, u))): a
                             for (j, v, e), a in dot.terms.items()})
                    acc = pushed
            top = ix
            for letter in word_x:
                acc = ring.generator(("C", letter), top) * acc
                top = apply_word_to_seq((letter,), top)
            for key, c in acc.terms.items():
                out[key] = out.get(key, 0) + c
    return ring.element(out)


def _draw_element(data, ring, base, tops=(), max_dot=3):
    """1-3 basis keys over permutations of base, with dots 0..max_dot and
    small coefficients.  Each key's top sequence is drawn from tops when
    tops is non-empty, so products with an element over those bottoms
    meet."""
    m = len(base)
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        w = tuple(data.draw(st.permutations(range(m))))
        if tops:
            i = apply_perm_to_seq(inverse(w), data.draw(st.sampled_from(tops)))
        else:
            i = tuple(data.draw(st.permutations(base)))
        u = tuple(data.draw(st.lists(st.integers(0, max_dot),
                                     min_size=m, max_size=m)))
        terms[(i, w, u)] = data.draw(st.sampled_from([-2, -1, 1, 3]))
    return ring.element(terms)


def _draw_pair(data, rings, strands):
    """A ring and two elements x, y of it whose product usually meets."""
    ring = data.draw(st.sampled_from(rings))
    base = tuple(data.draw(st.lists(st.sampled_from(ring.graph.vertices),
                                    min_size=strands[0],
                                    max_size=strands[1])))
    x = _draw_element(data, ring, base)
    y = _draw_element(data, ring, base,
                      tops=sorted({i for i, _, _ in x.terms}))
    return ring, x, y


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_multiply_matches_inside_out(ring_a1, ring_a2, ring_cycle3, data):
    ring, x, y = _draw_pair(data, [ring_a1, ring_a2, ring_cycle3], (3, 5))
    assert ring.multiply(x, y) == _multiply_inside_out(ring, x, y)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_dot_matches_top_down_scan(ring_a1, ring_a2, ring_cycle3, data):
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_cycle3]))
    i = tuple(data.draw(st.lists(st.sampled_from(ring.graph.vertices),
                                 min_size=1, max_size=5)))
    w = tuple(data.draw(st.permutations(range(len(i)))))
    k = data.draw(st.integers(1, len(i)))
    dot = ring.generator(("D", k), apply_perm_to_seq(w, i))
    basis = ring.element({(i, w, (0,) * len(i)): 1})
    assert dot * basis == _dot_reference(ring, k, i, w)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_psi_sigma(ring_a1, ring_a2, ring_cycle3, data):
    ring, a, b = _draw_pair(data, [ring_a1, ring_a2, ring_cycle3], (2, 4))
    assert ring.psi(ring.psi(a)) == a
    assert ring.sigma(ring.sigma(a)) == a
    assert ring.psi(a * b) == ring.psi(b) * ring.psi(a)
    assert ring.sigma(a * b) == ring.sigma(a) * ring.sigma(b)
    assert ring.sigma(ring.psi(a)) == ring.psi(ring.sigma(a))
    assert ring.element_from_json(a.to_json()) == a


def test_psi_sigma_on_generators(ring_a1, ring_a2):
    ij = ("i", "j")
    d = ring_a2.generator(("C", 1), ij)
    assert ring_a2.psi(d) == ring_a2.generator(("C", 1), ("j", "i"))
    x = ring_a2.generator(("D", 1), ij)
    assert ring_a2.psi(x) == x
    assert ring_a2.sigma(ring_a2.idempotent(ij)) == ring_a2.idempotent(("j", "i"))
    cii = ring_a1.generator(("C", 1), ("i", "i"))
    assert ring_a1.sigma(cii) == -cii
    assert ring_a2.sigma(d) == ring_a2.generator(("C", 1), ("j", "i"))


def test_juxtapose(ring_a2):
    e1 = ring_a2.idempotent(("i",))
    e2 = ring_a2.idempotent(("j",))
    assert ring_a2.juxtapose(e1, e2) == ring_a2.idempotent(("i", "j"))
    x = ring_a2.generator(("D", 1), ("i",))
    assert ring_a2.juxtapose(x, e2) == ring_a2.generator(("D", 1), ("i", "j"))
    # multiplicativity
    rng = random.Random(14)
    for _ in range(20):
        a1 = ring_a2.evaluate_word(("i", "j"), random_word(rng, 2, 3))
        a2_ = ring_a2.evaluate_word(("i", "j"), random_word(rng, 2, 3))
        b1 = ring_a2.evaluate_word(("j",), random_word(rng, 1, 2))
        b2 = ring_a2.evaluate_word(("j",), random_word(rng, 1, 2))
        lhs = ring_a2.juxtapose(a1 * a2_, b1 * b2)
        rhs = ring_a2.juxtapose(a1, b1) * ring_a2.juxtapose(a2_, b2)
        assert lhs == rhs


def test_gdim_hom_values(ring_a1, ring_a1xa1):
    assert ring_a1.gdim_hom((), ()) == GradedDim(LaurentPoly.one())
    assert ring_a1.gdim_hom(("i",), ("i",)) == GradedDim(LaurentPoly.one(), (1,))
    assert (ring_a1.gdim_hom(("i", "i"), ("i", "i"))
            == GradedDim(LaurentPoly({-2: 1, 0: 1}), (1, 1)))
    assert (ring_a1xa1.gdim_hom(("j", "i"), ("i", "j"))
            == GradedDim(LaurentPoly.one(), (1, 1)))


def _gdim_hom_scan(ring, seq_j, seq_i):
    """Reference numerator: scan all m! permutations w with w . i = j."""
    num = LaurentPoly.zero()
    for w in all_permutations(len(seq_i)):
        if apply_perm_to_seq(w, seq_i) == seq_j:
            num = num + LaurentPoly.q_power(
                diagram_degree(ring.graph, seq_i, w))
    return num


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gdim_hom_matches_permutation_scan(ring_a1, ring_a2, ring_a1xa1,
                                           ring_cycle3, data):
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_a1xa1,
                                      ring_cycle3]))
    seq_i = tuple(data.draw(st.lists(st.sampled_from(ring.graph.vertices),
                                     max_size=7)))
    seq_j = tuple(data.draw(st.permutations(seq_i)))
    gd = ring.gdim_hom(seq_j, seq_i)
    assert gd.den == (1,) * len(seq_i)
    assert gd.num == _gdim_hom_scan(ring, seq_j, seq_i)


def test_gdim_hom_weight_mismatch(ring_a2):
    with pytest.raises(WeightMismatchError):
        ring_a2.gdim_hom(("i", "j"), ("i", "i"))
    with pytest.raises(WeightMismatchError):
        ring_a2.gdim_hom(("i",), ("i", "i"))


def test_nilhecke_em(ring_a1):
    assert ring_a1.nilhecke_em(1, "i") == ring_a1.idempotent(("i",))
    e2 = ring_a1.nilhecke_em(2, "i")
    assert e2.terms == {(("i", "i"), (1, 0), (1, 0)): 1}
    for m in range(2, 9):
        em = ring_a1.nilhecke_em(m, "i")
        assert em * em == em
        assert em.degree() == 0


def test_stats_count_right_crossing_terms():
    ring = KLRRing(single_vertex())
    assert ring.stats() == {
        "caches": {"cross": 0, "word": 0, "bring": 0, "pair": 0},
        "terms_read": 0}
    dots = []
    dot = ring._dot
    ring._dot = lambda *args: dots.append(args) or dot(*args)
    e8 = ring.nilhecke_em(8, "i")
    assert e8 * e8 == e8
    stats = ring.stats()
    # one term per letter of the longest word: psi_{w0} psi_c = 0, and only
    # the divided difference of the staircase survives each step
    assert stats["terms_read"] <= 28
    assert stats["caches"]["cross"] > 0
    assert dots == []


def test_divided_idempotent(ring_a2):
    e = ring_a2.juxtapose(ring_a2.nilhecke_em(2, "i"),
                          ring_a2.nilhecke_em(1, "j"))
    assert e * e == e
    assert e.degree() == 0
    assert (ring_a2.juxtapose(ring_a2.nilhecke_em(1, "i"),
                              ring_a2.nilhecke_em(1, "j"))
            == ring_a2.idempotent(("i", "j")))


def test_diagram_degree(ring_a1, ring_a2):
    assert diagram_degree(ring_a1.graph, ("i", "i"), (1, 0)) == -2
    w0 = longest_element(3)
    assert diagram_degree(ring_a2.graph, ("i", "j", "i"), w0) == 0


def test_diagram_degree_word_independence(ring_a2):
    # degree as a sum over any reduced word's crossings
    rng = random.Random(15)
    from klr.permutations import apply_word_to_seq
    for w in all_permutations(4):
        seq = tuple(rng.choice("ij") for _ in range(4))
        word = canonical_word(w)
        total = 0
        cur = seq
        for letter in reversed(word):
            total -= ring_a2.graph.cartan(cur[letter - 1], cur[letter])
            cur = apply_word_to_seq((letter,), cur)
        assert total == diagram_degree(ring_a2.graph, seq, w)


def test_serialization_round_trip(ring_a2):
    rng = random.Random(16)
    for _ in range(20):
        seq = rng.choice(label_seqs(ring_a2.graph, 3))
        x = ring_a2.evaluate_word(seq, random_word(rng, 3, 5))
        assert ring_a2.element_from_json(x.to_json()) == x


def test_str_format(ring_a2):
    x = ring_a2.evaluate_word(("i", "j"), [("C", 1)])
    assert str(x) == "s1[ij]"
    z = ring_a2.zero()
    assert str(z) == "0"
    y = ring_a2.generator(("D", 1), ("i", "j")) * 2
    assert str(y) == "2*x1[ij]"
