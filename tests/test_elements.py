import itertools
import math
import random
from operator import add

import pytest
from hypothesis import given, settings, strategies as st

from klr import (
    CartanGraph,
    GeneratorIndexError,
    GradedDim,
    GraphError,
    InhomogeneousError,
    KLRRing,
    LaurentPoly,
    WeightMismatchError,
    a1xa1,
    a2,
    cycle,
    diagram_degree,
    expand,
    factorial_poly,
    oracle_equal,
    pair_recursive,
    qfact,
    seq_enumerate,
    single_vertex,
    weight_from_dict,
    weight_of_seq,
)
from klr.permutations import (
    all_permutations,
    apply_perm_to_seq,
    apply_word_to_seq,
    canonical_word,
    inverse,
    inversions,
    longest_element,
    word_to_perm,
)
from klr.polyrep import act_many, act_word, artin_basis, default_orientation

from klr.verify import label_seqs

from conftest import random_word


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
    with pytest.raises(ValueError, match="^unknown token type 'X'$"):
        ring_a2.evaluate_word(("i", "j"), [("D", 1), ("X", 1)])
    with pytest.raises(ValueError, match="^unknown token type 'X'$"):
        ring_a2.generator(("X", 1), ("i", "j"))
    for make in (lambda: ring_a2.evaluate_word(("i", "k"), []),
                 lambda: ring_a2.generator(("C", 1), ("k", "i")),
                 lambda: ring_a2.idempotent(("k",))):
        with pytest.raises(GraphError):
            make()


def _basis_key(term):
    """The 0-based basis key of a JSON term: its lists read as tuples and
    its int permutation entries lowered by one, everything else as is."""
    seq, perm, dots = (tuple(v) if isinstance(v, list) else v
                       for v in (term["source"], term["permutation"],
                                 term["dots"]))
    if isinstance(perm, tuple):
        perm = tuple(x - 1 if type(x) is int else x for x in perm)
    return seq, perm, dots


def test_element_from_json_rejects_bad_vectors(ring_a2):
    """Every bad term is rejected by element_from_json and, as a 0-based
    basis key, by ring.element, the one check of basis keys."""
    good = {"source": ["i", "j"], "permutation": [2, 1], "dots": [0, 1],
            "coeff": 1}
    ii = {"source": ["i", "i"], "permutation": [1, 2], "dots": [0, 0],
          "coeff": 1}
    assert ring_a2.element_from_json([good]) == ring_a2.element(
        {(("i", "j"), (1, 0), (0, 1)): 1})
    assert ring_a2.element({}) == ring_a2.zero()
    assert ring_a2.element({((), (), ()): 1}) == ring_a2.idempotent(())
    bad_terms = [[{**good, **bad}] for bad in (
        {"permutation": [1]}, {"permutation": [1, 2, 3]},
        {"dots": [0, 0, 0]}, {"dots": [0]}, {"permutation": [1, 1]},
        {"permutation": [0, 1]}, {"dots": [0, -1]},
        {"permutation": ["a", "b"]}, {"dots": [0.5, 0]},
        {"dots": "01"}, {"coeff": 1.5}, {"coeff": None},
        {"source": ["i", "k"]}, {"source": "ij"}, {"coeff": True},
        {"coeff": 0.5})] + [[good, ii]]
    for terms in bad_terms:
        with pytest.raises(ValueError):
            ring_a2.element_from_json(terms)
        with pytest.raises(ValueError):
            ring_a2.element({_basis_key(t): t["coeff"] for t in terms})
    # a list inside the source or the dots cannot be part of a dict key,
    # so it only reaches the JSON reader
    for bad in ({"source": [["i"], "j"]}, {"dots": [[0], 1]}):
        with pytest.raises(ValueError):
            ring_a2.element_from_json([{**good, **bad}])
    for data in (good, "ij", [good, 1]):
        with pytest.raises(ValueError):
            ring_a2.element_from_json(data)
    # a missing key is a ValueError that names the key
    with pytest.raises(ValueError, match="missing key 'source'"):
        ring_a2.element_from_json([{}])
    for key in good:
        rest = {k: v for k, v in good.items() if k != key}
        with pytest.raises(ValueError, match=f"missing key '{key}'"):
            ring_a2.element_from_json([rest])
    with pytest.raises(WeightMismatchError):
        ring_a2.element_from_json([good, ii])
    with pytest.raises(WeightMismatchError):
        ring_a2.element({_basis_key(t): 1 for t in (good, ii)})


def test_element_drops_zeros_and_keeps_no_outside_dict(ring_a2):
    """ring.element and element_from_json drop a zero coefficient, a zero
    scalar gives the zero element, and the element does not share the
    dict it was given."""
    key = (("i", "j"), (1, 0), (0, 1))
    zero_key = (("i", "j"), (1, 0), (0, 0))
    terms = {key: 2, zero_key: 0}
    x = ring_a2.element(terms)
    assert x.terms == {key: 2}
    terms[key] = 5
    terms[zero_key] = 3
    assert x.terms == {key: 2}
    assert ring_a2.element_from_json([
        {"source": ["i", "j"], "permutation": [2, 1], "dots": [0, 0],
         "coeff": "0"}]).terms == {}
    for zero in (0 * x, x * 0):
        assert zero.terms == {} and zero == 0 and zero == ring_a2.zero()
        assert zero.weight is None


def test_bool_is_not_an_int_operand_of_eq(ring_a2):
    """== takes no bool, as + - * take none: False is not the int 0."""
    e = ring_a2.idempotent(("i", "j"))
    assert not ring_a2.zero() == False  # noqa: E712
    assert ring_a2.zero() != False  # noqa: E712
    assert not e == True  # noqa: E712
    assert ring_a2.zero() == 0 and not e == 0 and not e == 1


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


def test_elements_of_one_ring_only(ring_a2, ring_a1xa1):
    """Elements of rings over graphs with other vertices or edges never
    mix, whichever ring comes first; a ring over an equal graph, even one
    listing its vertices in another order, is the same ring."""
    for rx, ry in ((ring_a2, ring_a1xa1), (ring_a1xa1, ring_a2)):
        x = rx.generator(("C", 1), ("j", "i"))
        y = ry.generator(("C", 1), ("i", "j"))
        z = ry.generator(("C", 1), ("j", "i"))
        # psi_w e(iiji) for w = (0, 3, 2, 1): a1xa1 flips it to a single
        # key, a2 to two, so a flip in the wrong ring answers wrong
        w = ry.element({(("i", "i", "j", "i"), (0, 3, 2, 1), (0,) * 4): 1})
        for op in (lambda: x * y, lambda: y * x, lambda: x + z,
                   lambda: z + x, lambda: x - z, lambda: rx.zero() + z,
                   lambda: rx.multiply(y, y), lambda: rx.multiply(x, y),
                   lambda: ry.multiply(x, y), lambda: oracle_equal(x, z),
                   lambda: oracle_equal(z, x), lambda: rx.sigma(w),
                   lambda: rx.psi(w), lambda: rx.sigma(y), lambda: rx.psi(y),
                   lambda: rx.juxtapose(x, y), lambda: rx.juxtapose(y, x),
                   lambda: ry.juxtapose(x, y)):
            with pytest.raises(WeightMismatchError, match="other graphs"):
                op()
        # equal terms in rings over other graphs are different elements
        assert rx.generator(("C", 1), ("i", "j")) != y
        assert x != z and rx.zero() != ry.zero()
    for graph in (a2(), CartanGraph(["j", "i"], [("j", "i")])):
        ring = KLRRing(graph)
        x = ring.generator(("C", 1), ("j", "i"))
        y = ring_a2.generator(("C", 1), ("i", "j"))
        assert (x * y).terms == (ring_a2.generator(("C", 1), ("j", "i"))
                                 * y).terms
        assert ring_a2.multiply(x, y).terms == ring.multiply(x, y).terms
        assert str(x * y) == "x1[ij] + x2[ij]"
        assert oracle_equal(x + x,
                            2 * ring_a2.generator(("C", 1), ("j", "i")))
        assert x == ring_a2.generator(("C", 1), ("j", "i"))
        for op in ("psi", "sigma"):
            assert (getattr(ring_a2, op)(x).terms
                    == getattr(ring, op)(x).terms)
        assert ring_a2.juxtapose(x, y) == ring.juxtapose(x, y)


def test_unhashable_label_is_not_a_vertex(ring_a2):
    """A label that cannot be hashed is an unknown vertex like any other:
    every check that reads the graph's vertex set raises GraphError."""

    class Pairs:
        """The items of a mapping, which may hold an unhashable key."""

        def __init__(self, items):
            self._items = items

        def items(self):
            return self._items

    graph = ring_a2.graph
    for op, label in (
            (lambda: graph.require_vertices([["i"]]), ["i"]),
            (lambda: graph.require_vertices(("i", ["j"])), ["j"]),
            (lambda: graph.cartan(["i"], "j"), ["i"]),
            (lambda: graph.cartan("i", {"j"}), {"j"}),
            (lambda: ring_a2.element(Pairs([(((["i"],), (0,), (0,)), 1)])),
             ["i"]),
            (lambda: ring_a2.evaluate_word([["i"]], []), ["i"]),
            (lambda: ring_a2.nilhecke_em(1, ["i"]), ["i"])):
        with pytest.raises(GraphError) as err:
            op()
        assert str(err.value) == f"unknown vertex {label!r}"


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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_fresh_ring_matches_warm_ring(ring_a1, ring_a2, ring_cycle3, data):
    """The kernel's cross cache is transparent: multiply, psi and sigma
    give the same terms on a fresh ring as on one that has already
    rewritten other products of the same weight."""
    warm, x, y = _draw_pair(data, [ring_a1, ring_a2, ring_cycle3], (2, 6))
    base = next(iter(x.terms))[0]
    z = _draw_element(data, warm, base)
    for a, b in ((z, x), (y, z), (warm.psi(y), warm.sigma(z))):
        warm.multiply(a, b)
    ops = (lambda r: r.multiply(r.element(x.terms), r.element(y.terms)),
           lambda r: r.psi(r.element(x.terms)),
           lambda r: r.sigma(r.element(y.terms)))
    for op in ops:
        assert op(KLRRing(warm.graph)).terms == op(warm).terms


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


def test_sigma_is_the_mirrored_canonical_word(ring_a2, ring_cycle3):
    """sigma(psi_w e(i)) is (-1)^(equal-label inversions of w) times the
    mirrored canonical word of w (letter l becomes m - l) over reversed(i),
    for every dot-free basis key on 2 to 4 strands.  ``evaluate_word``
    builds the word one right step per letter, and the polynomial action
    of the word, generator by generator, is a third statement of it."""
    rewritten = 0
    for ring in (ring_a2, ring_cycle3):
        graph = ring.graph
        orient = default_orientation(graph)
        for m in (2, 3, 4):
            for i in label_seqs(graph, m):
                i2 = i[::-1]
                basis = artin_basis(i2)
                for w in all_permutations(m):
                    word = tuple(m - l for l in canonical_word(w))
                    rewritten += word != canonical_word(word_to_perm(word, m))
                    sign = (-1) ** sum(i[a] == i[b] for a, b in inversions(w))
                    tokens = [("C", l) for l in reversed(word)]
                    got = ring.sigma(ring.element({(i, w, (0,) * m): 1}))
                    want = ring.evaluate_word(i2, tokens)
                    assert got == sign * want
                    assert oracle_equal(got, sign * want)
                    acts = act_many(orient, got, i2,
                                    [{mono: 1} for mono in basis])
                    for mono, act in zip(basis, acts):
                        top, p = act_word(graph, orient, i2, tokens,
                                          {mono: sign})
                        assert act == ({top: p} if p else {})
    # the mirrored words that are not canonical go through canonicalization
    assert rewritten > 0


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


def _run_blocks(vertices):
    """Sequences of at most 7 strands built from (vertex, run length) blocks;
    adjacent blocks may share a vertex and so merge into one longer run."""
    blocks = st.lists(st.tuples(st.sampled_from(vertices), st.integers(1, 4)),
                      max_size=7)
    return blocks.map(lambda bs: tuple(v for v, n in bs for _ in range(n))[:7])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_gdim_hom_matches_permutation_scan(ring_a1, ring_a2, ring_a1xa1,
                                           ring_cycle3, data):
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_a1xa1,
                                      ring_cycle3]))
    vertices = ring.graph.vertices
    seq_i = data.draw(st.one_of(
        st.lists(st.sampled_from(vertices), max_size=7).map(tuple),
        _run_blocks(vertices)))
    seq_j = tuple(data.draw(st.permutations(seq_i)))
    gd = ring.gdim_hom(seq_j, seq_i)
    assert gd.den == (1,) * len(seq_i)
    assert gd.num == _gdim_hom_scan(ring, seq_j, seq_i)


def test_gdim_hom_non_adjacent_equal_labels(ring_a2, ring_a1xa1, ring_cycle3):
    """Equal labels that are not adjacent are not one run: the stabilizer of
    i is then not a parabolic subgroup, and grouping them is wrong."""
    cases = [(ring_a2, "jij"), (ring_a2, "ijji"), (ring_a2, "iji"),
             (ring_a2, "ijjii"), (ring_a1xa1, "ijij"), (ring_cycle3, "1231")]
    for ring, word in cases:
        seq_i = tuple(word)
        for seq_j in set(itertools.permutations(seq_i)):
            assert (ring.gdim_hom(seq_j, seq_i).num
                    == _gdim_hom_scan(ring, seq_j, seq_i)), (word, seq_j)


def _divided_runs(vertices):
    """Divided sequences of at most 6 strands, drawn run by run: each run is
    one vertex split into blocks i^(n_1) ... i^(n_k), and adjacent runs may
    share a vertex and so merge."""
    runs = st.lists(st.tuples(st.sampled_from(vertices),
                              st.lists(st.integers(1, 3), min_size=1,
                                       max_size=3)), max_size=4)

    def trim(rs):
        out, left = [], 6
        for v, ns in rs:
            for n in ns:
                if left:
                    out.append((v, min(n, left)))
                    left -= out[-1][1]
        return tuple(out)

    return runs.map(trim)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_gdim_hom_divided_source(ring_a2, ring_a1xa1, ring_cycle3, data):
    """The DP divides by theta! in closed form, one quantum multinomial per
    run, and equals gdim_hom(j, expand theta) / theta! exactly.  The (j, i)
    and (i, j) sectors have the same graded dimension (the upside-down flip
    preserves degree), which pair_monomials relies on."""
    ring = data.draw(st.sampled_from([ring_a2, ring_a1xa1, ring_cycle3]))
    theta = data.draw(_divided_runs(ring.graph.vertices))
    seq_i = expand(theta)
    seq_j = tuple(data.draw(st.permutations(seq_i)))
    gd = ring.gdim_hom_divided(seq_j, theta)
    plain_gd = ring.gdim_hom(seq_j, seq_i)
    want = plain_gd.divide_poly(factorial_poly(theta))
    assert (gd.num, gd.den) == (want.num, want.den)
    back = ring.gdim_hom(seq_i, seq_j)
    assert (back.num, back.den) == (plain_gd.num, plain_gd.den)


# gdim_hom_divided at the per-target DP that preceded the walk over target
# prefixes: adjacent blocks on one vertex (split runs), non-adjacent equal
# labels, and a graph with no edge
DIVIDED_SECTORS = [
    (single_vertex(), "iii", (("i", 2), ("i", 1)),
     "(q^-5 + q^-3 + q^-1) / ((1-q^2)^3)"),
    (a2(), "jiij", (("i", 2), ("j", 2)), "1 / ((1-q^2)^4)"),
    (a2(), "ijij", (("i", 1), ("j", 1), ("i", 1), ("j", 1)),
     "(q^-2 + 3) / ((1-q^2)^4)"),
    (a2(), "iijji", (("i", 2), ("j", 2), ("i", 1)),
     "(2*q^-2 + 1) / ((1-q^2)^5)"),
    (a2(), "ijiji", (("i", 1), ("i", 1), ("j", 2), ("i", 1)),
     "(3*q^-2 + 3) / ((1-q^2)^5)"),
    (a2(), "iiiijj", (("i", 2), ("i", 2), ("j", 1), ("j", 1)),
     "(q^-12 + 2*q^-10 + 3*q^-8 + 3*q^-6 + 2*q^-4 + q^-2) / ((1-q^2)^6)"),
    (a1xa1(), "jiji", (("i", 2), ("j", 2)), "q^-2 / ((1-q^2)^4)"),
    (cycle(3), "3121", (("1", 2), ("2", 1), ("3", 1)), "q^3 / ((1-q^2)^4)"),
    (cycle(3), "123312", (("3", 1), ("1", 1), ("2", 2), ("3", 1), ("1", 1)),
     "(q + 2*q^3 + q^5) / ((1-q^2)^6)"),
]


def test_gdim_hom_divided_keeps_its_values():
    """Divided sources give the recorded sectors, and each equals the m!
    scan of its plain source times the multinomials of its split runs."""
    for graph, word, theta, want in DIVIDED_SECTORS:
        ring = KLRRing(graph)
        seq_j, seq_i = tuple(word), expand(theta)
        gd = ring.gdim_hom_divided(seq_j, theta)
        assert str(gd) == want, (word, theta)
        scan = GradedDim(_gdim_hom_scan(ring, seq_j, seq_i), (1,) * len(word))
        assert gd == scan.divide_poly(factorial_poly(theta)), (word, theta)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_gdim_hom_column_equals_each_sector(data):
    """One walk over the target prefixes gives, on a fresh ring, what
    gdim_hom gives target by target on another, one DP per target."""
    graph = data.draw(st.sampled_from([single_vertex(), a2(), a1xa1(),
                                       cycle(3)]))
    vertices = graph.vertices
    seq_i = data.draw(st.one_of(
        st.lists(st.sampled_from(vertices), max_size=7).map(tuple),
        _run_blocks(vertices)))
    column = KLRRing(graph).gdim_hom_column(seq_i)
    ring = KLRRing(graph)
    assert list(column) == seq_enumerate(weight_of_seq(seq_i))
    for seq_j, gd in column.items():
        want = ring.gdim_hom(seq_j, seq_i)
        assert str(gd) == str(want), (seq_j, seq_i)
        assert (gd.num, gd.den) == (want.num, want.den)


def test_gdim_hom_column_counts_each_target_once():
    """A column reads each target once: a target already in the hom cache
    is a hit, and every other one is a new entry."""
    ring = KLRRing(a2())
    ring.gdim_hom(("j", "i", "i"), ("i", "j", "i"))
    column = ring.gdim_hom_column(("i", "j", "i"))
    assert list(column) == [("i", "i", "j"), ("i", "j", "i"), ("j", "i", "i")]
    stats = ring.stats()
    assert (stats["caches"]["hom"], stats["hits"]["hom"]) == (3, 1)
    ring.gdim_hom_column(("i", "j", "i"))
    stats = ring.stats()
    assert (stats["caches"]["hom"], stats["hits"]["hom"]) == (3, 4)
    # a split run multiplies in its [r]!, hit or miss, as gdim_hom does
    for _ in range(2):
        for seq_j, gd in ring.gdim_hom_column(("i", "i", "j")).items():
            assert gd == ring.gdim_hom(seq_j, ("i", "i", "j"))
    assert ring.gdim_hom_column(()) == {(): GradedDim(LaurentPoly.one())}


def test_hom_route_checks_the_source_vertices(ring_a2):
    """A source of one run makes the DP ask the graph nothing, so the
    labels are checked before it runs."""
    for call in (lambda: ring_a2.gdim_hom(("z", "z"), ("z", "z")),
                 lambda: ring_a2.gdim_hom_divided(("z",), (("z", 1),)),
                 lambda: ring_a2.gdim_hom_column(("z", "z"))):
        with pytest.raises(GraphError, match="unknown vertex 'z'"):
            call()


def test_gdim_hom_divided_rejects_bad_input(ring_a2):
    for bad in ((("i", 0),), (("i", 1.0),), ("i",)):
        with pytest.raises(ValueError):
            ring_a2.gdim_hom_divided(("i",), bad)
    with pytest.raises(WeightMismatchError):
        ring_a2.gdim_hom_divided(("i", "j"), (("i", 2),))


def test_gdim_hom_nilhecke_closed_form(ring_a1):
    """End(i^m) of the nilHecke ring: q^{-m(m-1)/2} [m]! over (1-q^2)^m."""
    for m in range(15):
        gd = ring_a1.gdim_hom(("i",) * m, ("i",) * m)
        assert gd.num == LaurentPoly.q_power(-m * (m - 1) // 2) * qfact(m), m
        assert gd.den == (1,) * m


def _den_poly(factors):
    out = LaurentPoly.one()
    for a in factors:
        out = out * LaurentPoly({0: 1, 2 * a: -1})
    return out


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_gdim_hom_numerators_over_sym_nu(ring_a2, ring_cycle3, data):
    """Over prod_i prod_{a <= nu_i} (1 - q^{2a}), the denominator of the
    Hilbert series of Sym(nu), every sector's numerator is nonnegative,
    and the numerators of all sectors sum to (m!)^2 at q = 1: R(nu) is
    free over Sym(nu) of that rank (KL I, section 2)."""
    ring = data.draw(st.sampled_from([ring_a2, ring_cycle3]))
    vertices = ring.graph.vertices
    counts = data.draw(st.lists(st.integers(0, 3), min_size=len(vertices),
                                max_size=len(vertices))
                       .filter(lambda c: 1 <= sum(c) <= 4))
    weight = weight_from_dict(dict(zip(vertices, counts)))
    den = [a for _, n in weight for a in range(1, n + 1)]
    seqs = seq_enumerate(weight)
    total = 0
    for seq_i in seqs:
        for seq_j in seqs:
            gd = ring.gdim_hom(seq_j, seq_i)
            num = (gd.num * _den_poly(den)).exact_div(_den_poly(gd.den))
            assert GradedDim(num, den) == gd
            assert all(c >= 0 for c in num.coeffs.values()), (seq_j, seq_i)
            total += sum(num.coeffs.values())
    assert total == math.factorial(sum(counts)) ** 2


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


def test_nilhecke_em_rejects_bad_input(ring_a1, ring_a2):
    assert ring_a1.nilhecke_em(0, "i") == ring_a1.idempotent(())
    assert ring_a2.nilhecke_em(2, "j").terms == {
        (("j", "j"), (1, 0), (1, 0)): 1}
    for ring in (ring_a1, ring_a2):
        with pytest.raises(GraphError, match="unknown vertex 'zzz'"):
            ring.nilhecke_em(2, "zzz")
        with pytest.raises(GraphError, match="unknown vertex 'zzz'"):
            ring.nilhecke_em(0, "zzz")
    for m in (-1, -3, 1.0, "2", None, True):
        with pytest.raises(ValueError, match="is not an integer >= 0") as exc:
            ring_a1.nilhecke_em(m, "i")
        assert not isinstance(exc.value, GraphError)


def test_stats_count_right_crossing_terms():
    ring = KLRRing(single_vertex())
    assert ring.stats() == {
        "caches": {"cross": 0, "pair": 0, "hom": 0},
        "hits": {"cross": 0, "pair": 0, "hom": 0},
        "direct_steps": 0,
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


def test_diagram_degree_needs_a_permutation_of_the_strands(ring_a2):
    g = ring_a2.graph
    for seq, w in ((("i", "j"), [1]), (("i", "j"), {}), (("i",), (1, 0)),
                   (("i", "j"), (0, 0)), (("i", "j"), [1, 0]),
                   (("i", "j"), (0,))):
        with pytest.raises(ValueError, match="is not a permutation of"):
            diagram_degree(g, seq, w)
    assert diagram_degree(g, ("i", "j"), (1, 0)) == 1


def test_diagram_degree_rejects_a_label_that_is_not_a_vertex(ring_a2):
    """Every label of seq is checked, also one that no inversion of w
    crosses."""
    g = ring_a2.graph
    for seq, w in ((("z",), (0,)), (("z", "q"), (0, 1)),
                   (("i", "z"), (1, 0)), (("z", "i", "j"), (0, 2, 1))):
        with pytest.raises(GraphError, match="unknown vertex 'z'"):
            diagram_degree(g, seq, w)


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


def test_stats_count_cache_hits():
    """A repeated call reads only the cache: it adds hits and no entries.
    A right step that keeps the canonical word is a direct step: it reads
    and writes no cache."""
    ring = KLRRing(a2())
    theta = (("i", 1), ("j", 2), ("i", 1))
    theta2 = (("j", 1), ("i", 2), ("j", 1))
    pair_recursive(ring, theta, theta2)
    assert ring.stats()["caches"]["pair"] == 5
    assert ring.stats()["hits"] == {"cross": 0, "pair": 1, "hom": 0}
    pair_recursive(ring, theta, theta2)
    assert ring.stats()["caches"]["pair"] == 5
    assert ring.stats()["hits"] == {"cross": 0, "pair": 2, "hom": 0}
    iji = ("i", "j", "i")
    # s1*s2*s1 is canonical: three direct steps, no entry and no hit
    word = [("C", 1), ("C", 2), ("C", 1)]
    for n in (1, 2):
        assert str(ring.evaluate_word(iji, word)) == "s1*s2*s1[iji]"
        assert ring.stats() == {"caches": {"cross": 0, "pair": 5, "hom": 0},
                                "hits": {"cross": 0, "pair": 2, "hom": 0},
                                "direct_steps": 3 * n,
                                "terms_read": 3 * n}
    # s2*s1*s2 takes a braid move: one entry, read once when repeated
    word = [("C", 2), ("C", 1), ("C", 2)]
    assert str(ring.evaluate_word(iji, word)) == "-1[iji] + s1*s2*s1[iji]"
    assert ring.stats() == {"caches": {"cross": 1, "pair": 5, "hom": 0},
                            "hits": {"cross": 0, "pair": 2, "hom": 0},
                            "direct_steps": 9,
                            "terms_read": 10}
    assert str(ring.evaluate_word(iji, word)) == "-1[iji] + s1*s2*s1[iji]"
    assert ring.stats() == {"caches": {"cross": 1, "pair": 5, "hom": 0},
                            "hits": {"cross": 1, "pair": 2, "hom": 0},
                            "direct_steps": 11,
                            "terms_read": 13}


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_stats_account_for_every_right_step(ring_a1, ring_a2, ring_cycle3,
                                            data):
    """Every ``_cross`` call is a cache hit, a new cache entry or a direct
    step, and the direct steps are exactly the calls whose letter c extends
    the canonical word: canonical(w s_c) = canonical(w) + (c,)."""
    _, x, y = _draw_pair(data, [ring_a1, ring_a2, ring_cycle3], (2, 5))
    ring = KLRRing(x.ring.graph)
    calls = extending = 0
    cross = ring._cross

    def counted(c, i, w):
        nonlocal calls, extending
        calls += 1
        v = w[:c - 1] + (w[c], w[c - 1]) + w[c + 1:]
        extending += canonical_word(v) == canonical_word(w) + (c,)
        return cross(c, i, w)

    ring._cross = counted
    ring.multiply(ring.element(x.terms), ring.element(y.terms))
    stats = ring.stats()
    assert stats["direct_steps"] == extending
    assert calls == (stats["hits"]["cross"] + stats["caches"]["cross"]
                     + stats["direct_steps"])


def test_cross_cache_shares_key_parts(ring_a2, ring_cycle3):
    """The cross cache holds one object per distinct sequence, permutation
    and dot vector, across its keys and the terms it stores.  Each entry
    is one flat tuple (j1, v1, u1, k1, j2, ...) of its terms, with nonzero
    int coefficients."""
    rng = random.Random(31)
    for graph in (ring_a2.graph, ring_cycle3.graph):
        ring = KLRRing(graph)
        for _ in range(60):
            seq = tuple(rng.choice(graph.vertices)
                        for _ in range(rng.randint(3, 5)))
            below = random_word(rng, len(seq), 8)
            top = apply_word_to_seq(
                tuple(k for kind, k in below if kind == "C"), seq)
            ring.multiply(ring.evaluate_word(top, random_word(rng, len(seq))),
                          ring.evaluate_word(seq, below))
        seqs, perms, dots = [], [], []
        for (_, i, w), entry in ring._cross_cache.items():
            assert type(entry) is tuple and len(entry) % 4 == 0
            assert all(type(k) is int and k for k in entry[3::4])
            seqs += [i, *entry[::4]]
            perms += [w, *entry[1::4]]
            dots += entry[2::4]
        assert len(ring._cross_cache) > 50
        for parts in (seqs, perms, dots):
            assert len(set(map(id, parts))) == len(set(parts)) > 1
