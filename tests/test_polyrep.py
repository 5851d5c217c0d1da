import random
from itertools import permutations, product
from math import factorial, prod
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klr import (
    GeneratorIndexError,
    GraphError,
    KLRRing,
    WeightMismatchError,
    a2,
    act,
    act_many,
    act_word,
    default_orientation,
    oracle_equal,
    reversed_orientation,
)
from klr.permutations import apply_perm_to_seq, canonical_word, check_tokens
from klr.polyrep import artin_basis, divided_difference, poly_mul_var
from klr.sequences import format_seq
from klr.verify import label_seqs, oracle

from conftest import random_word


def poly_add(p, q, scalar=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + scalar * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_swap(p, k):
    """Exchange the variables x_k and x_{k+1}."""
    out = {}
    for e, c in p.items():
        e2 = list(e)
        e2[k - 1], e2[k] = e2[k], e2[k - 1]
        out[tuple(e2)] = c
    return out


def _act_generator_reference(graph, orientation, token, seq, poly):
    """The per-generator action that the one-pass crossing replaced."""
    typ, k = token
    seq = tuple(seq)
    if typ == "D":
        return seq, poly_mul_var(poly, k)
    a, b = seq[k - 1], seq[k]
    lst = list(seq)
    lst[k - 1], lst[k] = lst[k], lst[k - 1]
    new_seq = tuple(lst)
    if a == b:
        return seq, divided_difference(poly, k)
    if graph.cartan(a, b) != 0 and orientation[frozenset((a, b))] == (a, b):
        swapped = poly_swap(poly, k)
        return new_seq, poly_add(poly_mul_var(swapped, k),
                                 poly_mul_var(swapped, k + 1))
    return new_seq, poly_swap(poly, k)


def _act_reference(orientation, x, seq, poly):
    """Each term's crossings one generator at a time, summed by poly_add."""
    out = {}
    for (i, w, u), c in x.terms.items():
        if i != tuple(seq):
            continue
        cur_seq = i
        cur = {tuple(map(add, e, u)): v for e, v in poly.items()}
        for letter in reversed(canonical_word(w)):
            cur_seq, cur = _act_generator_reference(
                x.ring.graph, orientation, ("C", letter), cur_seq, cur)
        out[cur_seq] = poly_add(out.get(cur_seq, {}), cur, c)
    return {s: p for s, p in out.items() if p}


def test_divided_difference():
    # d(x1) = 1; d(x1 x2) = 0; d(x1^2) = x1 + x2
    assert divided_difference({(1, 0): 1}, 1) == {(0, 0): 1}
    assert divided_difference({(1, 1): 1}, 1) == {}
    assert divided_difference({(2, 0): 1}, 1) == {(1, 0): 1, (0, 1): 1}


def _divided_difference_reference(p, k):
    """The quadratic long division that the closed form replaced."""
    swapped = {}
    for e, c in p.items():
        e2 = list(e)
        e2[k - 1], e2[k] = e2[k], e2[k - 1]
        swapped[tuple(e2)] = swapped.get(tuple(e2), 0) + c
    g = poly_add(p, swapped, -1)
    out = {}
    while g:
        e = max(g, key=lambda t: (t[k - 1], t))
        c = g[e]
        assert e[k - 1] > 0, f"division by x{k} - x{k+1} not exact"
        q = list(e)
        q[k - 1] -= 1
        q = tuple(q)
        out[q] = out.get(q, 0) + c
        # subtract c * x^q * (x_k - x_{k+1})
        g = poly_add(g, {e: c}, -1)
        r = list(q)
        r[k] += 1
        g = poly_add(g, {tuple(r): c})
    return {e: c for e, c in out.items() if c}


@st.composite
def polys_and_index(draw):
    m = draw(st.integers(2, 4))
    mono = st.tuples(*[st.integers(0, 6)] * m)
    coeff = st.integers(-5, 5).filter(bool)
    return (draw(st.dictionaries(mono, coeff, max_size=8)),
            draw(st.integers(1, m - 1)))


@settings(max_examples=300, deadline=None)
@given(polys_and_index())
def test_divided_difference_matches_reference(pk):
    p, k = pk
    assert divided_difference(p, k) == _divided_difference_reference(p, k)


@st.composite
def basis_keys(draw, ring, seq=None):
    """A basis key (i, w, u); over seq if one is given."""
    if seq is None:
        m = draw(st.integers(2, 4))
        seq = tuple(draw(st.lists(st.sampled_from(ring.graph.vertices),
                                  min_size=m, max_size=m)))
    m = len(seq)
    w = tuple(draw(st.permutations(range(m))))
    u = tuple(draw(st.lists(st.integers(0, 2), min_size=m, max_size=m)))
    return seq, w, u


def _monomials(seq):
    return [{mono: 1} for mono in artin_basis(seq)]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluate_word_matches_act_word(ring_a1, ring_a2, ring_cycle3, data):
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_cycle3]))
    g = ring.graph
    seq, _, _ = data.draw(basis_keys(ring))
    m = len(seq)
    token = st.one_of(st.tuples(st.just("C"), st.integers(1, m - 1)),
                      st.tuples(st.just("D"), st.integers(1, m)))
    tokens = data.draw(st.lists(token, max_size=7))
    elem = ring.evaluate_word(seq, tokens)
    orient = default_orientation(g)
    for f in _monomials(seq):
        ws, wp = act_word(g, orient, seq, tokens, f)
        assert act(orient, elem, seq, f) == ({ws: wp} if wp else {})


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_multiply_matches_composed_action(ring_a1, ring_a2, ring_cycle3,
                                          data):
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_cycle3]))
    bkey = data.draw(basis_keys(ring))
    akey = data.draw(basis_keys(ring, apply_perm_to_seq(bkey[1], bkey[0])))
    a, b = ring.element({akey: 1}), ring.element({bkey: 1})
    orient = default_orientation(ring.graph)
    src = bkey[0]
    for f in _monomials(src):
        composed = {}
        for s2, p2 in act(orient, b, src, f).items():
            for s3, p3 in act(orient, a, s2, p2).items():
                composed[s3] = poly_add(composed.get(s3, {}), p3)
        composed = {s: p for s, p in composed.items() if p}
        assert act(orient, a * b, src, f) == composed


@st.composite
def signed_polys(draw, m, k=None):
    """Up to 6 terms, exponents 0..3, signed coefficients.

    Given a crossing index k, a term may get a partner with one exponent
    moved from x_k to x_{k+1} and the opposite coefficient, so that their
    images under an oriented crossing share a monomial that cancels.
    """
    mono = st.tuples(*[st.integers(0, 3)] * m)
    coeff = st.integers(-3, 3).filter(bool)
    poly = draw(st.dictionaries(mono, coeff, max_size=6))
    if k is not None and poly and draw(st.booleans()):
        e = draw(st.sampled_from(sorted(poly)))
        if e[k - 1] > 0:
            e2 = list(e)
            e2[k - 1] -= 1
            e2[k] += 1
            poly[tuple(e2)] = -poly[e]
    return poly


@st.composite
def oracle_setups(draw, rings):
    """A ring, an orientation of its graph, and a sequence of 2-5 labels."""
    ring = draw(st.sampled_from(rings))
    g = ring.graph
    orient = draw(st.sampled_from([default_orientation(g),
                                   reversed_orientation(g)]))
    m = draw(st.integers(2, 5))
    seq = tuple(draw(st.lists(st.sampled_from(g.vertices),
                              min_size=m, max_size=m)))
    return ring, orient, seq


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_act_generator_matches_reference(ring_a1, ring_a2, ring_cycle3,
                                         data):
    ring, orient, seq = data.draw(
        oracle_setups([ring_a1, ring_a2, ring_cycle3]))
    m = len(seq)
    token = data.draw(st.one_of(
        st.tuples(st.just("C"), st.integers(1, m - 1)),
        st.tuples(st.just("D"), st.integers(1, m))))
    k = token[1] if token[0] == "C" else None
    poly = data.draw(signed_polys(m, k))
    g = ring.graph
    assert (act_word(g, orient, seq, [token], poly)
            == _act_generator_reference(g, orient, token, seq, poly))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_act_matches_reference(ring_a1, ring_a2, ring_cycle3, data):
    ring, orient, seq = data.draw(
        oracle_setups([ring_a1, ring_a2, ring_cycle3]))
    keys = data.draw(st.lists(basis_keys(ring, seq), min_size=1, max_size=4))
    # a term over a reordering of seq acts by zero unless it is seq itself
    other = tuple(data.draw(st.permutations(seq)))
    keys.append(data.draw(basis_keys(ring, other)))
    coeff = st.integers(-3, 3).filter(bool)
    x = ring.element({key: data.draw(coeff) for key in keys})
    poly = data.draw(signed_polys(len(seq)))
    assert act(orient, x, seq, poly) == _act_reference(orient, x, seq, poly)


def _act_by_words(g, orientation, x, seq, poly):
    """Each term as its own generator word through ``act_word``: u[k] dots
    on strand k + 1, then the canonical word of w, bottom first."""
    out = {}
    for (i, w, u), c in x.terms.items():
        if i != tuple(seq):
            continue
        tokens = [("D", k + 1) for k, n in enumerate(u) for _ in range(n)]
        tokens += [("C", k) for k in reversed(canonical_word(w))]
        top, p = act_word(g, orientation, seq, tokens, poly)
        out[top] = poly_add(out.get(top, {}), p, c)
    return {s: p for s, p in out.items() if p}


@st.composite
def shared_crossing_elements(draw, ring, seq):
    """An element over seq whose permutations each carry 1-3 dot vectors.

    A term over a reordering of seq is added too, which acts by zero.
    """
    m = len(seq)
    dots = st.tuples(*[st.integers(0, 2)] * m)
    coeff = st.integers(-3, 3).filter(bool)
    terms = {}
    for w in draw(st.lists(st.permutations(range(m)).map(tuple),
                           min_size=1, max_size=3, unique=True)):
        for u in draw(st.lists(dots, min_size=1, max_size=3, unique=True)):
            terms[seq, w, u] = draw(coeff)
    other = tuple(draw(st.permutations(seq)))
    terms[other, tuple(range(m)), (0,) * m] = draw(coeff)
    return ring.element(terms)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_act_shares_crossings_and_batches(ring_a1, ring_a2, ring_cycle3,
                                         data):
    ring, orient, seq = data.draw(
        oracle_setups([ring_a1, ring_a2, ring_cycle3]))
    x = data.draw(shared_crossing_elements(ring, seq))
    polys = data.draw(st.lists(signed_polys(len(seq)), min_size=1,
                               max_size=4))
    g = ring.graph
    singles = [act(orient, x, seq, poly) for poly in polys]
    assert singles == [_act_by_words(g, orient, x, seq, poly)
                       for poly in polys]
    assert act_many(orient, x, seq, polys) == singles
    assert act_many(orient, x, seq, []) == []


def test_act_many_checks_every_polynomial(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    x = ring_a2.generator(("C", 1), ("i", "j"))
    one = {(0, 0): 1}
    assert act_many(ori, x, ("i", "j"), [one, {}, one]) == [
        {("j", "i"): {(1, 0): 1, (0, 1): 1}}, {},
        {("j", "i"): {(1, 0): 1, (0, 1): 1}}]
    # x is 0 off its bottom sequence, and every result is its own dict
    results = act_many(ori, x, ("j", "i"), [one, one])
    assert results == [{}, {}] and results[0] is not results[1]
    # a zero coefficient is dropped, not crossed
    assert act(ori, x, ("i", "j"), {(0, 0): 0, (1, 0): 1}) == act(
        ori, x, ("i", "j"), {(1, 0): 1})
    with pytest.raises(ValueError, match="variables for 2 strands"):
        act_many(ori, x, ("i", "j"), [one, {(1, 0, 0): 1}])
    with pytest.raises(GraphError, match="'k'"):
        act_many(ori, x, ("i", "k"), [one])
    with pytest.raises(ValueError, match="edge i-j"):
        act_many({}, x, ("i", "j"), [{}])


def test_act_word_drops_zero_coefficients(ring_a1, ring_a2):
    # a zero coefficient is dropped once, before any token, as act does;
    # it used to reach the edge loop, the divided difference or a dot
    cases = [
        (ring_a2, ("i", "j"), [("C", 1)], {(0, 0): 0}, {}),
        (ring_a1, ("i", "i"), [("C", 1)], {(1, 0): 0, (2, 0): 1},
         {(1, 0): 1, (0, 1): 1}),
        (ring_a1, ("i", "i"), [("D", 1)], {(0, 0): 0}, {}),
        (ring_a2, ("i", "j"), [], {(0, 0): 0, (0, 1): 3}, {(0, 1): 3}),
        (ring_a2, ("i", "j"), [], {(0, 0): 0}, {}),
    ]
    for ring, seq, tokens, poly, want in cases:
        g = ring.graph
        ori = default_orientation(g)
        before = dict(poly)
        top, got = act_word(g, ori, seq, tokens, poly)
        assert got == want, (seq, tokens)
        assert poly == before
        x = ring.evaluate_word(seq, tokens)
        assert act(ori, x, seq, poly) == ({top: want} if want else {})


def test_cancelling_terms_are_dropped(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    # (x2 - x1)(x1 + x2) after the swap: the x1 x2 terms cancel
    seq, p = act_word(g, ori, ("i", "j"), [("C", 1)],
                      {(1, 0): 1, (0, 1): -1})
    assert seq == ("j", "i")
    assert p == {(0, 2): 1, (2, 0): -1}
    # (2 x1 - x2)(2 x1 + x2): the x1 x2 terms of the two products cancel
    x = ring_a2.element({(("i", "j"), (0, 1), (1, 0)): 2,
                         (("i", "j"), (0, 1), (0, 1)): -1})
    assert (act(ori, x, ("i", "j"), {(1, 0): 2, (0, 1): 1})
            == {("i", "j"): {(2, 0): 4, (0, 2): -1}})


def test_generator_index_errors(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    for token in [("C", 0), ("C", 2), ("D", 0), ("D", 3)]:
        with pytest.raises(GeneratorIndexError) as oracle:
            act_word(g, ori, ("i", "j"), [token], {(1, 0): 1})
        with pytest.raises(GeneratorIndexError) as kernel:
            ring_a2.evaluate_word(("i", "j"), [token])
        assert str(oracle.value) == str(kernel.value)
        with pytest.raises(GeneratorIndexError):
            act_word(g, ori, ("i", "j"), [("C", 1), token], {(1, 0): 1})
    for token in [("X", 1), ("c", 1)]:
        with pytest.raises(ValueError) as oracle:
            act_word(g, ori, ("i", "j"), [token], {(1, 0): 1})
        with pytest.raises(ValueError) as kernel:
            ring_a2.evaluate_word(("i", "j"), [("C", 1), token])
        assert str(oracle.value) == str(kernel.value) == (
            f"unknown token type {token[0]!r}")
        assert not isinstance(kernel.value, GeneratorIndexError)
    # both routes raise from the one check of the token format
    with pytest.raises(GeneratorIndexError,
                       match="^crossing 2 out of range for 2 strands$"):
        check_tokens([("D", 2), ("C", 1), ("C", 2)], 2)
    with pytest.raises(GeneratorIndexError,
                       match="^dot position 1 out of range for 0 strands$"):
        check_tokens([("D", 1)], 0)
    check_tokens([("D", 1), ("D", 2), ("C", 1)], 2)
    check_tokens([], 0)


def test_token_index_must_be_an_int(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    for token, message in [
            (("D", 1.0), "dot position 1.0 is not an integer"),
            (("C", "1"), "crossing '1' is not an integer"),
            (("C", True), "crossing True is not an integer"),
            (("D", None), "dot position None is not an integer")]:
        with pytest.raises(ValueError) as oracle:
            act_word(g, ori, ("i", "j"), [token], {(1, 0): 1})
        with pytest.raises(ValueError) as kernel:
            ring_a2.evaluate_word(("i", "j"), [("D", 1), token])
        assert str(oracle.value) == str(kernel.value) == message
        assert not isinstance(kernel.value, GeneratorIndexError)


def test_tokens_are_checked_before_any_is_applied(ring_a2):
    g = ring_a2.graph
    one = {(0, 0): 1}
    # the orientation {} orients no edge, so crossing i-j raises ValueError
    # when it is applied; every token is checked before that
    with pytest.raises(GeneratorIndexError,
                       match="^crossing 2 out of range for 2 strands$"):
        act_word(g, {}, ("i", "j"), [("C", 1), ("C", 2)], one)
    with pytest.raises(ValueError, match="^unknown token type 'X'$"):
        act_word(g, {}, ("i", "j"), [("C", 1), ("X", 1)], one)
    with pytest.raises(ValueError, match="edge i-j"):
        act_word(g, {}, ("i", "j"), [("C", 1), ("C", 1)], one)


def test_polynomial_needs_one_variable_per_strand(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    x = ring_a2.idempotent(("i", "j"))
    for poly in ({(1,): 1}, {(1, 0, 0): 1}, {(0, 0): 1, (1,): 2}):
        with pytest.raises(ValueError, match="variables for 2 strands"):
            act_word(g, ori, ("i", "j"), [("C", 1)], poly)
        with pytest.raises(ValueError, match="variables for 2 strands"):
            act_word(g, ori, ("i", "j"), [("D", 1)], poly)
        with pytest.raises(ValueError, match="variables for 2 strands"):
            act(ori, x, ("i", "j"), poly)


def test_empty_word_checks_its_input(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    with pytest.raises(GraphError, match="'k'"):
        act_word(g, ori, ("k",), [], {(0,): 1})
    with pytest.raises(ValueError, match="variables for 2 strands"):
        act_word(g, ori, ("i", "j"), [], {(1,): 1})
    assert act_word(g, ori, ("i", "j"), [], {(1, 0): 1}) == (
        ("i", "j"), {(1, 0): 1})


def test_act_rejects_unknown_vertices(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    x = ring_a2.idempotent(("i", "j"))
    with pytest.raises(GraphError, match="'k'"):
        act(ori, x, ("i", "k"), {(0, 0): 1})
    for token, seq in [(("C", 1), ("i", "k")), (("C", 1), ("k", "k")),
                       (("D", 2), ("i", "k"))]:
        with pytest.raises(GraphError, match="'k'"):
            act_word(g, ori, seq, [token], {(0, 0): 1})
    with pytest.raises(GraphError, match="'k'"):
        act_word(g, ori, ("i", "k"), [("D", 1)], {(0, 0): 1})


def test_orientation_must_orient_each_crossed_edge(ring_a2):
    g = ring_a2.graph
    x = ring_a2.generator(("C", 1), ("i", "j"))
    one = {(0, 0): 1}
    assert act(default_orientation(g), x, ("i", "j"), one) == {
        ("j", "i"): {(1, 0): 1, (0, 1): 1}}
    for ori in ({frozenset("ij"): ("i", "k")}, {frozenset("ij"): ("i", "i")},
                {frozenset("ij"): None}, {}):
        with pytest.raises(ValueError, match="edge i-j"):
            act(ori, x, ("i", "j"), one)
        with pytest.raises(ValueError, match="edge i-j"):
            act_word(g, ori, ("i", "j"), [("C", 1)], one)
        with pytest.raises(ValueError, match="edge j-i"):
            act_word(g, ori, ("j", "i"), [("D", 1), ("C", 1)], one)
    # dots and equal labels cross no edge, so they need no orientation
    assert act_word(g, {}, ("i", "i"), [("D", 1), ("C", 1)], one) == (
        ("i", "i"), one)


def test_dead_polynomial_still_moves_the_labels(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    one = {(0, 0, 0): 1}
    # the divided difference kills 1 on the i, i strands; the i, j crossing
    # after it still moves the labels to the top sequence
    assert act_word(g, ori, ("i", "i", "j"), [("C", 1), ("C", 2)], one) == (
        ("i", "j", "i"), {})
    dead = ring_a2.evaluate_word(("i", "i", "j"), [("C", 1), ("C", 2)])
    live = ring_a2.evaluate_word(("i", "i", "j"), [("C", 2)])
    assert act(ori, dead, ("i", "i", "j"), one) == {}
    assert act(ori, dead + live, ("i", "i", "j"), one) == {
        ("i", "j", "i"): {(0, 1, 0): 1, (0, 0, 1): 1}}
    assert act(ori, dead + live, ("i", "i", "j"), one) == _act_reference(
        ori, dead + live, ("i", "i", "j"), one)


def test_every_crossed_edge_is_checked(ring_a2):
    g = ring_a2.graph
    one = {(0, 0, 0): 1}
    divide = ring_a2.evaluate_word(("i", "i", "j"), [("C", 1)])
    edge = ring_a2.evaluate_word(("i", "i", "j"), [("C", 2)])
    assert act({}, divide, ("i", "i", "j"), one) == {}
    # only a later term crosses the edge
    with pytest.raises(ValueError, match="edge i-j"):
        act({}, divide + edge, ("i", "i", "j"), one)
    # the edge is crossed two letters after the polynomial is zero
    seq, word = ("i", "i", "i", "j"), [("C", 1), ("C", 2), ("C", 3)]
    with pytest.raises(ValueError, match="edge i-j"):
        act({}, ring_a2.evaluate_word(seq, word), seq, {(0, 0, 0, 0): 1})
    with pytest.raises(ValueError, match="edge i-j"):
        act_word(g, {}, seq, word, {(0, 0, 0, 0): 1})


def test_generator_cases(ring_a2):
    g = ring_a2.graph
    ori = default_orientation(g)
    # oriented edge i -> j (lex order): crossing over (i, j) multiplies
    seq, p = act_word(g, ori, ("i", "j"), [("C", 1)], {(0, 0): 1})
    assert seq == ("j", "i")
    assert p == {(1, 0): 1, (0, 1): 1}
    # against the orientation: plain swap
    seq, p = act_word(g, ori, ("j", "i"), [("C", 1)], {(1, 0): 1})
    assert seq == ("i", "j")
    assert p == {(0, 1): 1}
    # equal labels: divided difference
    seq, p = act_word(g, ori, ("i", "i"), [("C", 1)], {(1, 0): 1})
    assert seq == ("i", "i")
    assert p == {(0, 0): 1}


def test_double_crossing_action_both_orientations(ring_a2):
    g = ring_a2.graph
    for ori in (default_orientation(g), reversed_orientation(g)):
        seq, p = act_word(g, ori, ("i", "j"),
                          [("C", 1), ("C", 1)], {(0, 0): 1})
        assert seq == ("i", "j")
        assert p == {(1, 0): 1, (0, 1): 1}


def test_defining_relations_numerically(ring_a1, ring_a2, ring_a1xa1):
    """Generator-composition identities on monomials of degree <= 4.

    This checks polyrep's own operators, so it cannot lean on the Artin
    basis: that argument assumes the operators are Sym(nu)-linear.  It
    samples every monomial up to a degree instead.
    """
    def monomials_up_to(m, degree_bound):
        return [e for e in product(range(degree_bound + 1), repeat=m)
                if sum(e) <= degree_bound]

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
                for mono in artin_basis(seq):
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
        for mono in artin_basis(seq):
            inner = act(ori, y, seq, {mono: 1})
            composed = {}
            for s2, p2 in inner.items():
                for s3, p3 in act(ori, x, s2, p2).items():
                    composed[s3] = poly_add(composed.get(s3, {}), p3)
            composed = {s: p for s, p in composed.items() if p}
            assert composed == act(ori, x * y, seq, {mono: 1})


def test_oracle_equal(ring_a1):
    e = ring_a1.idempotent(("i", "i"))
    assert oracle_equal(e, e)
    cc = ring_a1.evaluate_word(("i", "i"), [("C", 1), ("C", 1)])
    assert oracle_equal(cc, ring_a1.zero())
    x1 = ring_a1.generator(("D", 1), ("i",))
    assert not oracle_equal(x1, x1 + ring_a1.idempotent(("i",)))


def test_oracle_weight_mismatch(ring_a2):
    x, y = ring_a2.idempotent(("i",)), ring_a2.idempotent(("j",))
    with pytest.raises(WeightMismatchError, match="weights differ"):
        oracle_equal(x, y)
    assert issubclass(WeightMismatchError, ValueError)
    assert oracle_equal(ring_a2.zero(), ring_a2.zero())
    assert not oracle_equal(ring_a2.zero(), y)
    # e(empty) is the unit of R(0), not zero; its weight () is not "none"
    empty = ring_a2.idempotent(())
    assert not oracle_equal(empty, ring_a2.zero())
    assert not oracle_equal(ring_a2.zero(), empty)
    assert oracle_equal(empty, empty)


def test_oracle_orientation_independent(ring_a2):
    rng = random.Random(23)
    g = ring_a2.graph
    seqs = label_seqs(g, 3)
    for _ in range(15):
        seq = rng.choice(seqs)
        x = ring_a2.evaluate_word(seq, random_word(rng, 3, 4))
        y = ring_a2.evaluate_word(seq, random_word(rng, 3, 4))
        verdicts = {oracle_equal(x, y, orientation=default_orientation(g)),
                    oracle_equal(x, y, orientation=reversed_orientation(g))}
        assert len(verdicts) == 1


def test_artin_basis_is_the_staircase():
    assert artin_basis(()) == [()]
    assert artin_basis(("i", "i", "i")) == [
        (a, b, 0) for a in range(3) for b in range(2)]
    # the staircase runs over the positions of each label, in order
    assert sorted(artin_basis(("i", "j", "i", "j", "j"))) == sorted(
        (a, b, 0, d, 0) for a in range(2) for b in range(3)
        for d in range(2))
    for seq in [("i",) * 5, ("i", "j", "i", "k", "i", "j")]:
        basis = artin_basis(seq)
        assert len(set(basis)) == len(basis) == prod(
            factorial(seq.count(v)) for v in set(seq))


def test_oracle_sees_the_longest_divided_difference(ring_a1, ring_a2):
    # psi_{w0} e(i^m) kills every polynomial of degree below m(m-1)/2, so
    # a degree-bounded sample calls it zero; the Artin basis holds x^rho
    for m in (4, 5):
        w0 = ring_a1.element({(("i",) * m, tuple(range(m - 1, -1, -1)),
                               (0,) * m): 1})
        assert not oracle_equal(w0, ring_a1.zero())
    seq = ("i", "i", "i", "i", "j")
    w0 = ring_a2.evaluate_word(
        seq, [("C", k) for k in (1, 2, 1, 3, 2, 1)])
    assert w0
    assert not oracle_equal(w0, ring_a2.zero())
    assert not oracle_equal(ring_a2.zero(), w0)


def test_oracle_names_the_failing_monomial(monkeypatch):
    ring = KLRRing(a2())
    g = ring.graph
    words = []
    evaluate_word = ring.evaluate_word

    def faulty(seq, tokens):
        # a kernel fault: psi_1 e(seq) is added to every word.  It kills
        # the monomials symmetric in x_1, x_2 when the first two labels
        # agree, so the first failing monomial is not always 1
        words.append((f"word {tokens} on {format_seq(seq, g)}", seq,
                      tokens))
        return evaluate_word(seq, tokens) + evaluate_word(seq, [("C", 1)])

    monkeypatch.setattr(ring, "evaluate_word", faulty)
    failures = oracle(ring)
    monkeypatch.undo()
    expected = []
    for name, seq, tokens in words:
        good = ring.evaluate_word(seq, tokens)
        bad = good + ring.evaluate_word(seq, [("C", 1)])
        for ori in (default_orientation(g), reversed_orientation(g)):
            for mono in artin_basis(seq):
                if act(ori, bad, seq, {mono: 1}) != act(ori, good, seq,
                                                        {mono: 1}):
                    expected.append((name, mono))
                    break
    assert failures == expected
    seqs = {name: seq for name, seq, _ in words}
    for name, mono in failures:
        assert mono in artin_basis(seqs[name])
    assert any(mono != artin_basis(seqs[name])[0] for name, mono in failures)


def test_oracle_reaches_every_right_step(monkeypatch):
    # the kernel's products are built from the right steps (c, i, w), one
    # table entry each; the suite reads every one of them on 2 to 4 strands
    ring = KLRRing(a2())
    cross = ring._cross
    reached = set()

    def spy(c, i, w):
        reached.add((c, i, w))
        return cross(c, i, w)

    monkeypatch.setattr(ring, "_cross", spy)
    assert oracle(ring) == []
    steps = {(c, i, w) for m in (2, 3, 4) for c in range(1, m)
             for i in label_seqs(ring.graph, m)
             for w in permutations(range(m))}
    assert len(steps) == 1256
    assert reached == steps

    # a fault in one length-lowering step, a braid move on iji: the step
    # word canonical(w) = 1 2 1 over psi_1, from jii, names it
    ring = KLRRing(a2())
    cross = ring._cross
    bad = (1, ("i", "j", "i"), (2, 1, 0))

    def faulty(c, i, w):
        out = cross(c, i, w)
        if (c, i, w) != bad:
            return out
        # an entry is one flat tuple (j, v, u, k, ...): negate each k
        return tuple(-f if n % 4 == 3 else f for n, f in enumerate(out))

    assert cross(*bad)
    monkeypatch.setattr(ring, "_cross", faulty)
    names = {name for name, _ in oracle(ring)}
    assert "word [('C', 1), ('C', 1), ('C', 2), ('C', 1)] on jii" in names


def test_oracle_takes_no_bound(ring_a1):
    e = ring_a1.idempotent(("i", "i"))
    # the basis is worked out from the weight: no degree can be passed
    with pytest.raises(TypeError):
        oracle_equal(e, e, 3)
    with pytest.raises(TypeError):
        oracle(ring_a1, 3)


@st.composite
def same_weight_pairs(draw, rings):
    """A ring, and elements x, y of one weight on 1-4 strands.

    y is x rebuilt, x with one term added or changed, or an independent
    draw, so both verdicts occur.
    """
    ring = draw(st.sampled_from(rings))
    m = draw(st.integers(1, 4))
    seq = tuple(draw(st.lists(st.sampled_from(ring.graph.vertices),
                              min_size=m, max_size=m)))
    key = st.permutations(seq).map(tuple).flatmap(
        lambda s: basis_keys(ring, s))
    coeff = st.integers(-3, 3).filter(bool)
    terms = st.dictionaries(key, coeff, max_size=4)
    xt = draw(terms)
    how = draw(st.sampled_from(["same", "one term", "independent"]))
    yt = draw(terms) if how == "independent" else dict(xt)
    if how == "one term":
        k = draw(key)
        yt[k] = yt.get(k, 0) + draw(coeff)
    # the zero element has no weight: pin it with the idempotent term
    base = {(seq, tuple(range(m)), (0,) * m): 1}
    return ring, ring.element({**base, **xt}), ring.element({**base, **yt})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_oracle_equal_decides_equality(ring_a1, ring_a2, ring_cycle3, data):
    ring, x, y = data.draw(same_weight_pairs([ring_a1, ring_a2,
                                              ring_cycle3]))
    g = ring.graph
    for orient in (default_orientation(g), reversed_orientation(g)):
        assert oracle_equal(x, y, orientation=orient) == (x == y)
