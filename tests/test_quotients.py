import math
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klr import (
    CartanGraph,
    GraphError,
    IdealSpec,
    KLRRing,
    LaurentPoly,
    WeightMismatchError,
    cyclotomic_spec,
    degree_lower_bound,
    graded_basis,
    ideal_degree_dim,
    qbinom,
    qfact,
    quotient_gdim,
    seq_enumerate,
    sym_plus_spec,
    weight_size,
)
from klr import cli, quotients
from klr.elements import diagram_degree
from klr.permutations import (
    all_permutations,
    apply_perm_to_seq,
    canonical_word,
    identity,
    right_mult_letter,
)
from klr.quotients import _IdealSpan, _rank, _sparse

# Regression fixtures: graded dimensions of single-vertex cyclotomic
# quotients, recorded from the first verified runs of this implementation
# after checking the one-strand cases against Z[x]/(x^lambda) exactly.
CYCLOTOMIC_FIXTURES = {
    (1, 1): {0: 1},
    (1, 2): {0: 1, 2: 1},
    (2, 2): {-2: 1, 0: 2, 2: 1},
}


def test_graded_basis_examples(ring_a1):
    g = ring_a1.graph
    assert graded_basis(g, (("i", 1),), 2) == [(("i",), (0,), (1,))]
    assert graded_basis(g, (("i", 1),), 1) == []
    assert graded_basis(g, (("i", 2),), -2) == [(("i", "i"), (1, 0), (0, 0))]


def test_graded_basis_rejects_negative_count(ring_a1):
    with pytest.raises(ValueError):
        graded_basis(ring_a1.graph, (("i", -1),), 0)


def test_graded_basis_rejects_unknown_vertex(ring_a2):
    with pytest.raises(GraphError):
        graded_basis(ring_a2.graph, (("k", 1),), 0)


def test_sym_plus_rejects_repeated_vertex(ring_a2):
    # (i:1, i:1) once built e_1 twice and no e_2, with lowest degree 0
    with pytest.raises(ValueError):
        sym_plus_spec(ring_a2, (("i", 1), ("i", 1)))
    rep = quotient_gdim(ring_a2, sym_plus_spec(ring_a2, (("i", 2),)),
                        cutoff=6)
    assert rep.stabilized
    assert {d: n for d, n in rep.degrees.items() if n} == {-2: 1, 0: 2, 2: 1}


def _small_weights(vertices, size):
    """Every weight on the vertices with 1 to size strands."""
    out = []
    for counts in product(range(size + 1), repeat=len(vertices)):
        if 0 < sum(counts) <= size:
            out.append(tuple((v, n) for v, n in zip(vertices, counts) if n))
    return out


def test_graded_basis_matches_brute_force(ring_a1, ring_a2, ring_a1xa1,
                                          ring_cycle3):
    for ring in (ring_a1, ring_a2, ring_a1xa1, ring_cycle3):
        g = ring.graph
        for weight in _small_weights(g.vertices, 3):
            lb = degree_lower_bound(weight)
            m = weight_size(weight)
            # a diagram has degree >= lb, so a key of degree <= lb + 8 has
            # |u| <= 4
            by_degree = {}
            for seq in seq_enumerate(weight):
                for w in all_permutations(m):
                    for u in product(range(5), repeat=m):
                        if sum(u) <= 4:
                            key = (seq, w, u)
                            d = ring.element({key: 1}).degree()
                            by_degree.setdefault(d, []).append(key)
            for d in range(lb, lb + 9):
                want = sorted(by_degree.get(d, []))
                first = graded_basis(g, weight, d)
                assert first == want, (g.vertices, weight, d)
                first.append("changed")
                first[:1] = []
                assert graded_basis(g, weight, d) == want


def test_diagram_table_is_built_once(monkeypatch, ring_a2, ring_cycle3):
    import klr.quotients as quotients

    calls = []

    def counted(graph, seq, w):
        calls.append((seq, w))
        return diagram_degree(graph, seq, w)

    monkeypatch.setattr(quotients, "diagram_degree", counted)
    specs = [
        (ring_a2, sym_plus_spec(ring_a2, (("i", 2), ("j", 1)))),
        (ring_a2, cyclotomic_spec(ring_a2, (("i", 2), ("j", 1)), {"i": 2})),
        (ring_cycle3, cyclotomic_spec(
            ring_cycle3, (("1", 1), ("2", 1), ("3", 1)), {"1": 1, "2": 1})),
    ]
    for ring, spec in specs:
        table = len(seq_enumerate(spec.weight)) * math.factorial(
            weight_size(spec.weight))
        plain = IdealSpec(spec.weight, spec.generators)
        for s, cutoff in [(spec, 10), (plain, 2), (plain, 8)]:
            calls.clear()
            rep = quotient_gdim(ring, s, cutoff=cutoff, window=1)
            assert len(rep.degrees) > 1
            assert len(calls) == table, (spec.weight, cutoff)
            assert len(set(calls)) == table


def test_weight_errors_are_typed(ring_a1):
    with pytest.raises(ValueError, match="not an integer"):
        graded_basis(ring_a1.graph, (("i", "x"),), 0)
    for weight in [(("i", 1.5),), (("i", "x"),), (("i", -1),),
                   (("i", 1), ("i", 1))]:
        with pytest.raises(ValueError):
            degree_lower_bound(weight)


def test_degree_lower_bound(ring_a1, ring_a2, ring_a1xa1):
    cases = [
        (ring_a1, (("i", 2),)),
        (ring_a1, (("i", 3),)),
        (ring_a1, (("i", 4),)),
        (ring_a2, (("i", 2), ("j", 1))),
        (ring_a2, (("i", 2), ("j", 2))),
        (ring_a1xa1, (("i", 2), ("j", 2))),
    ]
    for ring, weight in cases:
        lb = degree_lower_bound(weight)
        assert graded_basis(ring.graph, weight, lb) != []
        for d in range(lb - 5, lb):
            assert graded_basis(ring.graph, weight, d) == []


def test_cyclotomic_single_strand(ring_a1):
    weight = (("i", 1),)
    for lam in range(0, 5):
        spec = cyclotomic_spec(ring_a1, weight, {"i": lam})
        rep = quotient_gdim(ring_a1, spec, cutoff=2 * lam + 4, window=3)
        assert {d: n for d, n in rep.degrees.items() if n} == {
            2 * t: 1 for t in range(lam)}
        assert rep.stabilized


def test_cyclotomic_zero_lambda_mixed(ring_a2):
    # lambda_j = 0 puts 1_{j...} itself in the ideal
    weight = (("i", 1), ("j", 1))
    spec = cyclotomic_spec(ring_a2, weight, {"i": 1})
    gens = {str(g) for g in spec.generators}
    assert "1[ji]" in gens
    assert "x1[ij]" in gens
    for make in (lambda: cyclotomic_spec(ring_a2, (("k", 1),), {}),
                 lambda: cyclotomic_spec(ring_a2, weight, {"k": 1}),
                 lambda: sym_plus_spec(ring_a2, (("i", 1), ("k", 1)))):
        with pytest.raises(GraphError):
            make()
    with pytest.raises(ValueError):
        cyclotomic_spec(ring_a2, weight, {"i": -1})


def test_cyclotomic_fixtures(ring_a1):
    for (m, lam), expected in CYCLOTOMIC_FIXTURES.items():
        weight = (("i", m),)
        spec = cyclotomic_spec(ring_a1, weight, {"i": lam})
        rep = quotient_gdim(ring_a1, spec, cutoff=10, window=3)
        assert rep.stabilized, (m, lam)
        assert {d: n for d, n in rep.degrees.items() if n} == expected


def test_ideal_degree_dim_examples(ring_a1):
    spec = sym_plus_spec(ring_a1, (("i", 1),))
    assert ideal_degree_dim(ring_a1, spec, 2) == 1
    spec = cyclotomic_spec(ring_a1, (("i", 1),), {"i": 2})
    assert ideal_degree_dim(ring_a1, spec, 2) == 0
    assert ideal_degree_dim(ring_a1, spec, 4) == 1
    assert ideal_degree_dim(ring_a1, spec, -6) == 0


def test_ideal_degree_dim_matches_report(ring_a2):
    # ideal_degree_dim builds a span for one degree; it must agree with
    # the counts of the span that quotient_gdim shares across degrees, in
    # every degree up to the cutoff: the specs are rebuilt without a top
    # rule, so no degree above the top is left out of the report
    weight = (("i", 2), ("j", 1))
    for built in (cyclotomic_spec(ring_a2, weight, {"i": 1, "j": 1}),
                  sym_plus_spec(ring_a2, weight)):
        spec = IdealSpec(built.weight, built.generators)
        for prime in (None, 3):
            rep = quotient_gdim(ring_a2, spec, cutoff=5, window=1,
                                prime=prime)
            assert list(rep.stats) == list(
                range(degree_lower_bound(weight), 6))
            for d, stats in rep.stats.items():
                assert ideal_degree_dim(ring_a2, spec, d, prime) == (
                    stats["rank"]), (d, prime)
                assert stats["basis"] == len(
                    graded_basis(ring_a2.graph, weight, d))


# Per-degree (basis, products, rows, rank) of three spans, the same over Q
# and F_2147483629, recorded from the engine that kept an empty dict for
# each dead product: a cyclotomic quotient, where most products die, a
# central one, and the first truncated at cutoff 0, recorded from the
# engine that built each product from its left vector letter by letter
SPAN_CASES = {
    "a2 2i+2j, lambda = L_i+L_j": {
        -4: (2, 28, 2, 2), -3: (4, 48, 4, 4), -2: (26, 230, 30, 22),
        -1: (44, 368, 74, 36), 0: (132, 1212, 272, 120),
        1: (180, 1732, 408, 172), 2: (398, 4290, 649, 394)},
    "a1 Sym+ on 3i": {
        -6: (1, 0, 0, 0), -5: (0, 0, 0, 0), -4: (5, 1, 1, 1),
        -3: (0, 0, 0, 0), -2: (14, 6, 6, 6), -1: (0, 0, 0, 0),
        0: (29, 20, 20, 19), 1: (0, 0, 0, 0), 2: (50, 48, 48, 42),
        3: (0, 0, 0, 0), 4: (77, 93, 93, 73), 5: (0, 0, 0, 0),
        6: (110, 156, 156, 109)},
    "a2 2i+2j, lambda = L_i+L_j, cutoff 0": {
        -4: (2, 28, 2, 2), -3: (4, 48, 4, 4), -2: (26, 230, 30, 22),
        -1: (44, 368, 74, 36), 0: (132, 1212, 272, 120)},
}


def _span_cases(ring_a1, ring_a2):
    """name -> (ring, spec, cutoff, top, total) for each row of
    ``SPAN_CASES``."""
    cyclotomic = cyclotomic_spec(ring_a2, (("i", 2), ("j", 2)),
                                 {"i": 1, "j": 1})
    return {"a2 2i+2j, lambda = L_i+L_j": (ring_a2, cyclotomic, 10, 2, 36),
            "a1 Sym+ on 3i": (
                ring_a1, sym_plus_spec(ring_a1, (("i", 3),)), 10, 6, 36),
            "a2 2i+2j, lambda = L_i+L_j, cutoff 0": (
                ring_a2, cyclotomic, 0, 2, 24)}


def _spans(monkeypatch):
    """Make ``quotient_gdim`` record each span it builds; returns the list
    they are appended to."""
    spans = []

    class Recorded(_IdealSpan):
        def __init__(self, *args):
            super().__init__(*args)
            spans.append(self)

    monkeypatch.setattr(quotients, "_IdealSpan", Recorded)
    return spans


def _first_degree(span, key):
    """The degree of a product key (e, index, position): e plus the
    degree of its right factor."""
    e, index, pos = key
    return e + span.right[span.left(e)[index][1]][pos][2]


def test_span_counts_are_pinned(monkeypatch, ring_a1, ring_a2):
    """Dead products are skipped, not dropped from the count: every shift
    still counts as a spanning product, and the rows, ranks, top and
    answer are those of the recorded engine.  No product above the last
    degree of the scan, the cutoff or the top, stays in the table."""
    spans = _spans(monkeypatch)
    for name, (ring, spec, cutoff, top, total) in _span_cases(
            ring_a1, ring_a2).items():
        for prime in (None, 2147483629):
            rep = quotient_gdim(ring, spec, cutoff=cutoff, window=3,
                                prime=prime)
            got = {d: (s["basis"], s["products"], s["rows"], s["rank"])
                   for d, s in rep.stats.items()}
            assert got == SPAN_CASES[name], (name, prime)
            assert (rep.top, rep.complete, rep.total()) == (
                top, top <= cutoff, total), (name, prime)
            assert rep.stabilized == rep.complete, (name, prime)
            span = spans.pop()
            assert span._products, (name, prime)
            assert max(_first_degree(span, key) for key in span._products) <= (
                min(cutoff, top)), (name, prime)


def test_product_table_keeps_live_products(ring_a1, ring_a2):
    """A dead product is one byte in its left vector's marks; the table
    holds only the products that are live and nonzero, so a prefix that
    died is not cached again when a product above it is built."""
    for name, (ring, spec, cutoff, _, _) in _span_cases(
            ring_a1, ring_a2).items():
        for prime in (None, 2147483629):
            span = _IdealSpan(ring, spec, prime)
            for d in SPAN_CASES[name]:
                span.degree(d, cutoff)
            assert span._products, (name, prime)
            assert all(span._products.values()), (name, prime)
            assert not any(span.left(e)[index][3][pos]
                           for e, index, pos in span._products), (name, prime)


def _checked_span(ring, spec, prime, paths):
    """A span whose every product is checked against ``multiply_terms``
    as it is returned, and whose builds count in ``paths`` the products
    built letter by letter because their prefix is dead or lies above the
    last degree."""
    span = _IdealSpan(ring, spec, prime)
    m = span.m

    def product(key, left, last):
        e, _, pos = key
        j, v, _ = span.right[left[1]][pos]
        if key not in span._products and v != identity(m):
            d = canonical_word(v)[-1]
            prefix = span._position[left[1]][right_mult_letter(v, d)]
            paths["dead prefix"] += left[3][prefix]
            paths["above last"] += e + span.right[left[1]][prefix][2] > last
        terms = _IdealSpan._product(span, key, left, last)
        assert terms == _sparse(ring.multiply_terms(
            left[2], {(j, v, (0,) * m): 1}).items(), prime), (key, prime)
        return terms

    span._product = product
    return span


def _prefix_paths(ring, spec, prime, cutoff, paths):
    """Every degree of a scan up to cutoff, through a checked span."""
    span = _checked_span(ring, spec, prime, paths)
    for d in range(span.lb, cutoff + 1):
        span.degree(d, cutoff)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.data())
def test_prefix_products_match_multiply_terms(ring_a1, ring_a2, ring_a1xa1,
                                              ring_cycle3, data):
    """Each product is one right step from the product of its prefix:
    every product the span builds equals the left vector times psi_v e(j)
    by ``multiply_terms``, whether it was built from its prefix or, since
    the prefix is dead or above the last degree, letter by letter."""
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_a1xa1,
                                      ring_cycle3]))
    vertices = sorted(ring.graph.vertices)
    counts = data.draw(st.lists(st.integers(0, 4), min_size=len(vertices),
                                max_size=len(vertices)).filter(
                                    lambda c: 1 <= sum(c) <= 4))
    weight = tuple((v, n) for v, n in zip(vertices, counts) if n)
    if data.draw(st.booleans()):
        spec = sym_plus_spec(ring, weight)
    else:
        spec = cyclotomic_spec(ring, weight, {
            v: data.draw(st.integers(0, 2)) for v in vertices})
    lb = degree_lower_bound(weight)
    cutoff = lb + data.draw(st.integers(0, 3 if sum(counts) == 4 else 6))
    prime = data.draw(st.sampled_from([None, 2147483647]))
    _prefix_paths(ring, spec, prime, cutoff, Counter())


def test_prefix_paths_are_taken(ring_a1, ring_a2):
    """Both paths around the prefix occur, and build the products of
    ``multiply_terms``: a product whose prefix died at its own degree, and
    one whose prefix lies above the last degree, is built letter by
    letter."""
    paths = Counter()
    for ring, spec, cutoff in [
            (ring_a2, cyclotomic_spec(ring_a2, (("i", 2), ("j", 2)),
                                      {"i": 1, "j": 1}), 0),
            (ring_a1, sym_plus_spec(ring_a1, (("i", 3),)), 2)]:
        for prime in (None, 2147483647):
            _prefix_paths(ring, spec, prime, cutoff, paths)
    assert paths["dead prefix"] and paths["above last"], paths


def test_sym_plus_generators_central(ring_a2):
    weight = (("i", 2), ("j", 1))
    spec = sym_plus_spec(ring_a2, weight)
    assert spec.central
    gens = list(ring_a2.generator(("D", k), seq)
                for seq in [("i", "i", "j")] for k in (1,))
    test_elems = []
    for seq in seq_enumerate(weight):
        test_elems.append(ring_a2.generator(("D", 1), seq))
        test_elems.append(ring_a2.generator(("C", 1), seq))
        test_elems.append(ring_a2.generator(("C", 2), seq))
    for z in spec.generators:
        for g in test_elems:
            assert z * g == g * z


def test_ideal_spec_derives_centrality(ring_a1, ring_a2, ring_cycle3):
    with pytest.raises(TypeError):
        IdealSpec((("i", 1),), [ring_a1.idempotent("i")], central=True)
    for ring, weight in [(ring_a1, (("i", 3),)),
                         (ring_a2, (("i", 2), ("j", 1))),
                         (ring_cycle3, (("1", 1), ("2", 1), ("3", 1)))]:
        assert sym_plus_spec(ring, weight).central, weight
    # lambda = 0 on one vertex: the generator e(i...i) is the unit
    for n in (1, 2, 3):
        assert cyclotomic_spec(ring_a1, (("i", n),), {}).central
    for ring, weight, lam in [
            (ring_a1, (("i", 2),), {"i": 1}),
            (ring_a1, (("i", 3),), {"i": 2}),
            (ring_a2, (("i", 1), ("j", 1)), {"i": 1}),
            (ring_a2, (("i", 1), ("j", 1)), {}),
            (ring_a2, (("i", 2), ("j", 1)), {"i": 1, "j": 1}),
            (ring_cycle3, (("1", 1), ("2", 1)), {"1": 1})]:
        assert not cyclotomic_spec(ring, weight, lam).central, (weight, lam)


def test_ideal_spec_reads_its_generators_once(ring_a1):
    """An iterator of generators gives the spec, and the quotient, of the
    list it yields."""
    gens = cyclotomic_spec(ring_a1, (("i", 2),), {"i": 1}).generators
    spec = IdealSpec((("i", 2),), iter(gens))
    assert spec.generators == gens
    assert (quotient_gdim(ring_a1, spec).degrees
            == quotient_gdim(ring_a1, IdealSpec((("i", 2),), gens)).degrees)


def test_hand_built_cyclotomic_spec(ring_a2):
    """The cyclotomic generators of lambda = Lambda_i on nu = i + j are not
    central, so a hand-built spec must not take the central shortcut,
    which answers 1 in every degree."""
    weight = (("i", 1), ("j", 1))
    gens = cyclotomic_spec(ring_a2, weight, {"i": 1}).generators
    rep = quotient_gdim(ring_a2, IdealSpec(weight, gens), cutoff=6)
    assert {d: n for d, n in rep.degrees.items() if n} == {0: 1}
    assert rep.stabilized


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_centrality_matches_commutation(ring_a1, ring_a2, ring_a1xa1, data):
    """spec.central agrees with commuting with every dot and crossing, on
    basis combinations, dots-only ones, and S_m-symmetrized dots-only
    ones."""
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_a1xa1]))
    if len(ring.graph.vertices) == 1:
        weight = (("i", data.draw(st.integers(1, 3))),)
    else:
        weight = data.draw(st.sampled_from(
            [(("i", 1), ("j", 1)), (("i", 2), ("j", 1)),
             (("i", 1), ("j", 2))]))
    m = weight_size(weight)
    mode = data.draw(st.sampled_from(["basis", "dots", "symmetric"]))
    lowest = degree_lower_bound(weight) if mode == "basis" else 0
    d = data.draw(st.integers(lowest, 4))
    keys = graded_basis(ring.graph, weight, d)
    if mode != "basis":
        keys = [key for key in keys if key[1] == identity(m)]
    if not keys:
        return
    chosen = data.draw(st.lists(st.sampled_from(keys), min_size=1,
                                max_size=4, unique=True))
    terms = {key: data.draw(st.integers(1, 3)) for key in chosen}
    if mode == "symmetric":
        orbit = {}
        for (i, w, u), c in terms.items():
            for v in all_permutations(m):
                key = (apply_perm_to_seq(v, i), w, apply_perm_to_seq(v, u))
                orbit[key] = orbit.get(key, 0) + c
        terms = orbit
    g = ring.element(terms)
    gens = [ring.generator((typ, k), seq) for seq in seq_enumerate(weight)
            for typ, top in (("D", m), ("C", m - 1))
            for k in range(1, top + 1)]
    commutes = all(g * x == x * g for x in gens)
    assert IdealSpec(weight, [g]).central == commutes, str(g)
    if mode == "symmetric":
        assert commutes


def test_symplus_total_dims(ring_a1, ring_a2, ring_a1xa1):
    cases = [
        (ring_a1, (("i", 1),), 1, 6),
        (ring_a1, (("i", 2),), 2, 8),
        (ring_a2, (("i", 1), ("j", 1)), 2, 8),
        (ring_a1xa1, (("i", 1), ("j", 1)), 2, 8),
        (ring_a1, (("i", 3),), 3, 10),
        (ring_a2, (("i", 2), ("j", 1)), 3, 8),
        (ring_a1xa1, (("i", 2), ("j", 1)), 3, 8),
    ]
    for ring, weight, m, cutoff in cases:
        rep = quotient_gdim(ring, sym_plus_spec(ring, weight),
                            cutoff=cutoff, window=3)
        assert rep.total() == math.factorial(m) ** 2, weight
        assert rep.stabilized


def test_symplus_single_vertex_coinvariant_factorization(ring_a1):
    # gdim R'(mi) = (sum_w q^{-2 l(w)}) * gdim(coinvariant algebra)
    from klr.laurent import LaurentPoly
    from klr.permutations import all_permutations, inversions
    for m, cutoff in ((2, 8), (3, 10)):
        weight = (("i", m),)
        rep = quotient_gdim(ring_a1, sym_plus_spec(ring_a1, weight),
                            cutoff=cutoff, window=3)
        got = LaurentPoly({d: n for d, n in rep.degrees.items() if n})
        crossings = LaurentPoly.zero()
        for w in all_permutations(m):
            crossings = crossings + LaurentPoly.q_power(
                -2 * len(inversions(w)))
        coinv = LaurentPoly.one()
        for t in range(1, m + 1):
            coinv = coinv * LaurentPoly({2 * a: 1 for a in range(t)})
        assert got == crossings * coinv


def _symplus_closed_form(ring, weight):
    """gdim R(nu)/Sym+ from the hom spaces alone.

    R(nu) is free over Sym(nu) = prod_i Sym[x_1..x_{nu_i}] (KL I, section
    2), whose graded dimension is prod_i prod_{a <= nu_i} 1/(1 - q^{2a}),
    so gdim R(nu)/Sym+ = gdim R(nu) * prod_i prod_{a <= nu_i} (1 - q^{2a}),
    with gdim R(nu) the sum over all sectors of gdim_hom(j, i).
    """
    seqs = seq_enumerate(weight)
    num = LaurentPoly.zero()
    for i in seqs:
        for j in seqs:
            num = num + ring.gdim_hom(j, i).num  # over (1 - q^2)^m
    for _, n in weight:
        for a in range(1, n + 1):
            num = num * LaurentPoly({0: 1, 2 * a: -1})
    m = sum(n for _, n in weight)
    return num.exact_div(LaurentPoly({0: 1, 2: -1}) ** m).coeffs


def test_symplus_closed_form(ring_a1, ring_a2):
    cases = [
        (ring_a1, (("i", 2),)),
        (ring_a1, (("i", 3),)),
        (ring_a2, (("i", 1), ("j", 1))),
        (ring_a2, (("i", 2), ("j", 1))),
        (ring_a2, (("i", 1), ("j", 2))),
        (ring_a2, (("i", 2), ("j", 2))),
    ]
    for ring, weight in cases:
        want = _symplus_closed_form(ring, weight)
        cutoff = max(want) + 3
        for prime in (None, 2):
            rep = quotient_gdim(ring, sym_plus_spec(ring, weight),
                                cutoff=cutoff, window=3, prime=prime)
            assert rep.stabilized, (weight, prime)
            assert {d: n for d, n in rep.degrees.items() if n} == want, (
                weight, prime)


def test_ideal_spec_rejects_other_weights(ring_a2):
    with pytest.raises(WeightMismatchError):
        IdealSpec((("i", 2),), [ring_a2.idempotent("ij")])
    # the order of the weight's entries does not matter
    spec = IdealSpec((("j", 1), ("i", 1)), [ring_a2.idempotent("ij")])
    assert spec.weight == (("i", 1), ("j", 1))
    with pytest.raises(ValueError):
        IdealSpec((("i", 1), ("i", 1)), [ring_a2.idempotent("ii")])
    rep = quotient_gdim(ring_a2, spec, cutoff=4, window=1)
    assert rep.degrees == {0: 1, 1: 0, 2: 1, 3: 0, 4: 1}


def test_spec_of_another_ring_raises(ring_a2, ring_a1xa1):
    """A spec built in a ring over another graph is rejected by the span:
    its keys mean other elements, and its top rule is the other graph's.
    A ring over an equal graph shares its specs."""
    ij = (("i", 1), ("j", 1))
    want = {"symplus": {0: 2, 1: 2}, "cyclotomic": {0: 1}}
    for name, make in (("symplus", lambda r: sym_plus_spec(r, ij)),
                       ("cyclotomic",
                        lambda r: cyclotomic_spec(r, ij, {"i": 1}))):
        for op in (lambda: quotient_gdim(ring_a2, make(ring_a1xa1),
                                         cutoff=20),
                   lambda: ideal_degree_dim(ring_a2, make(ring_a1xa1), 1),
                   lambda: quotient_gdim(ring_a1xa1, make(ring_a2),
                                         cutoff=20)):
            with pytest.raises(WeightMismatchError, match="other graphs"):
                op()
        for ring in (ring_a2, KLRRing(CartanGraph(["j", "i"], [("j", "i")]))):
            rep = quotient_gdim(ring_a2, make(ring), cutoff=20)
            assert {d: n for d, n in rep.degrees.items() if n} == want[name]


def test_zero_ideal_reproduces_ring(ring_a1):
    weight = (("i", 2),)
    rep = quotient_gdim(ring_a1, IdealSpec(weight, []), cutoff=4, window=1)
    for d in range(degree_lower_bound(weight), 5):
        assert rep.degrees[d] == len(graded_basis(ring_a1.graph, weight, d))
    assert not rep.stabilized


def test_window_must_be_positive(ring_a1):
    # an empty window would call this truncated answer (31 of 3!^2 = 36)
    # stabilized
    spec = sym_plus_spec(ring_a1, (("i", 3),))
    for window in (0, -1):
        with pytest.raises(ValueError):
            quotient_gdim(ring_a1, spec, cutoff=2, window=window)
    assert not quotient_gdim(ring_a1, spec, cutoff=2, window=1).stabilized
    # the lowest degree of R(3i) is -6: a window reaching below it reads
    # zeros there, where R(3i) has no basis element
    for cutoff, window, degrees, stabilized in ((-8, 1, {}, True),
                                                (-6, 3, {-6: 1}, False)):
        rep = quotient_gdim(ring_a1, spec, cutoff=cutoff, window=window)
        assert (rep.degrees, rep.stabilized, rep.top) == (
            degrees, stabilized, 6), cutoff
        assert not rep.complete


def test_prime_field_agrees_here(ring_a1):
    weight = (("i", 2),)
    spec = cyclotomic_spec(ring_a1, weight, {"i": 2})
    rep_q = quotient_gdim(ring_a1, spec, cutoff=8, window=3)
    rep_p = quotient_gdim(ring_a1, spec, cutoff=8, window=3, prime=5)
    assert rep_q.degrees == rep_p.degrees
    assert rep_p.field == "F_5"


def test_report_json(ring_a1):
    spec = cyclotomic_spec(ring_a1, (("i", 1),), {"i": 2})
    rep = quotient_gdim(ring_a1, spec, cutoff=6, window=3)
    obj = rep.to_json()
    assert list(obj) == ["degrees", "top", "complete", "cutoff", "field",
                         "stats"]
    assert obj["complete"] is True
    assert obj["field"] == "Q"
    assert obj["degrees"]["0"] == 1
    assert obj["cutoff"] == 6
    # no degree above the top, 2, is computed
    assert obj["top"] == 2 and list(obj["degrees"]) == ["0", "1", "2"]
    obj = quotient_gdim(ring_a1, spec, cutoff=1).to_json()
    assert (obj["complete"], obj["top"], obj["cutoff"]) == (False, 2, 1)


def _dense_rank(rows, prime=None):
    """Reference rank: dense Gaussian elimination over Fraction or F_prime."""
    if prime is None:
        rows = [[Fraction(c) for c in row] for row in rows]
    else:
        rows = [[c % prime for c in row] for row in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue
        rank += 1
        rows.remove(pivot)
        new_rows = []
        for r in rows:
            if prime is None:
                f = r[col] / pivot[col]
                r = [c - f * p for c, p in zip(r, pivot)]
            else:
                f = r[col] * pow(pivot[col], -1, prime)
                r = [(c - f * p) % prime for c, p in zip(r, pivot)]
            new_rows.append(r)
        rows = new_rows
    return rank


@st.composite
def int_matrices(draw):
    """Small integer matrices, with zero rows and repeated rows mixed in."""
    ncols = draw(st.integers(1, 6))
    row = st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(row, max_size=7))
    zero = [0] * ncols
    extra = draw(st.lists(st.sampled_from(rows + [zero]), max_size=3))
    rows = rows + extra
    return draw(st.permutations(rows)) if rows else rows


def _sparse_rank(rows, prime=None):
    """``_rank`` of dense rows, each made sparse first, into a new echelon."""
    return _rank([_sparse(enumerate(row), prime) for row in rows], prime, {})


@settings(max_examples=300, deadline=None)
@given(int_matrices(), st.sampled_from([None, 2, 3, 5]))
def test_rank_matches_dense_reference(rows, prime):
    assert _sparse_rank(rows, prime) == _dense_rank(rows, prime)


def test_rank_examples():
    assert _sparse_rank([]) == 0
    assert _sparse_rank([[0, 0, 0], [0, 0, 0]]) == 0
    assert _sparse_rank([[1, 2], [1, 2], [2, 4]]) == 1
    # the rank over F_p can drop below the rank over Q
    assert _sparse_rank([[2, 0], [0, 1]]) == 2
    assert _sparse_rank([[2, 0], [0, 1]], prime=2) == 1
    assert _sparse_rank([[1, 1], [1, -1]], prime=3) == 2
    assert _sparse_rank([[1, 1], [1, -1]], prime=2) == 1
    # a scaled Hilbert matrix: full rank, and far from small entries
    rows = [[720720 // (i + j + 1) for j in range(7)] for i in range(7)]
    assert _sparse_rank(rows) == 7
    assert _sparse_rank(rows, prime=5) == _dense_rank(rows, prime=5)
    # rows added to an echelon count only the rank they add
    echelon = {}
    assert _rank([{0: 1, 1: 2}], None, echelon) == 1
    assert _rank([{0: 2, 1: 4}, {1: 3}], None, echelon) == 1
    assert len(echelon) == 2


def test_cyclotomic_nilhecke_three_strands(ring_a1):
    # NH_n^lam is a matrix algebra of size [n]! over H*(Gr(n, lam)) (Lauda,
    # arXiv 0803.3652): gdim = ([n]!)^2 q^{n(lam - n)} [lam choose n]
    n, cutoff = 3, 4
    for lam in (2, 3):
        want = LaurentPoly.zero()
        if lam >= n:
            want = (qfact(n) * qfact(n) * LaurentPoly.q_power(n * (lam - n))
                    * qbinom(lam, n))
        spec = cyclotomic_spec(ring_a1, (("i", n),), {"i": lam})
        for prime in (None, 2):
            rep = quotient_gdim(ring_a1, spec, cutoff=cutoff, window=3,
                                prime=prime)
            got = {d: k for d, k in rep.degrees.items() if k}
            assert got == {d: k for d, k in want.coeffs.items()
                           if d <= cutoff}, (lam, prime)


def test_prime_must_be_a_prime_below_2_64(ring_a1, ring_a2):
    # Z/4 and Z/6 are not fields, so a rank over them means nothing
    spec = cyclotomic_spec(ring_a2, (("i", 2), ("j", 2)), {"i": 1, "j": 1})
    for prime in (0, 1, 4, 6, 2 ** 61 - 3, 2 ** 64 + 13):
        with pytest.raises(ValueError, match="not a prime"):
            quotient_gdim(ring_a2, spec, cutoff=0, window=1, prime=prime)
    rep = quotient_gdim(ring_a2, spec, cutoff=0, window=1, prime=2 ** 61 - 1)
    assert {d: n for d, n in rep.degrees.items() if n} == {
        -2: 4, -1: 8, 0: 12}
    # the engine is the one primality check: the CLI only parses Fp:<p>
    assert not hasattr(cli, "is_prime")
    assert cli.parse_field("Fp:4") == 4
    # ideal_degree_dim builds the same span, so it makes the same check;
    # unchecked, Z/1 gave rank 0 in every degree, and 0 a ZeroDivisionError
    spec = sym_plus_spec(ring_a1, (("i", 2),))
    for prime in (None, 2, 2 ** 61 - 1):
        assert [ideal_degree_dim(ring_a1, spec, d, prime)
                for d in (-2, 0, 2, 4)] == [0, 1, 4, 7]
    for prime in (1, 0, 4, 9, -5):
        for d in (-2, 0, 2, 4):
            with pytest.raises(ValueError, match=f"characteristic {prime} "
                               f"is not a prime below 2\\^64"):
                ideal_degree_dim(ring_a1, spec, d, prime)
        with pytest.raises(ValueError, match="not a prime"):
            quotient_gdim(ring_a1, spec, cutoff=4, window=1, prime=prime)


def _ideal_by_brute_force(ring, spec, d, prime):
    """Rank of every a * g * b of degree d, over whole graded bases."""
    graph, weight = ring.graph, spec.weight
    lb = degree_lower_bound(weight)
    columns = {key: n for n, key in enumerate(graded_basis(graph, weight, d))}
    rows = set()
    for g in spec.generators:
        rest = d - g.degree()
        for da in range(lb, rest - lb + 1):
            for akey in graded_basis(graph, weight, da):
                ag = ring.element({akey: 1}) * g
                if not ag:
                    continue
                for bkey in graded_basis(graph, weight, rest - da):
                    row = [0] * len(columns)
                    for key, c in (ag * ring.element({bkey: 1})).terms.items():
                        row[columns[key]] = c
                    if any(row):
                        rows.add(tuple(row))
    return len(columns) - _dense_rank(sorted(rows), prime)


@st.composite
def random_ideals(draw, rings):
    """A ring, and a few homogeneous generators of a non-central ideal of
    R(nu) with |nu| <= 3, each a combination of basis keys of one degree,
    plus one redundant generator, 2 g or a g for a basis key a, at a drawn
    place, so that the engine always meets redundant left vectors."""
    ring = draw(st.sampled_from(rings))
    if len(ring.graph.vertices) == 1:
        weight = (("i", draw(st.integers(1, 3))),)
    else:
        a = draw(st.integers(0, 3))
        b = draw(st.integers(1 if a == 0 else 0, 3 - a))
        weight = tuple((v, n) for v, n in (("i", a), ("j", b)) if n)
    lb = degree_lower_bound(weight)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        d = draw(st.integers(lb, lb + 4))
        keys = graded_basis(ring.graph, weight, d)
        if not keys:
            continue
        chosen = draw(st.lists(st.sampled_from(keys), min_size=1,
                               max_size=3, unique=True))
        coeffs = st.sampled_from([-3, -2, -1, 1, 2, 3])
        gens.append(ring.element({key: draw(coeffs) for key in chosen}))
    if gens:
        g = draw(st.sampled_from(gens))
        keys = [key for d in range(lb, lb + 3)
                for key in graded_basis(ring.graph, weight, d)]
        a = draw(st.one_of(st.none(), st.sampled_from(keys)))
        extra = 2 * g if a is None else ring.element({a: 1}) * g
        gens.insert(draw(st.integers(0, len(gens))), extra or 2 * g)
    return ring, IdealSpec(weight, gens)


# derandomized, so that its draws, and its time, are the same on every run
@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.data())
def test_quotient_matches_brute_force(ring_a1, ring_a2, ring_a1xa1, data):
    ring, spec = data.draw(random_ideals([ring_a1, ring_a2, ring_a1xa1]))
    prime = data.draw(st.sampled_from([None, 2, 3]))
    lb = degree_lower_bound(spec.weight)
    # three strands only up to lb + 3, where the brute force stays small
    cutoff = lb + (3 if weight_size(spec.weight) == 3 else 6)
    rep = quotient_gdim(ring, spec, cutoff=cutoff, window=1, prime=prime)
    for d in range(lb, cutoff + 1):
        assert rep.degrees[d] == _ideal_by_brute_force(ring, spec, d, prime), (
            d, [str(g) for g in spec.generators], prime)


def test_top_rules(ring_a1, ring_a2, ring_cycle3):
    """sym_plus_spec fixes the top degree; cyclotomic_spec gives the degree
    d of the symmetric algebra; a hand-built spec has no rule, and no
    caller can set one."""
    for ring, weight, top in [
            (ring_a1, (("i", 3),), 6),
            (ring_a2, (("i", 1), ("j", 1)), 1),
            (ring_a2, (("i", 2), ("j", 1)), 4),
            (ring_a2, (("i", 2), ("j", 2)), 8),
            (ring_cycle3, (("1", 1), ("2", 1), ("3", 1)), 3)]:
        spec = sym_plus_spec(ring, weight)
        assert spec.top_rule == ("top", top), weight
        # the closed form is the highest degree of a dot-free diagram,
        # plus the top of the Artin staircase
        m = weight_size(weight)
        highest = max(diagram_degree(ring.graph, j, w)
                      for j in seq_enumerate(weight)
                      for w in all_permutations(m))
        assert top == highest + sum(n * (n - 1) for _, n in weight), weight
        rep = quotient_gdim(ring, spec, cutoff=10 ** 9, window=1)
        assert rep.top == top and rep.degrees[top] > 0, weight
    # d = 2 (lambda, beta) - (beta, beta)
    assert cyclotomic_spec(ring_a1, (("i", 3),), {"i": 2}).top_rule == (
        "symmetric", -6)
    assert cyclotomic_spec(ring_a2, (("i", 2), ("j", 2)),
                           {"i": 1, "j": 1}).top_rule == ("symmetric", 0)
    spec = IdealSpec((("i", 1),), [ring_a1.idempotent("i")])
    assert spec.top_rule is None
    with pytest.raises(AttributeError):
        spec.top_rule = ("top", 0)
    with pytest.raises(TypeError):
        IdealSpec((("i", 1),), [], top_rule=("top", 0))


def test_no_degree_above_the_top(ring_a1, ring_a2):
    """degrees and stats hold exactly the degrees up to the top or the
    cutoff; a cutoff of 10^9 answers as a cutoff at top + 3 does."""
    cases = [(ring_a1, sym_plus_spec(ring_a1, (("i", 3),)), 6),
             (ring_a2, cyclotomic_spec(ring_a2, (("i", 2), ("j", 2)),
                                       {"i": 1, "j": 1}), 2),
             # NH_3 with lambda = 2 is 0: d = -6, so zero up to d // 2
             (ring_a1, cyclotomic_spec(ring_a1, (("i", 3),), {"i": 2}), -3)]
    for ring, spec, top in cases:
        lb = degree_lower_bound(spec.weight)
        near = quotient_gdim(ring, spec, cutoff=top + 3, window=3)
        far = quotient_gdim(ring, spec, cutoff=10 ** 9, window=3)
        assert str(far) == str(near) and far.stabilized
        for rep in (near, far):
            assert rep.top == top
            assert list(rep.degrees) == list(rep.stats) == list(
                range(lb, top + 1))
            assert rep.to_json()["top"] == top
        # below the top the cutoff stops the scan, and the window reads
        # computed degrees
        cut = quotient_gdim(ring, spec, cutoff=top - 1, window=1)
        assert list(cut.degrees) == list(range(lb, top))
        assert cut.stabilized == (cut.degrees[top - 1] == 0)
    # a cyclotomic scan cut before d // 2 and before any nonzero degree
    # cannot know the top
    spec = cyclotomic_spec(ring_a1, (("i", 3),), {"i": 2})
    rep = quotient_gdim(ring_a1, spec, cutoff=-4, window=1)
    assert rep.top is None and rep.stabilized
    assert rep.degrees == {-6: 0, -5: 0, -4: 0}
    assert rep.to_json()["top"] is None


def test_report_is_complete_iff_its_cutoff_reaches_the_top(
        ring_a1, ring_a2, ring_a1xa1, ring_cycle3):
    """A report is complete exactly when its cutoff reaches the exact top,
    and then it holds every degree; otherwise it holds the degrees up to
    the cutoff.  Its last line is decided by ``complete`` alone, for
    cutoffs from below the lowest degree to past the top."""
    ij, lam = (("i", 1), ("j", 1)), {"i": 1, "j": 1}
    cases = [(ring_a1, sym_plus_spec(ring_a1, (("i", 2),))),
             (ring_a1, cyclotomic_spec(ring_a1, (("i", 2),), {"i": 3})),
             # zero: d // 2 = -1 lies below the lowest degree, 0
             (ring_a1, cyclotomic_spec(ring_a1, (("i", 1),), {"i": 0})),
             (ring_a2, sym_plus_spec(ring_a2, ij)),
             (ring_a2, cyclotomic_spec(ring_a2, (("i", 2), ("j", 1)),
                                       {"i": 1})),
             (ring_a1xa1, sym_plus_spec(ring_a1xa1, ij)),
             (ring_a1xa1, cyclotomic_spec(ring_a1xa1, ij, lam)),
             (ring_cycle3, sym_plus_spec(ring_cycle3, (("1", 1), ("2", 1)))),
             (ring_cycle3, cyclotomic_spec(
                 ring_cycle3, (("1", 1), ("2", 1), ("3", 1)), {"1": 1}))]
    for ring, spec in cases:
        far = quotient_gdim(ring, spec, cutoff=10 ** 9)
        assert far.complete and far.top is not None
        lb = degree_lower_bound(spec.weight)
        for cutoff in range(lb - 3, max(far.top, lb) + 3):
            rep = quotient_gdim(ring, spec, cutoff=cutoff)
            case = (spec.weight, spec.top_rule, cutoff)
            assert rep.complete == (far.top <= cutoff), case
            assert rep.to_json()["complete"] is rep.complete, case
            last = str(rep).splitlines()[-1]
            if rep.complete:
                assert (rep.degrees, rep.top) == (far.degrees, far.top), case
                assert last == f"complete: top degree {far.top}", case
                continue
            assert rep.degrees == {d: n for d, n in far.degrees.items()
                                   if d <= cutoff}, case
            assert rep.top in (far.top, None), case
            top = "not known" if rep.top is None else far.top
            assert last == (f"truncated at cutoff {cutoff}; "
                            f"top degree {top}"), case


def _symmetric_degree(graph, weight, lam):
    """d = 2 (lambda, beta) - (beta, beta), with (alpha_i, alpha_j) the
    Cartan pairing and (Lambda_i, alpha_j) = delta_ij."""
    pair = sum(n * k * graph.cartan(v, u) for v, n in weight
               for u, k in weight)
    return 2 * sum(lam.get(v, 0) * n for v, n in weight) - pair


# (graph, nu, lambda) of every complete cyclotomic answer in the tests:
# NH_n^lambda for n <= 3 and lambda <= 4, then a2 and cycle(3) cases
PALINDROMIC_CASES = [
    ("a1", (("i", n),), {"i": lam}) for n in (1, 2, 3) for lam in range(5)
] + [
    ("a2", (("i", 1), ("j", 1)), {"i": 1}),
    ("a2", (("i", 2), ("j", 1)), {"i": 1}),
    ("a2", (("i", 2), ("j", 1)), {"i": 2}),
    ("a2", (("i", 1), ("j", 1)), {"i": 1, "j": 1}),
    ("a2", (("i", 2), ("j", 1)), {"i": 1, "j": 1}),
    ("a2", (("i", 1), ("j", 2)), {"i": 1, "j": 1}),
    ("a2", (("i", 2), ("j", 2)), {"i": 1, "j": 1}),
    ("a2", (("i", 1), ("j", 2)), {"i": 2, "j": 1}),
    ("a2", (("i", 1), ("j", 1)), {"i": 2, "j": 1}),
    ("a2", (("i", 1), ("j", 2)), {"i": 1, "j": 2}),
    ("cycle3", (("1", 1), ("2", 1), ("3", 1)), {"1": 1}),
    ("cycle3", (("1", 2), ("2", 1), ("3", 1)), {"1": 1, "2": 1}),
]


def test_cyclotomic_palindromy(ring_a1, ring_a2, ring_cycle3):
    """R^lambda(beta) is a symmetric algebra of degree d (Shan-Varagnolo-
    Vasserot), so its graded dimension is symmetric about d / 2.  The
    engine computes every degree up to the top, each from its own basis
    and rank; none is mirrored."""
    rings = {"a1": ring_a1, "a2": ring_a2, "cycle3": ring_cycle3}
    for name, weight, lam in PALINDROMIC_CASES:
        ring = rings[name]
        d = _symmetric_degree(ring.graph, weight, lam)
        lb = degree_lower_bound(weight)
        spec = cyclotomic_spec(ring, weight, lam)
        for prime in (None, 2147483629):
            rep = quotient_gdim(ring, spec, cutoff=10 ** 9, window=1,
                                prime=prime)
            case = (name, weight, lam, prime)
            assert rep.stabilized and rep.top is not None, case
            assert list(rep.stats) == list(range(lb, rep.top + 1)), case
            got = {k: n for k, n in rep.degrees.items() if n}
            assert got == {d - k: n for k, n in got.items()}, case
            if got:
                assert rep.top == max(got) == d - min(got), case
            if name == "a1":
                n, lam_i = weight[0][1], lam["i"]
                want = LaurentPoly.zero()
                if lam_i >= n:
                    want = (qfact(n) * qfact(n) * qbinom(lam_i, n)
                            * LaurentPoly.q_power(n * (lam_i - n)))
                assert got == want.coeffs, case


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_top_rule_matches_engine(ring_a1, ring_a2, ring_a1xa1, ring_cycle3,
                                 data):
    """The top rules against the engine alone: the same generators with no
    rule, computed past the top, agree degree by degree, and read zero in
    every degree above the top."""
    ring = data.draw(st.sampled_from([ring_a1, ring_a2, ring_a1xa1,
                                      ring_cycle3]))
    vertices = sorted(ring.graph.vertices)
    counts = data.draw(st.lists(st.integers(0, 4), min_size=len(vertices),
                                max_size=len(vertices)).filter(
                                    lambda c: 1 <= sum(c) <= 4))
    weight = tuple((v, n) for v, n in zip(vertices, counts) if n)
    lb = degree_lower_bound(weight)
    if data.draw(st.booleans()):
        spec = sym_plus_spec(ring, weight)
        highest = spec.top_rule[1]
    else:
        lam = {v: data.draw(st.integers(0, 2)) for v in vertices}
        spec = cyclotomic_spec(ring, weight, lam)
        d = _symmetric_degree(ring.graph, weight, lam)
        assert spec.top_rule == ("symmetric", d)
        highest = d - lb
    # the 4-strand cases with the most degrees take seconds each
    if highest - lb > 14:
        return
    prime = data.draw(st.sampled_from([None, 2, 3, 2147483629]))
    rep = quotient_gdim(ring, spec, cutoff=10 ** 9, window=1, prime=prime)
    assert rep.top is not None and rep.stabilized
    assert list(rep.stats) == list(range(lb, rep.top + 1))
    cutoff = max(rep.top, lb) + 2
    plain = quotient_gdim(ring, IdealSpec(spec.weight, spec.generators),
                          cutoff=cutoff, window=1, prime=prime)
    case = (weight, [str(g) for g in spec.generators], prime)
    for k in range(lb, cutoff + 1):
        assert rep.degrees.get(k, 0) == plain.degrees[k], (k, case)
        if k in rep.stats:
            assert rep.stats[k] == plain.stats[k], (k, case)
    if rep.total():
        assert rep.degrees[rep.top] > 0, case
