import json
import re
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klr import (
    CartanGraph,
    GraphError,
    IdealSpec,
    KLRRing,
    a1xa1,
    a2,
    act,
    act_many,
    act_word,
    char_projective,
    comultiply,
    cycle,
    cyclotomic_spec,
    default_orientation,
    degree_lower_bound,
    graded_basis,
    pair_monomials,
    pair_recursive,
    quotient_gdim,
    seq_enumerate,
    single_vertex,
    sym_plus_spec,
    tight,
)
from klr import verify
from klr.characters import K0Vector
from klr.cli import main
from klr.laurent import LaurentPoly, qfact
from klr.sequences import (
    check_weight,
    divided_weight,
    expand,
    factorial_poly,
    format_divided,
    format_seq,
    parse_divided,
    parse_seq,
    plain,
    reverse,
    shift,
    shuffles,
)


def test_seq_enumerate_example():
    assert seq_enumerate((("i", 2), ("j", 1))) == [
        ("i", "i", "j"), ("i", "j", "i"), ("j", "i", "i")]
    assert seq_enumerate(()) == [()]
    assert seq_enumerate((("i", 3),)) == [("i",) * 3]


def test_seq_enumerate_counts():
    cases = [((("i", 2), ("j", 2)),), ((("a", 1), ("b", 2), ("c", 3)),)]
    for (weight,) in cases:
        total = sum(n for _, n in weight)
        expect = factorial(total)
        for _, n in weight:
            expect //= factorial(n)
        assert len(seq_enumerate(weight)) == expect


def test_seq_enumerate_rejects_bad_weights():
    for weight in ((("i", 1), ("i", 1)), (("i", 0), ("j", 1), ("i", 2)),
                   (("i", -1),), (("i", 1.0),), (("i", "2"),)):
        with pytest.raises(ValueError):
            seq_enumerate(weight)
    assert seq_enumerate((("i", 0), ("j", 1))) == [("j",)]


def test_check_weight_returns_the_normal_form():
    """Sorted by vertex, zero counts dropped, read once."""
    assert check_weight([("j", 1), ("i", 0), ("k", 2)]) == (("j", 1),
                                                           ("k", 2))
    assert check_weight(iter([("j", 1), ("i", 2)])) == (("i", 2), ("j", 1))
    assert check_weight([("i", 0)]) == check_weight(()) == ()


ONE_CHARACTER_GRAPHS = [single_vertex(), a2(), a1xa1(), cycle(3), cycle(4)]
LONG_NAME_GRAPHS = [cycle(12), CartanGraph(["ab", "c"], [("ab", "c")])]
# plain sequences over each graph with a longer vertex name, with and
# without such a vertex
WRITTEN = {LONG_NAME_GRAPHS[0]: [("1", "1"), ("11",), ("1", "1", "2"),
                                 ("12", "1")],
           LONG_NAME_GRAPHS[1]: [("ab", "c"), ("c", "c"), ("c", "ab", "ab")]}


@settings(max_examples=150, deadline=None)
@given(st.data())
def _drawn_round_trips(data):
    """The readers invert the writers over the graph, for sequences drawn
    from all of its vertices: over cycle(12), with or without a vertex of
    two characters."""
    graph = data.draw(st.sampled_from(ONE_CHARACTER_GRAPHS
                                      + LONG_NAME_GRAPHS))
    vertex = st.sampled_from(graph.vertices)
    seq = tuple(data.draw(st.lists(vertex, max_size=6)))
    assert parse_seq(format_seq(seq, graph), graph) == seq
    theta = tuple(data.draw(st.lists(st.tuples(vertex, st.integers(1, 3)),
                                     max_size=5)))
    assert parse_divided(format_divided(theta), graph) == theta


def test_text_form_round_trips(tmp_path, capsys, monkeypatch):
    """Every printed plain sequence reads back with ``parse_seq`` to the
    sequence it names, on cycle(12) and on a graph with the vertex ab:
    the keys of ``klr char`` and ``klr shuffle`` (text and --json), the
    element names of ``klr multiply``, the ``klr check idempotents``
    verdict lines and the counterexample names of the relations suite.
    Then the readers invert the writers on drawn sequences."""
    for graph in LONG_NAME_GRAPHS:
        path = tmp_path / "graph.json"
        path.write_text(json.dumps(graph.to_json()))
        ring = KLRRing(graph)

        def klr(*argv):
            assert main([argv[0], "-g", str(path), *argv[1:]]) == 0, argv
            return capsys.readouterr().out

        def read(pairs, want):
            """The sequences named in the (text, value) pairs, each read
            back, against want; no two texts read alike."""
            got = {parse_seq(text, graph): value for text, value in pairs}
            assert got == want and len(pairs) == len(want)

        seqs = WRITTEN[graph]
        for seq in seqs:
            cv = char_projective(ring, plain(seq))
            text = klr("char", " ".join(seq))
            read([line.split(": ") for line in text.splitlines()],
                 {k: str(v) for k, v in cv.values.items()})
            read(list(json.loads(klr("char", "--json", " ".join(seq))
                                 ).items()),
                 {k: v.to_json() for k, v in cv.values.items()})
            tokens = [("D", 1), ("C", 1)][:len(seq)]
            word = " ".join(f"{t}{k}" for t, k in tokens)
            elem = ring.evaluate_word(seq, tokens)
            names = re.findall(r"\[([^]]*)\]", klr(
                "multiply", "--word", f"{' '.join(seq)}: {word}"))
            read([(name, None) for name in names],
                 {i: None for i, _, _ in elem.terms})
        left, right = " ".join(seqs[0]), " ".join(seqs[1])
        shuffled = {s: None for s, _ in shuffles(graph, seqs[0], seqs[1])}
        read([(line.split(": ")[0], None)
              for line in klr("shuffle", left, right).strip().split(", ")],
             shuffled)
        read([(k, None) for k in json.loads(klr("shuffle", "--json", left,
                                                right))], shuffled)
        read([(line[len("idempotents on "):-len(": PASS")], None)
              for line in klr("check", "idempotents").splitlines()],
             {(x, y, x): None for x, y in map(tuple, graph.edges)
              for x, y in ((x, y), (y, x))})
    # a kernel fault that adds to each word a multiple of e(seq) which
    # tells the two sides of every relation apart fails every relation on
    # the ab graph, and each failure is named with its sequence
    ring = KLRRing(LONG_NAME_GRAPHS[1])
    evaluate_word = ring.evaluate_word
    monkeypatch.setattr(ring, "evaluate_word", lambda seq, tokens: (
        evaluate_word(seq, tokens)
        + (3 if tokens[:1] == [("C", 1)] else 1) * evaluate_word(seq, [])))
    names = [re.fullmatch(r"(double crossing|dot slide|braid|distant dot) "
                          r"(.*?)( D\d)?", name).group(2)
             for name, _ in verify.relations(ring)]
    assert len(names) == 4 + 4 * 2 + 8 + 8
    assert {parse_seq(n, ring.graph) for n in names} == set(
        verify.label_seqs(ring.graph, 2) + verify.label_seqs(ring.graph, 3))
    _drawn_round_trips()


def test_divided_sequences():
    theta = (("i", 2), ("j", 1))
    assert expand(theta) == ("i", "i", "j")
    assert divided_weight(theta) == (("i", 2), ("j", 1))
    assert shift(theta) == 1
    assert factorial_poly(theta) == qfact(2)
    assert plain(("i", "j")) == (("i", 1), ("j", 1))
    assert reverse(theta) == (("j", 1), ("i", 2))
    assert format_divided(theta) == "i^(2) j"
    assert format_seq(("i", "j"), a2()) == "ij"
    assert format_seq(("v1", "v2"), CartanGraph(["v1", "v2"], [])) == "v1 v2"
    assert format_seq(("1", "1"), cycle(12)) == "1 1"
    assert format_seq(("11",), cycle(12)) == "11"


def test_shuffles_counts_and_degrees():
    g = a2()
    out = shuffles(g, ("i",), ("j",))
    assert sorted(out) == [(("i", "j"), 0), (("j", "i"), 1)]
    g0 = a1xa1()
    out = shuffles(g0, ("i",), ("j",))
    assert sorted(out) == [(("i", "j"), 0), (("j", "i"), 0)]
    out = shuffles(g, ("i",), ("i",))
    assert sorted(out) == [(("i", "i"), -2), (("i", "i"), 0)]


def test_shuffles_reject_unknown_vertex():
    g = a2()
    for seq_i, seq_j in ((("k",), ()), ((), ("k",)), (("i",), ("k",)),
                         (("k", "i"), ("j",))):
        with pytest.raises(GraphError, match="unknown vertex 'k'"):
            shuffles(g, seq_i, seq_j)


def test_non_sequences_raise_type_error():
    """The contract for arguments: a value of the right type that is out
    of range raises a ValueError subclass, and an argument of the wrong
    Python type, here an int where a sequence goes, raises TypeError."""
    g = a2()
    ring = KLRRing(g)
    orient = default_orientation(g)
    calls = (lambda: shuffles(g, ("i",), 3), lambda: shuffles(g, 3, ("i",)),
             lambda: seq_enumerate(3), lambda: char_projective(ring, 3),
             lambda: pair_monomials(ring, 3, 3),
             lambda: pair_recursive(ring, 3, 3),
             lambda: ring.gdim_hom(3, 3), lambda: comultiply(g, 3),
             lambda: ring.evaluate_word(3, []),
             lambda: ring.evaluate_word(("i",), 3),
             lambda: act_word(g, orient, 3, [], {(): 1}),
             lambda: K0Vector.monomial(3), lambda: tight(ring, 3))
    for call in calls:
        with pytest.raises(TypeError):
            call()
    with pytest.raises(ValueError):
        shuffles(g, ("i",), ("k",))



def test_one_shot_iterators_give_the_tuple_answers():
    """Each entry point reads a sequence, word or weight argument once, so
    an iterator gives the answer of the tuple it yields, not the answer of
    an empty argument read after the check."""
    g = a2()
    ring = KLRRing(g)
    calls = {
        "act_word": (lambda x: act_word(g, default_orientation(g), ("i", "j"),
                                        x, {(0, 0): 1}), [("C", 1)]),
        "evaluate_word": (lambda x: ring.evaluate_word(("i", "j"), x),
                          [("C", 1)]),
        "comultiply": (lambda x: comultiply(g, x), [("i", 1), ("j", 1)]),
        "seq_enumerate": (seq_enumerate, [("i", 2)]),
        "degree_lower_bound": (degree_lower_bound, [("i", 2)]),
        "graded_basis": (lambda x: graded_basis(g, x, 2), [("i", 1)]),
        "IdealSpec": (lambda x: IdealSpec(x, []).weight, [("i", 2)]),
        "sym_plus_spec": (lambda x: quotient_gdim(
            ring, sym_plus_spec(ring, x)).total(), [("i", 2)]),
        "cyclotomic_spec": (lambda x: quotient_gdim(
            ring, cyclotomic_spec(ring, x, {"i": 2})).total(), [("i", 2)]),
    }
    for name, (call, arg) in calls.items():
        assert call(iter(arg)) == call(tuple(arg)), name


def test_plain_sequence_iterators_give_the_tuple_answers():
    """A plain sequence is read once, as a tuple, before its checks, so an
    iterator neither raises nor reads as empty."""
    g = a2()
    ring = KLRRing(g)
    orient = default_orientation(g)
    x = ring.evaluate_word(("i", "j"), [("C", 1), ("D", 1)])
    polys = [{(0, 0): 1}, {(1, 0): 2}]
    calls = {
        "shuffles": lambda s: shuffles(g, s, ("j",)),
        "shuffles (second)": lambda s: shuffles(g, ("j",), s),
        "act": lambda s: act(orient, x, s, polys[0]),
        "act_word": lambda s: act_word(g, orient, s, [("C", 1)], polys[1]),
        "act_many": lambda s: act_many(orient, x, s, polys),
    }
    for name, call in calls.items():
        assert call(iter(["i", "j"])) == call(("i", "j")), name
    with pytest.raises(GraphError):
        act(orient, x, iter(["i", "k"]), polys[0])


def test_repeated_vertex_names_the_entries_read():
    """A weight with a repeated vertex is named by its entries, in list
    form, also when it was given as an iterator."""
    message = "vertex 'i' appears twice in weight [('i', 1), ('i', 2)]"
    for weight in ([("i", 1), ("i", 2)], (("i", 1), ("i", 2)),
                   iter([("i", 1), ("i", 2)])):
        with pytest.raises(ValueError) as info:
            seq_enumerate(weight)
        assert str(info.value) == message

def test_shuffles_cardinality():
    g = a2()
    s1 = ("i", "j", "i")
    s2 = ("j", "i")
    assert len(shuffles(g, s1, s2)) == comb(5, 2)
