import json

import pytest

from klr import (
    CartanGraph,
    GraphError,
    a1xa1,
    a2,
    cycle,
    single_vertex,
    weight_add,
    weight_from_dict,
    weight_of_seq,
    weight_size,
)


def test_cartan_values():
    g = a2()
    assert g.cartan("i", "i") == 2
    assert g.cartan("i", "j") == -1
    assert g.cartan("j", "i") == -1
    assert a1xa1().cartan("i", "j") == 0


def test_cartan_symmetry_all_stock_graphs():
    for g in (single_vertex(), a2(), a1xa1(), cycle(3), cycle(5)):
        for i in g.vertices:
            assert g.cartan(i, i) == 2
            for j in g.vertices:
                assert g.cartan(i, j) == g.cartan(j, i)


def test_cartan_table_matches_edges():
    """The pairing table is symmetric, 2 on the diagonal and -1 exactly on
    the edges, whichever way and in whatever container they were given."""
    graphs = (single_vertex(), a2(), a1xa1(), cycle(3), cycle(4),
              CartanGraph(["b", "a", "c"], iter([("c", "a"), ("b", "c")])))
    for g in graphs:
        for i in g.vertices:
            for j in g.vertices:
                want = (2 if i == j
                        else -1 if frozenset((i, j)) in g.edges else 0)
                assert g.cartan(i, j) == g.cartan(j, i) == want, (g, i, j)
        for v in ("k", ("k",), 0):
            with pytest.raises(GraphError) as err:
                g.cartan(v, v)
            assert str(err.value) == f"unknown vertex {v!r}"
        with pytest.raises(GraphError) as err:
            g.cartan("y", "z")
        assert str(err.value) == "unknown vertex 'y' or 'z'"


# KL I's two relations on an ordered pair of labels (a, b), as the graph
# answers them: Q_ab with psi^2 e(ab) = Q_ab(x_1, x_2) e(ab), and the braid
# correction psi_1 psi_2 psi_1 - psi_2 psi_1 psi_2 on e(aba), each as the
# exponent vectors of its monomials
CROSSING_RELATIONS = {
    "a1": (single_vertex(), {("i", "i"): ((), ())}),
    "a2": (a2(), {
        ("i", "i"): ((), ()),
        ("i", "j"): (((1, 0), (0, 1)), ((0, 0, 0),)),
        ("j", "i"): (((1, 0), (0, 1)), ((0, 0, 0),)),
        ("j", "j"): ((), ())}),
    "a1xa1": (a1xa1(), {
        ("i", "i"): ((), ()),
        ("i", "j"): (((0, 0),), ()),
        ("j", "i"): (((0, 0),), ()),
        ("j", "j"): ((), ())}),
    "cycle3": (cycle(3), {
        ("1", "1"): ((), ()),
        ("1", "2"): (((1, 0), (0, 1)), ((0, 0, 0),)),
        ("1", "3"): (((1, 0), (0, 1)), ((0, 0, 0),)),
        ("2", "1"): (((1, 0), (0, 1)), ((0, 0, 0),)),
        ("2", "2"): ((), ()),
        ("2", "3"): (((1, 0), (0, 1)), ((0, 0, 0),)),
        ("3", "1"): (((1, 0), (0, 1)), ((0, 0, 0),)),
        ("3", "2"): (((1, 0), (0, 1)), ((0, 0, 0),)),
        ("3", "3"): ((), ())}),
}


@pytest.mark.parametrize("name", sorted(CROSSING_RELATIONS))
def test_crossing_relations_are_kl_i(name):
    """0 on equal labels, 1 for pairing 0, x_1 + x_2 on an edge; the braid
    correction is 1 on an edge and 0 otherwise.  Every ordered pair."""
    g, table = CROSSING_RELATIONS[name]
    assert set(table) == {(a, b) for a in g.vertices for b in g.vertices}
    for (a, b), (double, braid) in table.items():
        assert g.double_crossing(a, b) == double, (a, b)
        assert g.braid_correction(a, b) == braid, (a, b)
    for answer in (g.double_crossing, g.braid_correction):
        with pytest.raises(GraphError, match="unknown vertex 'z'"):
            answer(g.vertices[0], "z")
        with pytest.raises(GraphError, match="unknown vertex"):
            answer([], g.vertices[0])


def test_unknown_vertex():
    for i, j in (("i", "z"), ("z", "i"), ("z", "z")):
        with pytest.raises(GraphError) as err:
            a2().cartan(i, j)
        assert str(err.value) == "unknown vertex 'z'"
    with pytest.raises(GraphError) as err:
        a2().cartan("y", "z")
    assert str(err.value) == "unknown vertex 'y' or 'z'"
    a2().require_vertices("iji")
    with pytest.raises(GraphError):
        a2().require_vertices("ijz")
    # every label that is not a vertex is named, once each and in order,
    # and a generator of labels is read once
    with pytest.raises(GraphError) as err:
        a2().require_vertices(("k", "i", 0, "k", ("k",)))
    assert str(err.value) == "unknown vertex 'k' or 0 or ('k',)"
    a2().require_vertices(v for v in "jij")
    with pytest.raises(GraphError, match="^unknown vertex 'k'$"):
        a2().require_vertices(v for v in "ijk")


def test_graph_equality():
    """Graphs are equal when they have the same vertices and the same
    edges, whatever the order or orientation they were listed in, and equal
    graphs hash alike."""
    same = (a2(), CartanGraph(["j", "i"], [("j", "i")]),
            CartanGraph.from_json({"vertices": ["j", "i"],
                                   "edges": [["i", "j"]]}))
    for g in same:
        assert g == a2() and not g != a2() and hash(g) == hash(a2())
    assert cycle(3) == CartanGraph(["3", "1", "2"],
                                   [("1", "3"), ("3", "2"), ("2", "1")])
    for g in (a1xa1(), single_vertex(), a2("i", "k"), cycle(3),
              CartanGraph([], []), CartanGraph(["i", "j", "k"], [("i", "j")])):
        assert g != a2() and not g == a2()
    assert len({*same, a1xa1(), a1xa1()}) == 2
    assert a2() != a2().to_json() and a2() != "a2"


def test_loop_rejected():
    with pytest.raises(GraphError):
        CartanGraph(["a"], [("a", "a")])


def test_duplicate_edge_rejected():
    with pytest.raises(GraphError):
        CartanGraph(["a", "b"], [("a", "b"), ("b", "a")])
    # a repeated vertex is named, as a loop and a repeated edge are
    for vertices in (["i", "i"], ["a", "i", "b", "i", "b"]):
        with pytest.raises(GraphError) as err:
            CartanGraph(vertices, [])
        assert str(err.value) == "duplicate vertex 'i'"


def test_non_string_vertex_rejected():
    for vertices, edges in (([1, 2], [(1, 2)]), (["i", None], [])):
        with pytest.raises(GraphError) as err:
            CartanGraph(vertices, edges)
        assert "is not a string" in str(err.value)
    with pytest.raises(GraphError):
        CartanGraph.from_json({"vertices": [1, 2], "edges": [[1, 2]]})


def test_vertex_name_the_text_form_cannot_carry_rejected():
    """A vertex name is nonempty and holds no whitespace and none of the
    separators of the text form (``^`` of divided powers, ``:`` of words
    and weights, ``,`` of weights): sequences over it could not be read
    back as written.  The error names the vertex."""
    for vertices, edges in ((["a b", "c"], [("a b", "c")]), ([""], []),
                            (["a\tb"], []), (["i", " i"], []),
                            (["i\n"], []), (["i^2"], []), (["i:1"], []),
                            (["i,j"], [])):
        bad = next(v for v in vertices if v not in ("c", "i"))
        with pytest.raises(GraphError) as err:
            CartanGraph(vertices, edges)
        assert str(err.value) == (f"vertex {bad!r} is empty or holds "
                                  f"whitespace, '^', ':' or ','")
    with pytest.raises(GraphError, match="'a b' is empty or holds"):
        CartanGraph.from_json({"vertices": ["a b", "c"],
                               "edges": [["a b", "c"]]})
    # any other character may name a vertex
    assert CartanGraph(["v_1", "v(2)", "é", "11"], []).vertices == (
        "v_1", "v(2)", "é", "11")


def test_dangling_edge_rejected():
    with pytest.raises(GraphError):
        CartanGraph(["a"], [("a", "b")])


def test_edge_is_two_vertices():
    """The constructor is the one check of an edge: a list or tuple of two
    vertices, or GraphError."""
    for edge in ((["i"], "j"), ("i",), ("i", "j", "k"), "ij"):
        with pytest.raises(GraphError, match=(
                "^malformed graph object: edge .* is not a list or tuple "
                "of two vertices$")):
            CartanGraph(["i", "j"], [edge])
    for edge in (("i", "j"), ["j", "i"]):
        assert CartanGraph(["i", "j"], [edge]) == a2()


def test_json_round_trip(tmp_path):
    g = cycle(4)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(g.to_json()))
    g2 = CartanGraph.load(str(path))
    assert g2.vertices == g.vertices
    assert g2.edges == g.edges


def test_from_json_requires_lists():
    """A string of vertices is not a list of them, and an edge is a list
    of two vertices; every malformed object is a GraphError."""
    for obj in ({"vertices": "ij", "edges": []},
                {"vertices": ("i", "j"), "edges": []},
                {"vertices": ["i", "j"], "edges": "ij"},
                {"vertices": ["i", "j"], "edges": [["i", "j", "k"]]},
                {"vertices": ["i", "j"], "edges": [["i"]]},
                {"vertices": ["i", "j"], "edges": ["ij"]},
                {"vertices": ["i", "j"], "edges": [("i", "j")]},
                {"vertices": ["i", "j"], "edges": [[["i"], "j"]]},
                {"vertices": ["i", "j"]}, ["i", "j"], None):
        with pytest.raises(GraphError, match="^malformed graph object: "):
            CartanGraph.from_json(obj)
    g = CartanGraph.from_json({"vertices": ["i", "j"], "edges": [["j", "i"]]})
    assert (g.vertices, g.edges) == (a2().vertices, a2().edges)


def test_cycle_structure():
    with pytest.raises(GraphError):
        cycle(2)
    g = cycle(3)
    assert g.cartan("1", "2") == -1
    assert g.cartan("1", "3") == -1
    g4 = cycle(4)
    assert g4.cartan("1", "3") == 0
    assert g4.cartan("4", "1") == -1


def test_weights():
    w = weight_of_seq(("i", "j", "i"))
    assert w == (("i", 2), ("j", 1))
    assert weight_size(w) == 3
    assert weight_add(w, (("j", 1),)) == (("i", 2), ("j", 2))
    assert weight_from_dict({"i": 2, "j": 0}) == (("i", 2),)
