"""Loop-free simple graphs, their Cartan pairing, and weights.

The symmetric bilinear form on vertices is ``i.i = 2``, ``i.j = -1`` for an
edge, ``0`` otherwise.  A weight records how many strands carry each vertex
label; ``CartanGraph.weight_pairing`` extends the form to two weights.
``CartanGraph`` answers every graph question the other modules ask: the
pairing, equality of graphs (their pairing tables are equal) and whether
labels are vertices (one frozenset of them).  It also answers the two
relations of KL I (arXiv 0803.4121) that depend on a pair of labels, so
no other module compares a pairing with its simply-laced values:

* ``double_crossing(a, b)``, Q_ab with psi^2 e(ab) = Q_ab(x_c, x_{c+1})
  e(ab): 0 for a = b, 1 for a.b = 0 and x_c + x_{c+1} on an edge;
* ``braid_correction(a, b)``, psi_1 psi_2 psi_1 - psi_2 psi_1 psi_2 on
  e(aba): the divided difference (Q_ab(x_1, x_2) - Q_ab(x_3, x_2)) /
  (x_1 - x_3), which is 1 on an edge and 0 otherwise.

Both are sums of monomials with coefficient 1, given as their exponent
vectors on the strands they touch.

``check_int`` is the one decision of which values count as integers: every
integer parameter of the package (counts, degrees, cutoffs, powers, strand
and token indices) goes through it.  ``check_type`` is the one type check
of the package: every argument that must be an instance of a class (a
graph, a ring, an element, a spec, a character or K0 vector, a
polynomial, a dict, a text) goes through it, where the argument is first
read, and it returns the argument.  Both live here because this module
imports no other ``klr`` module, so every layer can use them.
"""

from __future__ import annotations

import json


class GraphError(ValueError):
    """Malformed graph input (a vertex that is not a string, a vertex name
    that the text form cannot carry, a repeated vertex, an edge that is
    not two vertices, a loop, a duplicate edge, an unknown vertex)."""


def check_int(n, what, low=None):
    """Return n if it is an int (a bool is not one) and n >= low; raise
    ValueError otherwise.  ``what`` names the parameter in the message,
    which is only built when the check fails, so callers pass a constant.
    """
    if type(n) is int and (low is None or n >= low):
        return n
    bound = "" if low is None else f" >= {low}"
    raise ValueError(f"{what} {n!r} is not an integer{bound}")


def check_type(cls, value):
    """Return value if it is a cls (an instance of it or of a subclass);
    otherwise raises TypeError.  It returns what it checks, as ``check_int``
    does, so an argument is typed where it is first read:
    ``check_type(CartanGraph, graph).require_vertices(seq)``."""
    if isinstance(value, cls):
        return value
    raise TypeError(f"{value!r} is not a {cls.__name__}")


class CartanGraph:
    """A finite graph without loops or multiple edges.

    Vertices are identifier strings ordered lexicographically; edges are
    unordered pairs of distinct vertices.
    """

    __slots__ = ("vertices", "edges", "_vertex_set", "_pairing", "_double",
                 "_braid")

    def __init__(self, vertices, edges):
        """Raises GraphError for a vertex that is not a string, a vertex
        name that the text form cannot carry (an empty one, or one that
        holds whitespace or one of the separators ``^``, ``:`` and ``,``
        of sequences, divided powers, words and weights), a repeated
        vertex, an edge that is not a list or tuple of two vertices, a
        loop, or a repeated edge."""
        self.vertices = tuple(vertices)
        for v in self.vertices:
            if not isinstance(v, str):
                raise GraphError(f"vertex {v!r} is not a string")
            if v.split() != [v] or any(c in v for c in "^:,"):
                raise GraphError(f"vertex {v!r} is empty or holds "
                                 f"whitespace, '^', ':' or ','")
        vset = self._vertex_set = frozenset(self.vertices)
        if len(vset) != len(self.vertices):
            dup = next(v for v in self.vertices if self.vertices.count(v) > 1)
            raise GraphError(f"duplicate vertex {dup!r}")
        seen = set()
        for e in edges:
            if not (isinstance(e, (list, tuple)) and len(e) == 2 and all(
                    isinstance(v, str) and v in vset for v in e)):
                raise GraphError(f"malformed graph object: edge {e!r} is "
                                 f"not a list or tuple of two vertices")
            a, b = e
            if a == b:
                raise GraphError(f"loop at vertex {a!r}")
            key = frozenset((a, b))
            if key in seen:
                raise GraphError(f"duplicate edge {a!r}-{b!r}")
            seen.add(key)
        self.edges = frozenset(seen)
        # the nonzero pairings only, so the table grows with the edges; it
        # holds every vertex and every edge, and is what equality compares
        self._pairing = {(v, v): 2 for v in self.vertices}
        for a, b in self.edges:
            self._pairing[a, b] = self._pairing[b, a] = -1
        # Q_ab of each pair in the pairing table (0 on one label, x_c +
        # x_{c+1} on an edge), and the braid correction derived from it,
        # (Q_ab(x_1, x_2) - Q_ab(x_3, x_2)) / (x_1 - x_3): a monomial
        # x_1^p x_2^t of Q_ab gives x_1^s x_2^t x_3^(p-1-s) for s < p.  A
        # pair missing from the table has Q_ab = 1 and no correction.
        self._double = {(a, b): () if a == b else ((1, 0), (0, 1))
                        for a, b in self._pairing}
        self._braid = {pair: tuple((s, t, p - 1 - s) for p, t in q
                                   for s in range(p))
                       for pair, q in self._double.items()}

    def __eq__(self, other):
        """Equal graphs have equal pairing tables: the same vertices and
        the same edges, listed in any order."""
        return (isinstance(other, CartanGraph)
                and self._pairing == other._pairing)

    def __hash__(self):
        return hash(frozenset(self._pairing.items()))

    def cartan(self, i, j):
        """The pairing i.j in {2, -1, 0}, read from the table of nonzero
        pairs; two vertices missing from it pair to 0, and a label that is
        not a vertex raises GraphError (``require_vertices``)."""
        try:
            value = self._pairing.get((i, j))
        except TypeError:  # an unhashable label
            value = None
        if value is None:
            self.require_vertices((i, j))
            return 0
        return value

    def double_crossing(self, a, b):
        """Q_ab, with psi^2 e(ab) = Q_ab(x_c, x_{c+1}) e(ab) (KL I), as the
        exponent pairs (on strands c, c+1) of its monomials, each with
        coefficient 1: () for a = b, ((0, 0),) for a.b = 0 and ((1, 0),
        (0, 1)) on an edge.  Raises GraphError for a label that is not a
        vertex."""
        return self._double[a, b] if self.cartan(a, b) else ((0, 0),)

    def braid_correction(self, a, b):
        """psi_1 psi_2 psi_1 - psi_2 psi_1 psi_2 on e(aba), as the exponent
        triples (on strands 1, 2, 3) of its monomials, each with
        coefficient 1: ((0, 0, 0),) on an edge and () otherwise.  It is
        the divided difference (Q_ab(x_1, x_2) - Q_ab(x_3, x_2)) / (x_1 -
        x_3) of ``double_crossing``.  Raises GraphError for a label that is
        not a vertex."""
        return self._braid[a, b] if self.cartan(a, b) else ()

    def weight_pairing(self, w1, w2):
        """The pairing of two weights, sum n n' (v.v') over their entries
        (v, n) and (v', n')."""
        return sum(n1 * n2 * self.cartan(v1, v2)
                   for v1, n1 in w1 for v2, n2 in w2)

    def require_vertices(self, labels):
        """Raise GraphError unless every label is a vertex, naming each
        label that is not one: a label that is not a string, hashable or
        not, is not a vertex."""
        labels = tuple(labels)
        try:
            if self._vertex_set.issuperset(labels):  # one test in C
                return
        except TypeError:  # an unhashable label
            pass
        unknown = (v for v in labels
                   if not (isinstance(v, str) and v in self._vertex_set))
        raise GraphError("unknown vertex "
                         + " or ".join(dict.fromkeys(map(repr, unknown))))

    def to_json(self):
        return {"vertices": list(self.vertices),
                "edges": [sorted(e) for e in sorted(self.edges, key=sorted)]}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json.  Raises GraphError unless obj has a list of
        vertices and a list of edges, each a list (a JSON array, as to_json
        writes it); the constructor checks that each edge is two
        vertices."""
        try:
            vertices, edges = obj["vertices"], obj["edges"]
            if not (type(vertices) is type(edges) is list
                    and all(type(e) is list for e in edges)):
                raise GraphError("malformed graph object: vertices and "
                                 "edges must be lists, each edge [a, b]")
            return CartanGraph(vertices, edges)
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph object: {exc}")

    @staticmethod
    def load(path):
        with open(path) as fh:
            return CartanGraph.from_json(json.load(fh))

    def __repr__(self):
        return f"CartanGraph({self.vertices!r}, {sorted(map(sorted, self.edges))!r})"


# -- stock graphs used throughout the tests and docs -----------------------

def single_vertex(name="i"):
    return CartanGraph([name], [])


def a2(i="i", j="j"):
    """Two vertices joined by an edge."""
    return CartanGraph([i, j], [(i, j)])


def a1xa1(i="i", j="j"):
    """Two isolated vertices."""
    return CartanGraph([i, j], [])


def cycle(n):
    """The n-cycle with vertices '1'..'n'.  Raises ValueError for an n
    that is not an int and GraphError for n < 3."""
    if check_int(n, "cycle length") < 3:
        raise GraphError("cycle requires n >= 3")
    verts = [str(k) for k in range(1, n + 1)]
    edges = [(verts[k], verts[(k + 1) % n]) for k in range(n)]
    return CartanGraph(verts, edges)


# -- weights ---------------------------------------------------------------

def weight_of_seq(seq):
    """Multiplicity map of a sequence of vertices, as a sorted tuple of pairs."""
    counts = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


def weight_size(weight):
    return sum(n for _, n in weight)


def weight_add(w1, w2):
    counts = dict(w1)
    for v, n in w2:
        counts[v] = counts.get(v, 0) + n
    return weight_from_dict(counts)


def weight_from_dict(d):
    """The weight of a {vertex: count} dict, in the one normal form of a
    weight: (vertex, count) pairs sorted by vertex, zero counts dropped."""
    return tuple(sorted((v, n) for v, n in check_type(dict, d).items() if n))
