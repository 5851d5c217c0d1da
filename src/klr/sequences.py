"""Sequences of vertices, divided-power sequences, weights, shuffles,
and their text form.

A plain sequence is a tuple of vertex strings.  A divided sequence is a
tuple of (vertex, n) blocks with n >= 1; its expansion repeats each vertex
n times.  Adjacent blocks with the same vertex are allowed and kept as
written.  A weight is a tuple of (vertex, count) pairs; ``check_weight``
returns its normal form.

The text form, read and written here only, follows one rule, which
``_one_character`` decides from the graph: when every vertex of the graph
is one character, a plain sequence is juxtaposed characters, one per
vertex; over any other graph it is whitespace-separated names.

* **Reading** (``parse_seq``, ``parse_divided``) takes the graph.  Text
  with a space or a tab is always whitespace-separated names.  Text
  without one is read by the rule: one vertex per character (each with an
  optional power, as in ``i^(2)j``), or one name.  So on cycle(12),
  ``11`` is the vertex 11 and ``1 1`` is two strands.  ``parse_weight``
  reads ``i:2,j:1``.
* **Writing**: ``format_seq(seq, graph)`` writes a plain sequence by the
  rule, so on cycle(12) it writes ``1 1`` and ``11`` apart, and
  ``parse_seq`` reads back the sequence written.  ``format_divided``
  needs no graph: it always spaces its blocks, which every graph reads as
  one block each.
"""

from __future__ import annotations

import re

from .cartan import CartanGraph, check_int, check_type, weight_from_dict
from .laurent import LaurentPoly, qfact


def check_weight(weight):
    """Raise ValueError unless each entry is (vertex, n) with n an int >= 0
    (``cartan.check_int``) and no vertex is listed twice.  Returns the
    weight, read once, in its normal form (``cartan.weight_from_dict``):
    sorted by vertex, zero counts dropped."""
    entries = tuple(weight)
    counts = {}
    for v, n in entries:
        check_int(n, "vertex count", 0)
        if v in counts:
            raise ValueError(f"vertex {v!r} appears twice in weight "
                             f"{list(entries)}")
        counts[v] = n
    return weight_from_dict(counts)


def seq_enumerate(weight):
    """All sequences with the given vertex multiplicities, lexicographic.

    Raises ValueError for a bad weight (see ``check_weight``).
    """
    letters = []
    for v, n in check_weight(weight):
        letters.extend([v] * n)
    out = []

    def rec(prefix, remaining):
        if not remaining:
            out.append(tuple(prefix))
            return
        for v in sorted(set(remaining)):
            rest = list(remaining)
            rest.remove(v)
            rec(prefix + [v], rest)

    rec([], letters)
    return out


# -- divided sequences -----------------------------------------------------

def check_block(block):
    """Raise ValueError unless block is (vertex, n) with n an int >= 1.
    Returns the block.  ``cartan.check_int`` is called only for a size
    that fails the test, to build its message: the pairing routes check
    every block of both sides on each call."""
    if not (isinstance(block, tuple) and len(block) == 2):
        raise ValueError(f"divided-power block {block!r} is not "
                         f"(vertex, n)")
    n = block[1]
    if type(n) is not int or n < 1:
        check_int(n, "divided-power block size", 1)
    return block


def check_divided(divided):
    """Raise ValueError unless every block passes ``check_block``.
    Returns the blocks as a tuple, read once."""
    divided = tuple(divided)
    for block in divided:
        check_block(block)
    return divided


def expand(divided):
    """The plain sequence obtained by repeating each block's vertex; the
    blocks are not checked (see ``check_divided``)."""
    out = []
    for v, n in divided:
        out.extend([v] * n)
    return tuple(out)


def divided_weight(divided):
    """The weight of the expansion, from the block sizes."""
    counts = {}
    for v, n in divided:
        counts[v] = counts.get(v, 0) + n
    return weight_from_dict(counts)


def shift(divided):
    """Sum of n(n-1)/2 over the blocks."""
    return sum(n * (n - 1) // 2 for _, n in divided)


def factorial_poly(divided) -> LaurentPoly:
    """Product of quantum factorials [n]! over the blocks."""
    out = LaurentPoly.one()
    for _, n in divided:
        out = out * qfact(n)
    return out


def plain(seq):
    """View a plain sequence as a divided sequence of singleton blocks."""
    return tuple((v, 1) for v in seq)


def reverse(divided):
    return tuple(reversed(divided))


# -- text form (see the module docstring) ---------------------------------

def _one_character(graph):
    """Whether every vertex of graph is one character: the one rule of the
    text form, read by both readers (``_split``) and by ``format_seq``.
    Raises TypeError unless graph is a CartanGraph (``cartan.check_type``)."""
    return all(len(v) == 1 for v in check_type(CartanGraph, graph).vertices)


def _split(text, graph, piece):
    """The items of text for both readers: the whitespace-separated names
    if text has a space or a tab or the rule says names, else the matches
    of the regex piece, one character each with what it allows after
    it.  Raises TypeError unless text is a str (``cartan.check_type``)."""
    text = check_type(str, text).strip()
    if not _one_character(graph) or " " in text or "\t" in text:
        return text.split()
    return re.findall(piece, text)


def parse_seq(text, graph):
    """A plain sequence over graph, read from text."""
    return tuple(_split(text, graph, r"(?s)."))


# matched through re's own cache, so importing the library compiles no
# pattern that only text input needs
_BLOCK = r"^(?P<v>[^^\s]+)(?:\^\((?P<n>\d+)\))?$"


def parse_divided(text, graph):
    """A divided sequence over graph, read from text: blocks like i and
    j^(2).  ``check_divided`` checks the powers."""
    out = []
    for part in _split(text, graph, r"(?s).(?:\^\(\d+\))?"):
        m = re.match(_BLOCK, part)
        if not m:
            raise ValueError(f"cannot parse divided-power block {part!r}")
        out.append((m.group("v"), int(m.group("n") or 1)))
    return check_divided(out)


def parse_weight(text):
    """A weight like "i:2,j:1", checked and in normal form
    (``check_weight``)."""
    out = []
    for piece in check_type(str, text).split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise ValueError(f"weight entry {piece!r} is not vertex:count")
        v, _, n = piece.partition(":")
        try:
            out.append((v.strip(), int(n)))
        except ValueError:
            raise ValueError(f"bad multiplicity in {piece!r}") from None
    return check_weight(out)


def format_divided(divided):
    return " ".join(v if n == 1 else f"{v}^({n})" for v, n in divided)


def format_seq(seq, graph):
    """A plain sequence over graph as text: juxtaposed when every vertex
    of graph is one character, else spaced (``_one_character``)."""
    return ("" if _one_character(graph) else " ").join(seq)


# -- shuffles --------------------------------------------------------------

def shuffles(graph, seq_i, seq_j):
    """All interleavings of the two sequences with their crossing degrees.

    Returns (sequence, degree) pairs; the degree is minus the sum of the
    Cartan pairings over crossing pairs, where a crossing pair is an entry
    of ``seq_j`` placed to the left of an entry of ``seq_i``.  Each
    sequence is read once.  Raises GraphError for a label that is not a
    vertex, crossed or not, and TypeError unless graph is a CartanGraph.
    """
    seq_i, seq_j = tuple(seq_i), tuple(seq_j)
    check_type(CartanGraph, graph).require_vertices(seq_i + seq_j)
    m, n = len(seq_i), len(seq_j)
    out = []

    def rec(a, b, placed, deg):
        if a == m and b == n:
            out.append((tuple(placed), deg))
            return
        if a < m:
            # next entry from seq_i: it crosses every seq_j entry already placed
            d = deg - sum(graph.cartan(seq_i[a], seq_j[t]) for t in range(b))
            rec(a + 1, b, placed + [seq_i[a]], d)
        if b < n:
            rec(a, b + 1, placed + [seq_j[b]], deg)

    rec(0, 0, [], 0)
    return out
