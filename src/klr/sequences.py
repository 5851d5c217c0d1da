"""Sequences of vertices, divided-power sequences, and shuffles.

A plain sequence is a tuple of vertex strings.  A divided sequence is a
tuple of (vertex, n) blocks with n >= 1; its expansion repeats each vertex
n times.  Adjacent blocks with the same vertex are allowed and kept as
written.
"""

from __future__ import annotations

from .cartan import check_int, weight_from_dict
from .laurent import LaurentPoly, qfact


def check_weight(weight):
    """Raise ValueError unless each entry is (vertex, n) with n an int >= 0
    (``cartan.check_int``) and no vertex is listed twice.  Returns the
    entries as a tuple, read once."""
    entries = tuple(weight)
    seen = set()
    for v, n in entries:
        check_int(n, "vertex count", 0)
        if v in seen:
            raise ValueError(f"vertex {v!r} appears twice in weight "
                             f"{list(entries)}")
        seen.add(v)
    return entries


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


def format_divided(divided):
    return " ".join(v if n == 1 else f"{v}^({n})" for v, n in divided)


def format_seq(seq):
    """Compact form if every vertex is a single character, else spaced."""
    if all(len(v) == 1 for v in seq):
        return "".join(seq)
    return " ".join(seq)


# -- shuffles --------------------------------------------------------------

def shuffles(graph, seq_i, seq_j):
    """All interleavings of the two sequences with their crossing degrees.

    Returns (sequence, degree) pairs; the degree is minus the sum of the
    Cartan pairings over crossing pairs, where a crossing pair is an entry
    of ``seq_j`` placed to the left of an entry of ``seq_i``.  Each
    sequence is read once.  Raises GraphError for a label that is not a
    vertex, crossed or not.
    """
    seq_i, seq_j = tuple(seq_i), tuple(seq_j)
    graph.require_vertices(seq_i + seq_j)
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
