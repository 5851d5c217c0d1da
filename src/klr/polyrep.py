"""The faithful polynomial representation, used as an independent oracle.

R(nu) acts on the direct sum over sequences i of polynomial rings
Z[x_1, ..., x_m].  A dot multiplies by its variable.  A crossing acts by the
divided difference operator (equal labels), a plain variable swap (pairing
0, or an edge oriented against the crossing), or swap followed by
multiplication by x_k + x_{k+1} (an edge oriented with the crossing).  The
orientation of each edge is a choice; the ring itself does not depend on it.

This module deliberately shares no code with the rewriting kernel beyond
the basis-key data: products are *not* normalized here, they are composed
as operators, so agreement with the kernel is a genuine cross-check.

Polynomials are sparse maps exponent-tuple -> int.  An oracle vector maps
each sequence to such a polynomial.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from operator import add

from .permutations import canonical_word


def default_orientation(graph):
    """Each edge directed from the lex-smaller to the lex-larger vertex."""
    return {frozenset(e): tuple(sorted(e)) for e in graph.edges}


def reversed_orientation(graph):
    return {frozenset(e): tuple(sorted(e, reverse=True)) for e in graph.edges}


# -- sparse polynomials ----------------------------------------------------

def poly_add(p, q, scalar=1):
    out = dict(p)
    for e, c in q.items():
        v = out.get(e, 0) + scalar * c
        if v:
            out[e] = v
        else:
            out.pop(e, None)
    return out


def poly_mul_var(p, k):
    """Multiply by x_k (1-based)."""
    out = {}
    for e, c in p.items():
        e2 = list(e)
        e2[k - 1] += 1
        out[tuple(e2)] = c
    return out


def poly_swap(p, k):
    """Exchange the variables x_k and x_{k+1}; a bijection on monomials."""
    out = {}
    for e, c in p.items():
        e2 = list(e)
        e2[k - 1], e2[k] = e2[k], e2[k - 1]
        out[tuple(e2)] = c
    return out


def divided_difference(p, k):
    """(p - s_k p) / (x_k - x_{k+1}), term by term in closed form.

    With x = x_k, y = x_{k+1} and a > b, x^a y^b maps to
    sum_{j < a-b} x^{a-1-j} y^{b+j}; a < b gives the negative of the same
    sum with a and b exchanged, and a = b gives 0.
    """
    out = {}
    for e, c in p.items():
        a, b = e[k - 1], e[k]
        if a < b:
            a, b, c = b, a, -c
        e2 = list(e)
        for j in range(a - b):
            e2[k - 1], e2[k] = a - 1 - j, b + j
            t = tuple(e2)
            v = out.get(t, 0) + c
            if v:
                out[t] = v
            else:
                del out[t]
    return out


# -- the action ------------------------------------------------------------

def act_generator(graph, orientation, token, seq, poly):
    """Act by one generator on a polynomial over one sequence.

    Returns (new_sequence, new_polynomial).
    """
    typ, k = token
    seq = tuple(seq)
    if typ == "D":
        return seq, poly_mul_var(poly, k)
    if typ != "C":
        raise ValueError(f"unknown token type {typ!r}")
    a, b = seq[k - 1], seq[k]
    lst = list(seq)
    lst[k - 1], lst[k] = lst[k], lst[k - 1]
    new_seq = tuple(lst)
    if a == b:
        return seq, divided_difference(poly, k)
    pairing = graph.cartan(a, b)
    if pairing == 0:
        return new_seq, poly_swap(poly, k)
    tail, head = orientation[frozenset((a, b))]
    swapped = poly_swap(poly, k)
    if (a, b) == (tail, head):
        # edge oriented with the bottom labels: swap then multiply
        return new_seq, poly_add(poly_mul_var(swapped, k),
                                 poly_mul_var(swapped, k + 1))
    return new_seq, poly_swap(poly, k)


def act_term(graph, orientation, key, seq, poly):
    """Act by a single basis key (i, w, u) on poly over seq; None if i != seq."""
    i, w, u = key
    if i != tuple(seq):
        return None
    cur_seq, cur = i, poly
    if any(u):
        cur = {tuple(map(add, e, u)): c for e, c in poly.items()}
    for letter in reversed(canonical_word(w)):
        cur_seq, cur = act_generator(graph, orientation, ("C", letter),
                                     cur_seq, cur)
    return cur_seq, cur


def act(orientation, x, seq, poly):
    """Act by a KLRElement; result is a map sequence -> polynomial."""
    graph = x.ring.graph
    out = {}
    for key, c in x.terms.items():
        res = act_term(graph, orientation, key, seq, poly)
        if res is None:
            continue
        new_seq, p = res
        out[new_seq] = poly_add(out.get(new_seq, {}), p, c)
    return {s: p for s, p in out.items() if p}


def act_word(graph, orientation, seq, tokens, poly):
    """Compose generator actions for a bottom-to-top token list."""
    cur_seq, cur = tuple(seq), poly
    for token in tokens:
        cur_seq, cur = act_generator(graph, orientation, token, cur_seq, cur)
    return cur_seq, cur


def monomials_up_to(m, degree_bound):
    """All exponent tuples of length m with total degree <= degree_bound."""
    out = [(0,) * m]
    for d in range(1, degree_bound + 1):
        for combo in combinations_with_replacement(range(m), d):
            e = [0] * m
            for pos in combo:
                e[pos] += 1
            out.append(tuple(e))
    return out


def oracle_equal(x, y, degree_bound=3, orientation=None):
    """Compare two elements by their action on low-degree monomials.

    Checks every source sequence of the common weight and every monomial of
    total degree up to the bound; a sampling check, not a proof.
    """
    ring = x.ring
    graph = ring.graph
    if orientation is None:
        orientation = default_orientation(graph)
    weight = x.weight or y.weight
    if weight is None:
        return True
    wy = y.weight
    if wy is not None and wy != weight:
        raise ValueError("weight mismatch in oracle comparison")
    from .sequences import seq_enumerate
    m = sum(n for _, n in weight)
    diff = x - y
    for seq in seq_enumerate(weight):
        for mono in monomials_up_to(m, degree_bound):
            if act(orientation, diff, seq, {mono: 1}):
                return False
    return True
