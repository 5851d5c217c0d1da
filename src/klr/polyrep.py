"""The faithful polynomial representation, used as an independent oracle.

R(nu) acts on the direct sum over sequences i of polynomial rings
Z[x_1, ..., x_m].  A dot multiplies by its variable.  A crossing of labels
a, b acts by the divided difference operator (equal labels), a plain
variable swap (Q_ab = 1, or an edge oriented against the crossing), or
swap followed by multiplication by Q_ab(x_k, x_{k+1}) (an edge oriented
with the crossing), where Q_ab is the graph's double crossing
(``CartanGraph.double_crossing``), x_k + x_{k+1} on an edge.  So the two
orientations of a crossing compose to Q_ab, as psi^2 e(ab) does.  The
orientation of each edge is a choice; the ring itself does not depend on it.
One loop, ``_cross_word``, crosses a run of letters: ``act`` hands it the
whole canonical word of each permutation w of the element, and
``act_word``, the one loop over generator tokens, each crossing token.
psi_w acts linearly, so ``act`` first sums the shifted, scaled inputs
c x^u poly of all terms (i, w, u) with one w, and crosses the word of w
once per call.  Each call of ``act`` or ``act_word`` resolves the kind of
a crossing once per label pair, in a small dict, and checks an edge's
orientation then.  Each crossing is one pass over the polynomial: every
monomial is swapped and, for an oriented edge, multiplied by each
monomial of Q_ab in the same loop.  Once a polynomial is zero, the rest
of its word only moves the labels and checks the edges it crosses.
Nothing is kept from one call to the next.

``act_many`` acts on several polynomials in one call.  It tags each by its
index in one extra exponent coordinate after the strands, which no dot or
crossing reads, so the same passes carry all of them at no cost per
letter.  ``oracle_equal`` and ``klr check oracle`` act on a whole Artin
basis this way.

This module deliberately shares no code with the rewriting kernel beyond
the basis-key data and the input checks: products are *not* normalized
here, they are composed as operators, so agreement with the kernel is a
genuine cross-check.  ``act_word`` checks its tokens with
``permutations.check_tokens``, as the kernel's ``evaluate_word`` does, so
both routes accept the same generator words and reject the others with
the same errors.

The oracle is exact.  Sym(nu) is central in R(nu) (KL I, section 2), so
every element acts Sym(nu)-linearly.  Each summand Z[x]e(i) is free over
Sym(nu) on the Artin staircase monomials (``artin_basis``), and the
representation is faithful (the proof of KL I, Thm 2.5).  So two elements
are equal exactly when they agree on the Artin basis of every sequence of
their weight, which is what ``oracle_equal`` checks.

Polynomials are sparse maps exponent-tuple -> int.  An oracle vector maps
each sequence to such a polynomial.
"""

from __future__ import annotations

from itertools import product
from operator import add

from .cartan import CartanGraph, check_type
from .elements import KLRElement
from .permutations import canonical_word, check_tokens
from .sequences import seq_enumerate


def default_orientation(graph):
    """Each edge directed from the lex-smaller to the lex-larger vertex."""
    return {frozenset(e): tuple(sorted(e))
            for e in check_type(CartanGraph, graph).edges}


def reversed_orientation(graph):
    return {frozenset(e): tuple(sorted(e, reverse=True))
            for e in check_type(CartanGraph, graph).edges}


# -- sparse polynomials ----------------------------------------------------

def poly_mul_var(p, k):
    """Multiply by x_k (1-based)."""
    out = {}
    for e, c in p.items():
        e2 = list(e)
        e2[k - 1] += 1
        out[tuple(e2)] = c
    return out


def divided_difference(p, k):
    """(p - s_k p) / (x_k - x_{k+1}), term by term in closed form.

    With x = x_k, y = x_{k+1} and a > b, x^a y^b maps to
    sum_{j < a-b} x^{a-1-j} y^{b+j}; a < b gives the negative of the same
    sum with a and b exchanged, and a = b gives 0.
    """
    out = {}
    i = k - 1
    for e, c in p.items():
        a, b = e[i], e[k]
        if a == b:
            continue
        if a < b:
            a, b, c = b, a, -c
        e2 = list(e)
        for j in range(a - b):
            e2[i], e2[k] = a - 1 - j, b + j
            t = tuple(e2)
            v = out.get(t, 0) + c
            if v:
                out[t] = v
            else:
                del out[t]
    return out


# -- the action ------------------------------------------------------------

def _check_input(graph, seq, polys):
    """Raise GraphError for a label of seq that is not a vertex, TypeError
    for one of polys that is not a dict (``cartan.check_type``), and
    ValueError for a monomial of one of polys without one variable per
    strand.  Returns seq as a tuple, read once."""
    seq = tuple(seq)
    graph.require_vertices(seq)
    m = len(seq)
    for poly in polys:
        for e in check_type(dict, poly):
            if len(e) != m:
                raise ValueError(f"monomial {e} has {len(e)} variables for "
                                 f"{m} strands")
    return seq


def _along(graph, orientation, a, b):
    """The factor of a crossing of distinct labels a, b, bottom left to
    right, after its swap: the graph's Q_ab (``double_crossing``) as
    exponent pairs on (x_k, x_{k+1}) for an edge oriented from a to b,
    and False, a plain swap, for an edge oriented from b to a or labels
    with Q_ab = 1.  Raises ValueError for a pair with Q_ab != 1 whose edge
    is not oriented one of its two ways, and TypeError unless the
    orientation is a dict, which is typed here, where it is first read.
    """
    head = check_type(dict, orientation).get(frozenset((a, b)))
    if head == (b, a):
        return False
    double = graph.double_crossing(a, b)
    if head == (a, b):
        return double
    if double == ((0, 0),):
        return False
    raise ValueError(f"edge {a}-{b} is oriented as {head!r}, not as "
                     f"{(a, b)!r} or {(b, a)!r}")


def _cross_word(graph, orientation, kinds, labels, letters, poly):
    """Cross poly by each letter k (strands k, k+1) of ``letters`` in turn.

    ``labels`` is the bottom sequence as a list; it is swapped in place to
    the top sequence.  Equal labels act by the divided difference.  Other
    labels swap x_k and x_{k+1} in every monomial, and an edge oriented
    along the crossing also multiplies by Q_ab(x_k, x_{k+1}) in the same
    pass, one monomial of Q_ab at a time.  ``kinds`` maps a pair of
    distinct labels to its factor from ``_along``, filled the first time
    the pair is crossed, so the caller checks each edge's orientation once
    per call.  Once poly is zero, the rest of the word only moves the
    labels and checks the edges it crosses.
    """
    for k in letters:
        j = k - 1
        a, b = labels[j], labels[k]
        if a == b:
            if poly:
                poly = divided_difference(poly, k)
            continue
        factor = kinds.get((a, b))
        if factor is None:
            factor = kinds[a, b] = _along(graph, orientation, a, b)
        labels[j], labels[k] = b, a
        if not poly:
            continue
        out = {}
        if not factor:
            for e, c in poly.items():
                e2 = list(e)
                e2[j], e2[k] = e2[k], e2[j]
                out[tuple(e2)] = c
        else:
            for e, c in poly.items():
                e2 = list(e)
                p, q = e2[k], e2[j]
                for dp, dq in factor:
                    e2[j], e2[k] = p + dp, q + dq
                    t = tuple(e2)
                    v = out.get(t, 0) + c
                    if v:
                        out[t] = v
                    else:
                        del out[t]
        poly = out
    return poly


def act_word(graph, orientation, seq, tokens, poly):
    """Compose generator actions for a bottom-to-top token list.

    Returns (top sequence, polynomial).  The input and every token are
    checked before any token is applied, also for an empty word: GraphError
    for a label of seq that is not a vertex, ValueError for a monomial
    without one variable per strand, and from ``check_tokens``,
    GeneratorIndexError for a dot or crossing outside the strands of seq
    and ValueError for an unknown token type.  A crossed edge that the
    orientation does not orient one of its two ways raises ValueError as
    it is crossed.  Zero coefficients of poly are dropped first, as in
    ``act``, so the result has none, also for an empty word.  Raises
    TypeError unless graph is a CartanGraph.
    """
    labels = list(_check_input(check_type(CartanGraph, graph), seq, (poly,)))
    tokens = check_tokens(tokens, len(labels))
    poly = {e: c for e, c in poly.items() if c}
    kinds = {}
    for typ, k in tokens:
        if typ == "D":
            poly = poly_mul_var(poly, k)
        else:
            poly = _cross_word(graph, orientation, kinds, labels, (k,), poly)
    return tuple(labels), poly


def _act(graph, orientation, x, seq, poly, tail):
    """The action of x on a checked poly over seq, as ``act`` returns it.

    The exponents of poly may carry ``len(tail)`` coordinates after the m
    strands, which no dot or crossing reads; ``tail`` is that many zeros,
    so that a shift by u keeps them.  psi_w acts linearly, so the terms
    (seq, w, u) of one w are summed into one input, sum of c x^u poly, and
    the word of w is crossed once.
    """
    inputs = {}
    for (i, w, u), c in x.terms.items():
        if i != seq:
            continue
        p = inputs.get(w)
        if p is None:
            p = inputs[w] = {}
        shift = any(u)
        u += tail  # a shorter u would truncate the exponents
        for e, v in poly.items():
            if shift:
                e = tuple(map(add, e, u))
            v = p.get(e, 0) + c * v
            if v:
                p[e] = v
            else:
                p.pop(e, None)  # also drops a zero coefficient of poly
    out = {}
    kinds = {}
    for w, p in inputs.items():
        labels = list(seq)
        p = _cross_word(graph, orientation, kinds, labels,
                        reversed(canonical_word(w)), p)
        if not p:
            continue
        top = tuple(labels)
        target = out.get(top)
        if target is None:
            out[top] = p
            continue
        for e, v in p.items():
            v = target.get(e, 0) + v
            if v:
                target[e] = v
            else:
                del target[e]
        if not target:
            del out[top]
    return out


def act(orientation, x, seq, poly):
    """Act by a KLRElement; result is a map sequence -> polynomial.

    A term (i, w, u) with i = seq shifts the exponents by u, then crosses
    by the canonical word of w, bottom first; the terms of one w share
    that crossing.  Raises GraphError for a label of seq that is not a
    vertex, and ValueError for a monomial without one variable per strand
    or for a crossed edge that the orientation does not orient one of its
    two ways, and TypeError unless x is a KLRElement.
    """
    graph = check_type(KLRElement, x).ring.graph
    seq = _check_input(graph, seq, (poly,))
    return _act(graph, orientation, x, seq, poly, ())


def act_many(orientation, x, seq, polys):
    """Act by a KLRElement on each of several polynomials at once.

    Returns one map sequence -> polynomial per polynomial, in order, each
    equal to ``act(orientation, x, seq, poly)`` and raising its errors.
    The polynomials are tagged by their index in one extra trailing
    exponent coordinate, so a single pass crosses each word of x for all
    of them.
    """
    graph = check_type(KLRElement, x).ring.graph
    polys = list(polys)
    seq = _check_input(graph, seq, polys)
    tagged = {e + (t,): v for t, poly in enumerate(polys)
              for e, v in poly.items()}
    results = [{} for _ in polys]
    for top, p in _act(graph, orientation, x, seq, tagged, (0,)).items():
        for e, v in p.items():
            results[e[-1]].setdefault(top, {})[e[:-1]] = v
    return results


def artin_basis(seq):
    """The Artin staircase monomials of the summand Z[x_1, ..., x_m]e(seq).

    For each vertex c, the exponents on the positions labelled c run under
    the staircase (n_c - 1, ..., 1, 0): position k may carry as many as
    there are later positions with its label.  These prod_c n_c! monomials
    are a basis of the summand as a module over Sym(nu).
    """
    return list(product(*(range(seq[k + 1:].count(v) + 1)
                          for k, v in enumerate(seq))))


def oracle_equal(x, y, *, orientation=None):
    """Whether x = y in R(nu), decided by their action on a finite basis.

    Sym(nu) is central (KL I, section 2), so x - y acts Sym(nu)-linearly.
    Each summand Z[x]e(i) is free over Sym(nu) on ``artin_basis(i)``, and
    the polynomial representation is faithful (the proof of KL I, Thm
    2.5).  So x = y exactly when x - y kills the Artin basis of every
    sequence of the weight: a proof, not a sample.  Each sequence's basis
    is acted on in one ``act_many`` call.  Raises TypeError unless x and y
    are KLRElements, and WeightMismatchError, from ``x - y``, if the
    weights differ.
    """
    graph = check_type(KLRElement, x).ring.graph
    diff = x - y
    if orientation is None:
        orientation = default_orientation(graph)
    weight = x.weight if x.weight is not None else y.weight
    if weight is None:
        return True
    for seq in seq_enumerate(weight):
        if any(act_many(orientation, diff, seq,
                        [{mono: 1} for mono in artin_basis(seq)])):
            return False
    return True
