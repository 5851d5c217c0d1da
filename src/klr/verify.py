"""Verification suites behind ``klr check``.

Each suite checks a ring against an independent statement of what it
should compute:

* ``relations``: the defining local relations of KL I (arXiv 0803.4121) on
  every labeling of 2 and 3 strands;
* ``oracle``: the rewriting kernel against the faithful polynomial
  representation, on every right step and every dot slide of at most 4
  strands, acting on the Artin basis over Sym(nu), in both orientations;
* ``serre``, ``idempotents``, ``cycle:<n>``: the Serre identities in K0, the
  splitting of 1_iji into orthogonal idempotents, and the cycle phenomenon,
  through the checks in ``klr.characters``;
* ``pairing:<nu>``: the two routes of the bilinear form, the hom-space DP
  (``pair_monomials``) against the coproduct recursion
  (``pair_recursive``), on every pair of divided monomials of weight nu.

``SUITES`` is the one table of them, keyed by the names that ``klr check``
takes; ``run`` looks a suite up there, and the command-line help and the
unknown-suite error list its keys.  ``import klr`` does not load this
module; the command-line tool and the tests do.
"""

from __future__ import annotations

from itertools import product

from .characters import (
    cycle_alpha,
    orthogonal_idempotents_check,
    pair_monomials,
    pair_recursive,
    serre_check,
)
from .permutations import all_permutations, apply_perm_to_seq, canonical_word
from .polyrep import (
    act_many,
    act_word,
    artin_basis,
    default_orientation,
    reversed_orientation,
)
from .sequences import format_divided, format_seq, parse_weight


def label_seqs(graph, m):
    """Every sequence of m vertices of the graph."""
    return list(product(graph.vertices, repeat=m))


def relations(ring):
    """All defining relations on 2 and 3 strands, every labeling.

    The double crossing and the braid relation expect the dots that the
    graph answers for their labels (``CartanGraph.double_crossing`` and
    ``braid_correction``); the dot slides and distant dots are the same on
    every graph.

    Returns the failures as (relation, element found) pairs.
    """
    graph = ring.graph
    failures = []

    def expect(name, got, want):
        if got != want:
            failures.append((name, got))

    for seq in label_seqs(graph, 2):
        a, b = seq
        dd = ring.evaluate_word(seq, [("C", 1), ("C", 1)])
        expect(f"double crossing {format_seq(seq, graph)}", dd,
               ring.element({(seq, (0, 1), u): 1
                             for u in graph.double_crossing(a, b)}))
        for k, k2 in ((1, 2), (2, 1)):
            lhs = ring.evaluate_word(seq, [("D", k), ("C", 1)])
            rhs = ring.evaluate_word(seq, [("C", 1), ("D", k2)])
            if a == b:
                corr = ring.idempotent(seq)
                want = rhs + corr if k == 1 else rhs - corr
            else:
                want = rhs
            expect(f"dot slide {format_seq(seq, graph)} D{k}", lhs, want)
    for seq in label_seqs(graph, 3):
        a, b, c = seq
        L = ring.evaluate_word(seq, [("C", 1), ("C", 2), ("C", 1)])
        R = ring.evaluate_word(seq, [("C", 2), ("C", 1), ("C", 2)])
        corr = graph.braid_correction(a, b) if a == c else ()
        expect(f"braid {format_seq(seq, graph)}", L - R,
               ring.element({(seq, (0, 1, 2), u): 1 for u in corr}))
        # distant dots commute with crossings
        lhs = ring.evaluate_word(seq, [("D", 3), ("C", 1)])
        rhs = ring.evaluate_word(seq, [("C", 1), ("D", 3)])
        expect(f"distant dot {format_seq(seq, graph)}", lhs, rhs)
    return failures


def oracle(ring):
    """Kernel products against the polynomial representation.

    The kernel builds every product from right steps psi_w e(i) . psi_c,
    one table entry per (c, i, w), and from the closed-form dot slide of
    ``KLRRing._right_word``.  For m = 2 to 4 strands, every letter c and
    every sequence, two kinds of word are checked, tokens bottom to top:
    the step word, canonical(w) with psi_c below it, for every permutation
    w (its letters above psi_c are direct steps, so the word reads the
    entry (c, i, w)); and the dot word, x_c^a x_{c+1}^b over psi_c, with
    a, b <= 2.  Each word is evaluated in the kernel, and its action on
    the Artin basis of its source sequence, in one ``act_many`` call per
    orientation, is compared with the word applied generator by generator
    to each basis monomial.  Both sides act Sym(nu)-linearly (see
    ``klr.polyrep``), so agreement on that basis is agreement as
    operators; the representation is faithful, so agreement proves each
    table entry on at most 4 strands.  Returns the failures as (word,
    monomial) pairs, with the first failing monomial of each word and
    orientation.
    """
    graph = ring.graph
    failures = []
    orientations = [default_orientation(graph), reversed_orientation(graph)]
    cases = []
    for m in (2, 3, 4):
        steps = [[("C", k) for k in reversed(canonical_word(w))]
                 for w in all_permutations(m)]
        for c in range(1, m):
            dots = [[("D", c)] * a + [("D", c + 1)] * b
                    for a in range(3) for b in range(3)]
            cases += [(seq, [("C", c)] + word)
                      for seq in label_seqs(graph, m) for word in steps + dots]
    for seq, tokens in cases:
        elem = ring.evaluate_word(seq, tokens)
        basis = artin_basis(seq)
        for orient in orientations:
            gots = act_many(orient, elem, seq, [{mono: 1} for mono in basis])
            for mono, got in zip(basis, gots):
                want_seq, want = act_word(graph, orient, seq, tokens,
                                          {mono: 1})
                want_map = {want_seq: want} if want else {}
                if got != want_map:
                    failures.append(
                        (f"word {tokens} on {format_seq(seq, graph)}", mono))
                    break
    return failures


def _whole(check, verdict):
    """The suite that runs check(ring), which returns a list of failures,
    on a graph with a vertex, under one verdict line."""
    def suite(ring, _arg):
        if not ring.graph.vertices:
            raise ValueError(f"graph has no vertices; {check.__name__} "
                             f"suite needs one")
        failures = check(ring)
        return [f"{verdict}: {'FAIL' if failures else 'PASS'}"], failures
    return suite


def _verdicts(cases):
    """One verdict line per (line, counterexample name, ok) case, and the
    failures."""
    lines, failures = [], []
    for line, name, ok in cases:
        lines.append(f"{line}: {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append((name, None))
    return lines, failures


def _serre(ring, _arg):
    vertices = ring.graph.vertices
    if len(vertices) < 2:
        raise ValueError("graph has fewer than two vertices; serre suite "
                         "needs two")
    return _verdicts((f"serre {i},{j}", f"serre {i},{j}",
                      serre_check(ring, i, j))
                     for i, j in product(vertices, repeat=2) if i < j)


def _idempotents(ring, _arg):
    graph = ring.graph
    if not graph.edges:
        raise ValueError("graph has no edges; idempotent suite needs one")
    return _verdicts((f"idempotents on {text}", f"idempotents {text}",
                      orthogonal_idempotents_check(ring, x, y))
                     for i, j in sorted(map(sorted, graph.edges))
                     for x, y in ((i, j), (j, i))
                     for text in (format_seq((x, y, x), graph),))


def _cycle(ring, arg):
    try:
        n = int(arg)
    except ValueError:
        raise ValueError(f"bad cycle suite {'cycle:' + arg!r}") from None
    alpha, sq = cycle_alpha(ring, n)
    # alpha's defining properties: a degree-0 endomorphism of its
    # sequence, which with 1 spans the degree-0 sector
    (seq, w, _), = alpha.terms
    degree, sector = alpha.degree(), ring.gdim_hom(seq, seq).series(0)[0]
    if not (degree == 0 and apply_perm_to_seq(w, seq) == seq and sector == 2):
        return (["alpha spans the degree-0 endomorphisms with 1: FAIL"],
                [(f"cycle:{n}", f"alpha of degree {degree}, degree-0 "
                                f"dimension {sector}")])
    want, text = (0, "0") if n % 2 else (-2 * alpha, "-2*alpha")
    failures = [] if sq == want else [(f"cycle:{n}", str(sq))]
    return [f"alpha^2 = {text} {'FAIL' if failures else 'PASS'}"], failures


def _divided_monomials(weight):
    """Every divided sequence of the weight, a tuple of blocks (v, n) with
    n >= 1, adjacent blocks on one vertex included."""
    left, out, blocks = dict(weight), [], []

    def extend():
        if not any(left.values()):
            out.append(tuple(blocks))
        for v in sorted(left):
            for n in range(1, left[v] + 1):
                left[v] -= n
                blocks.append((v, n))
                extend()
                blocks.pop()
                left[v] += n

    extend()
    return out


def _pairing(ring, arg):
    weight = parse_weight(arg)
    if not weight:
        raise ValueError("pairing suite needs a nonzero weight")
    ring.graph.require_vertices(v for v, _ in weight)
    monos = _divided_monomials(weight)
    failures = []
    for t1 in monos:
        for t2 in monos:
            hom = pair_monomials(ring, t1, t2)
            cop = pair_recursive(ring, t1, t2)
            if hom != cop:
                failures.append(
                    (f"pairing ({format_divided(t1)}, {format_divided(t2)})",
                     f"{hom} by the hom route, {cop} by the coproduct"))
    text = ",".join(f"{v}:{n}" for v, n in weight)
    n = len(monos)
    return ([f"pairing routes on weight {text}, {n} x {n} divided "
             f"monomials: {'FAIL' if failures else 'PASS'}"], failures)


# Each suite maps (ring, arg) to (verdict lines, failures), under the name
# that ``klr check`` takes; arg is the text after the first colon of a
# name "<suite>:<arg>", and empty for a name without a colon.
SUITES = {
    "relations": _whole(relations, "relations on 2 and 3 strands"),
    "serre": _serre,
    "idempotents": _idempotents,
    "cycle:<n>": _cycle,
    "oracle": _whole(oracle, "oracle agreement (every right step and dot "
                     "slide on 2 to 4 strands, on the Artin basis, both "
                     "orientations)"),
    "pairing:<nu>": _pairing,
}


def run(ring, suite):
    """Run a suite of ``SUITES``; returns (verdict lines, failures).

    The suite is split at its first colon, once, into a name and an
    argument, and runs the table entry whose key splits into the same name
    (and colon, if any): "cycle:3" runs "cycle:<n>" with n = 3.  failures
    lists the counterexamples as (name, detail or None) pairs and is empty
    when the suite passes.  Raises ValueError for an unknown suite, naming
    the table's keys, and for a graph the suite does not apply to.
    """
    name, colon, arg = suite.partition(":")
    for key, check in SUITES.items():
        if key.partition(":")[:2] == (name, colon):
            return check(ring, arg)
    raise ValueError(f"unknown suite {suite!r} ({', '.join(SUITES)})")
