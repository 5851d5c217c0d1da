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
  through the checks in ``klr.characters``.

``run`` dispatches on the suite name.  ``import klr`` does not load this
module; the command-line tool and the tests do.
"""

from __future__ import annotations

from itertools import product

from .characters import cycle_alpha, orthogonal_idempotents_check, serre_check
from .permutations import all_permutations, canonical_word
from .polyrep import (
    act_many,
    act_word,
    artin_basis,
    default_orientation,
    reversed_orientation,
)
from .sequences import format_seq


def label_seqs(graph, m):
    """Every sequence of m vertices of the graph."""
    return list(product(graph.vertices, repeat=m))


def relations(ring):
    """All defining relations on 2 and 3 strands, every labeling.

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
        if a == b:
            expect(f"double crossing {format_seq(seq)}", dd, ring.zero())
        elif graph.cartan(a, b) == 0:
            expect(f"double crossing {format_seq(seq)}", dd,
                   ring.idempotent(seq))
        else:
            want = (ring.generator(("D", 1), seq)
                    + ring.generator(("D", 2), seq))
            expect(f"double crossing {format_seq(seq)}", dd, want)
        for k, k2 in ((1, 2), (2, 1)):
            lhs = ring.evaluate_word(seq, [("D", k), ("C", 1)])
            rhs = ring.evaluate_word(seq, [("C", 1), ("D", k2)])
            if a == b:
                corr = ring.idempotent(seq)
                want = rhs + corr if k == 1 else rhs - corr
            else:
                want = rhs
            expect(f"dot slide {format_seq(seq)} D{k}", lhs, want)
    for seq in label_seqs(graph, 3):
        a, b, c = seq
        L = ring.evaluate_word(seq, [("C", 1), ("C", 2), ("C", 1)])
        R = ring.evaluate_word(seq, [("C", 2), ("C", 1), ("C", 2)])
        if a == c and graph.cartan(a, b) == -1:
            expect(f"braid {format_seq(seq)}", L - R, ring.idempotent(seq))
        else:
            expect(f"braid {format_seq(seq)}", L - R, ring.zero())
        # distant dots commute with crossings
        lhs = ring.evaluate_word(seq, [("D", 3), ("C", 1)])
        rhs = ring.evaluate_word(seq, [("C", 1), ("D", 3)])
        expect(f"distant dot {format_seq(seq)}", lhs, rhs)
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
                    failures.append((f"word {tokens} on {format_seq(seq)}",
                                     mono))
                    break
    return failures


def _verdict(ok):
    return "PASS" if ok else "FAIL"


def run(ring, suite):
    """Run the named suite; returns (verdict lines, failures).

    suite is relations, serre, idempotents, cycle:<n> or oracle.  failures
    lists the counterexamples as (name, detail or None) pairs and is empty
    when the suite passes.  Raises ValueError for an unknown suite and for
    a graph the suite does not apply to.
    """
    graph = ring.graph
    if suite in ("relations", "oracle") and not graph.vertices:
        raise ValueError(f"graph has no vertices; {suite} suite needs one")
    if suite == "relations":
        failures = relations(ring)
        return ([f"relations on 2 and 3 strands: {_verdict(not failures)}"],
                failures)
    if suite == "oracle":
        failures = oracle(ring)
        return ([f"oracle agreement (every right step and dot slide on 2 to "
                 f"4 strands, on the Artin basis, both orientations): "
                 f"{_verdict(not failures)}"], failures)
    lines, failures = [], []
    if suite == "serre":
        if len(graph.vertices) < 2:
            raise ValueError("graph has fewer than two vertices; serre "
                             "suite needs two")
        for i in graph.vertices:
            for j in graph.vertices:
                if i >= j:
                    continue
                ok = serre_check(ring, i, j)
                lines.append(f"serre {i},{j}: {_verdict(ok)}")
                if not ok:
                    failures.append((f"serre {i},{j}", None))
    elif suite == "idempotents":
        if not graph.edges:
            raise ValueError("graph has no edges; idempotent suite needs one")
        for i, j in sorted(map(sorted, graph.edges)):
            for x, y in ((i, j), (j, i)):
                ok = orthogonal_idempotents_check(ring, x, y)
                lines.append(f"idempotents on {x}{y}{x}: {_verdict(ok)}")
                if not ok:
                    failures.append((f"idempotents {x}{y}{x}", None))
    elif suite.startswith("cycle:"):
        try:
            n = int(suite.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad cycle suite {suite!r}") from None
        alpha, sq = cycle_alpha(ring, n)
        if n % 2:
            ok = sq.is_zero()
            lines.append(f"alpha^2 = 0 {_verdict(ok)}")
        else:
            ok = sq == -2 * alpha
            lines.append(f"alpha^2 = -2*alpha {_verdict(ok)}")
        if not ok:
            failures.append((f"cycle:{n}", str(sq)))
    else:
        raise ValueError(f"unknown suite {suite!r} (relations, serre, "
                         f"idempotents, cycle:<n>, oracle)")
    return lines, failures
