"""Normal-form arithmetic in the diagram ring R(nu) of a Cartan graph.

Elements are integer combinations of basis keys (i, w, u): bottom sequence
i, permutation w rendered as the crossings of its canonical (lex-min)
reduced word, and a monomial of dots x^u at the bottom, i.e. the KL I basis
psi_w x^u e(i).  Diagrams are rewritten into this basis with the local
relations:

* a double crossing on labels a, b is Q_ab(x_c, x_{c+1}), as the graph
  answers it (``CartanGraph.double_crossing``): 0 (equal labels), the
  identity (pairing 0), or a sum of two single dots (an edge);
* dots slide freely through distinct-label crossings, and through an
  equal-label crossing by the one dot slide x_c psi_c = psi_c x_{c+1} + 1;
* two reduced words of the same permutation differ by braid moves, and a
  braid move on outer labels a and middle label b costs +/- the diagram
  with the three crossings deleted, times the graph's braid correction
  (``CartanGraph.braid_correction``): 1 on an edge, 0 otherwise.

Every product is built from the outside in, as a right word: keys are
multiplied on the right by crossings, top to bottom (``_right_word``), and
dots below them are shifted in.  One right step slides the dots of a key
down through the new crossing in closed form (a divided difference on
equal labels), so the crossings above stay on top and a term they kill
dies at once.  ``multiply``, ``psi`` and ``evaluate_word`` are all built
this way, and a dot at the bottom (``_dot``) only shifts the dot vector.
The dot-free part psi_w psi_c is computed by ``_cross``; dots at the bottom
commute with everything below them, so it ignores the dot vector and the
shift is applied afterwards.

Canonicalization also works from the bottom.  Canonical words are closed
under prefixes (see ``permutations``), so a right step that keeps the
canonical word of w plus c canonical is a single term, built directly and
not cached.  Only the steps that need rewriting are cached, per (letter,
sequence, permutation), each as one flat tuple (j1, v1, u1, k1, j2, ...)
of its terms, and the entries share one copy of each sequence,
permutation and dot vector they hold.  ``_bring_to_back`` moves a chosen
right descent to the bottom of a reduced word by commutation and braid
moves and returns their corrections as normal-form terms;
``_reduced_word_elem`` takes one right step from the canonical prefix.
When a right step shortens the permutation, ``_bring_to_back`` exposes the
double crossing psi_c psi_c at the bottom, which the graph's Q_ab turns
into dots on strands c and c+1.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

from .cartan import CartanGraph, check_int, check_type, weight_of_seq
from .gdim import GradedDim
from .laurent import LaurentPoly, format_sum, qmultinomial
from .permutations import (
    apply_perm_to_seq,
    apply_word_to_seq,
    block_sum,
    canonical_word,
    check_tokens,
    identity,
    inversions,
    longest_element,
    right_mult_letter,
    word_to_perm,
)
from .sequences import (
    check_divided,
    divided_weight,
    format_seq,
    plain,
    seq_enumerate,
)


class WeightMismatchError(ValueError):
    """Operands live over different weights, or in rings over different
    graphs."""


class InhomogeneousError(ValueError):
    """Degree requested for a zero or inhomogeneous element."""


def _check_rings(graph, *elements):
    """Raise TypeError for an argument that is not a KLRElement
    (``cartan.check_type``), and WeightMismatchError unless every element
    is in the ring over graph, or over an equal graph
    (``CartanGraph.__eq__``)."""
    for x in elements:
        ring_graph = check_type(KLRElement, x).ring.graph
        if ring_graph is not graph and ring_graph != graph:
            raise WeightMismatchError("elements of rings over other graphs")


def _check_weights(graph, x, y):
    """Raise WeightMismatchError unless x and y are elements of the ring
    over graph (see ``_check_rings``) and have the same weight (the zero
    element has every weight)."""
    _check_rings(graph, x, y)
    wx, wy = x.weight, y.weight
    if wx is not None and wy is not None and wx != wy:
        raise WeightMismatchError(f"weights differ: {wx} vs {wy}")


def diagram_degree(graph, seq, w):
    """Sum of -(i_a . i_b) over the inversions of w on the labeled strands.
    Raises ValueError unless w is a tuple that permutes range(len(seq)),
    GraphError for a label of seq that is not a vertex, crossed or not
    (``CartanGraph.require_vertices``, one subset test), and TypeError
    unless graph is a CartanGraph."""
    if type(w) is not tuple or sorted(w) != list(range(len(seq))):
        raise ValueError(f"{w!r} is not a permutation of {len(seq)} strands")
    check_type(CartanGraph, graph).require_vertices(seq)
    return -sum(graph.cartan(seq[a], seq[b]) for a, b in inversions(w))


def _runs(theta):
    """The runs of a checked divided sequence, its maximal stretches of
    blocks on one vertex, as (label, length) pairs, and whether a run holds
    more than one block.  Unsplit, the runs are theta itself."""
    runs, last = [], None
    for v, n in theta:
        if v == last:
            runs[-1] = (v, runs[-1][1] + n)
        else:
            runs.append((v, n))
            last = v
    if len(runs) == len(theta):
        return theta, False
    return tuple(runs), True


def _split_factor(theta):
    """The product of the quantum multinomials [r]! / prod [n_b]! of the
    runs of theta that hold more than one block; theta must have one."""
    factors, last, sizes = [], None, []
    for v, n in (*theta, (None, 0)):
        if v != last:
            if len(sizes) > 1:
                factors.append(qmultinomial(sizes))
            last, sizes = v, []
        sizes.append(n)
    return reduce(mul, factors)


def _placed(u, k, m):
    """The dot vector on m strands that is u on strands k, k+1, ..."""
    return (0,) * (k - 1) + u + (0,) * (m - k + 1 - len(u))


def _acc(target, terms, scalar=1, u=()):
    """target += scalar * terms * x^u; x^u shifts the dot vector of each key."""
    get = target.get
    shift = any(u)
    for key, c in terms.items():
        if shift:
            i, w, uu = key
            key = (i, w, tuple(map(add, uu, u)))
        v = get(key, 0) + scalar * c
        if v:
            target[key] = v
        else:
            target.pop(key, None)


class KLRElement:
    """An element of R(nu) in normal form (immutable by convention).

    ``KLRElement(ring, terms)`` is the raw constructor: terms is a dict
    from valid basis keys to nonzero ints, kept as the element's own, so
    the caller must not change it afterwards.  ``KLRRing.element`` is the
    checked path for outside input.
    """

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @property
    def weight(self):
        for (i, _, _) in self.terms:
            return weight_of_seq(i)
        return None

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if type(other) is int and other == 0:
            return not self.terms
        if not isinstance(other, KLRElement):
            return NotImplemented
        # elements of rings over unequal graphs are never equal
        return self.terms == other.terms and self.ring.graph == other.ring.graph

    def __hash__(self):
        # the zero element equals, so hashes as, 0
        return hash(frozenset(self.terms.items())) if self.terms else 0

    def __add__(self, other):
        if not isinstance(other, KLRElement):
            return NotImplemented
        _check_weights(self.ring.graph, self, other)
        out = dict(self.terms)
        _acc(out, other.terms)
        return KLRElement(self.ring, out)

    def __neg__(self):
        return KLRElement(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, KLRElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, KLRElement):
            return self.ring.multiply(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        if type(other) is not int:  # a bool is not an int (check_int)
            return NotImplemented
        if not other:
            return KLRElement(self.ring, {})
        return KLRElement(self.ring, {k: c * other for k, c in self.terms.items()})

    def degree(self):
        """Common degree of all terms; raises if zero or inhomogeneous."""
        degs = {diagram_degree(self.ring.graph, i, w) + 2 * sum(u)
                for (i, w, u) in self.terms}
        if not degs:
            raise InhomogeneousError("degree of the zero element is undefined")
        if len(degs) > 1:
            raise InhomogeneousError(
                f"element has terms in degrees {sorted(degs)}")
        return degs.pop()

    # -- io ----------------------------------------------------------------

    def to_json(self):
        return [{"source": list(i),
                 "permutation": [x + 1 for x in w],
                 "dots": list(u),
                 "coeff": str(c)}
                for (i, w, u), c in sorted(self.terms.items())]

    def __str__(self):
        graph = self.ring.graph

        def term(key):
            i, w, u = key
            factors = [f"s{l}" for l in canonical_word(w)]
            factors += [f"x{p+1}" if e == 1 else f"x{p+1}^{e}"
                        for p, e in enumerate(u) if e]
            body = "*".join(factors) if factors else "1"
            return self.terms[key], f"{body}[{format_seq(i, graph)}]"

        return format_sum(map(term, sorted(
            self.terms, key=lambda k: (k[0], k[1], tuple(-x for x in k[2])))))

    __repr__ = __str__


class KLRRing:
    """The rings R(nu) for all weights over a fixed Cartan graph."""

    def __init__(self, graph):
        """Raises TypeError unless graph is a CartanGraph."""
        self.graph = check_type(CartanGraph, graph)
        # (c, i, w) -> normal form of psi_w e(i) with crossing c below it,
        # as one flat tuple (j1, v1, u1, k1, j2, ...) of its terms, for the
        # right steps that need rewriting (see ``_cross``); its keys and
        # terms share one copy of each sequence, permutation and dot
        # vector, the one that ``_parts`` maps it to
        self._cross_cache = {}
        self._parts = {}
        # (theta, plain sequence) -> pairing numerator; see characters._pair_plain
        self._pair_cache = {}
        # (seq_j, runs of the source) -> numerator of the hom DP before
        # the multinomials of its block split; see _gdim_hom
        self._hom_cache = {}
        # reads that found an entry
        self._cross_hits = self._pair_hits = self._hom_hits = 0
        self._direct_steps = 0  # right steps that are one key, not cached
        self._terms_read = 0  # terms read by the right-crossing steps

    def stats(self):
        """Work done so far: the sizes of the cross, pair and hom caches,
        their ``hits`` (reads that found an entry), ``direct_steps`` and
        ``terms_read``.

        A right step that keeps the canonical word is one key: ``_cross``
        builds it directly, reads and writes no cache, and counts it in
        ``direct_steps``.  Only the other steps, which need rewriting,
        reach the cross cache, and a miss adds one entry, so every
        ``_cross`` call is a hit, a new entry or a direct step.
        ``terms_read`` is the number of terms read by every right-crossing
        step, whether of ``multiply``, ``psi``, ``evaluate_word`` or the
        kernel's own canonicalization."""
        caches = {"cross": len(self._cross_cache),
                  "pair": len(self._pair_cache),
                  "hom": len(self._hom_cache)}
        hits = {"cross": self._cross_hits, "pair": self._pair_hits,
                "hom": self._hom_hits}
        return {"caches": caches, "hits": hits,
                "direct_steps": self._direct_steps,
                "terms_read": self._terms_read}

    # -- constructors ------------------------------------------------------

    def element(self, terms):
        """The element sum c psi_w x^u e(i) over the items ((i, w, u), c)
        of terms, each key checked once.  i, w and u are tuples of one
        length m, i holds vertices (GraphError), w is a permutation of
        range(m), u holds ints >= 0 and c is an int (``cartan.check_int``,
        so a bool is not one); terms of different weights raise
        WeightMismatchError.  Every error is a ValueError, except the
        TypeError for terms that have no ``items()``.  The items are read
        once; a zero coefficient is dropped, and the element keeps a copy.
        ``KLRElement(ring, terms)`` is the raw constructor, for keys
        already known to be valid.
        """
        try:
            items = tuple(terms.items())
        except AttributeError:
            raise TypeError(f"terms must be a mapping, not {terms!r}") from None
        for (i, w, u), c in items:
            if not (type(i) is type(w) is type(u) is tuple
                    and len(w) == len(u) == len(i)):
                raise ValueError(f"basis key {(i, w, u)!r} is not three "
                                 f"tuples of one length")
            self.graph.require_vertices(i)
            check_int(c, "coefficient")
            for x, e in zip(w, u):
                check_int(x, "permutation entry")
                check_int(e, "dot exponent", 0)
            if sorted(w) != list(range(len(w))):
                raise ValueError(f"{w} is not a permutation")
        if len({tuple(sorted(i)) for (i, _, _), _ in items}) > 1:
            raise WeightMismatchError("terms have different weights")
        return KLRElement(self, {k: c for k, c in items if c})

    def zero(self):
        return KLRElement(self, {})

    def element_from_json(self, data):
        """Inverse of KLRElement.to_json: reads the JSON shape, converts
        the 1-based permutation and the decimal coefficient, and leaves
        every check of the keys to ``element``.

        Raises ValueError on malformed input: data that is not a list of
        term objects with the keys source, permutation, dots and coeff,
        list values holding no list or object, a permutation entry that is
        not an int, or a coefficient that is not a decimal integer.
        """
        if not (isinstance(data, list)
                and all(isinstance(obj, dict) for obj in data)):
            raise ValueError("an element is a JSON list of term objects")
        terms = {}
        for obj in data:
            try:
                seq, perm, dots, coeff = (obj["source"], obj["permutation"],
                                          obj["dots"], obj["coeff"])
            except KeyError as exc:
                raise ValueError(f"term is missing key {exc}") from None
            if not all(isinstance(x, list) for x in (seq, perm, dots)) or any(
                    isinstance(x, (list, dict)) for x in seq + dots):
                raise ValueError("source, permutation and dots must be lists "
                                 "holding no lists or objects")
            key = (tuple(seq), tuple(check_int(x, "permutation entry") - 1
                                     for x in perm), tuple(dots))
            # to_json writes a decimal string; via str, floats are rejected
            terms[key] = terms.get(key, 0) + int(str(coeff))
        return self.element(terms)

    def idempotent(self, seq):
        return self.evaluate_word(seq, [])

    def generator(self, token, seq):
        """token = ('D', k) for a dot or ('C', k) for a crossing, 1-based."""
        return self.evaluate_word(seq, [token])

    def evaluate_word(self, seq, tokens):
        """Stack generator tokens bottom-to-top over the idempotent of seq.

        The sequence and then every token are checked first: GraphError
        for a label that is not a vertex, and from ``check_tokens``,
        GeneratorIndexError for a dot or crossing outside the strands and
        ValueError for an unknown token type.  The word is then built top
        down from its top sequence: a crossing is one right step, and a
        dot shifts the bottom dots.
        """
        seq = tuple(seq)
        self.graph.require_vertices(seq)
        m = len(seq)
        tokens = check_tokens(tokens, m)
        top = apply_word_to_seq(
            [k for typ, k in reversed(tokens) if typ == "C"], seq)
        acc = {(top, identity(m), (0,) * m): 1}
        for typ, k in reversed(tokens):
            if typ == "C":
                acc = self._right_word(acc, (k,))
            else:
                acc = self._dot(k, acc)
        return KLRElement(self, acc)

    # -- ring operations ---------------------------------------------------

    def multiply(self, x, y):
        """x * y, with x stacked on top of y.  Raises TypeError unless both
        are KLRElements, and WeightMismatchError unless both are elements
        of this ring (or of one over an equal graph) of the same weight."""
        _check_weights(self.graph, x, y)
        return KLRElement(self, self.multiply_terms(x.terms, y.terms))

    def multiply_terms(self, xterms, yterms):
        """The terms of x * y from the terms of x and y, as a new dict.

        Built from the outside in: the terms of x whose bottom is the top of
        a term of y are right-multiplied by that term's crossings, top to
        bottom, and its dots are shifted in last.  No weight check is made
        and no element is built, so it suits callers that multiply many
        term dicts of one known weight.  Raises TypeError unless both are
        dicts (``cartan.check_type``).
        """
        xitems = check_type(dict, xterms).items()
        out = {}
        for (iy, py, uy), cy in check_type(dict, yterms).items():
            top = apply_perm_to_seq(py, iy)
            acc = {k: c for k, c in xitems if k[0] == top}
            if acc:
                _acc(out, self._right_word(acc, canonical_word(py)), cy, uy)
        return out

    def psi(self, x):
        """Horizontal flip: antiautomorphism fixing idempotents and dots.
        Raises WeightMismatchError for an element of a ring over another
        graph, as every operation on elements does."""
        _check_rings(self.graph, x)
        out = {}
        for (i, w, u), c in x.terms.items():
            start = {(i, identity(len(i)), u): c}
            _acc(out, self._right_word(start, tuple(reversed(canonical_word(w)))))
        return KLRElement(self, out)

    def sigma(self, x):
        """Vertical flip with sign (-1)^(number of equal-label crossings).

        psi_w x^u e(i) goes to the mirrored canonical word of w (letter l
        becomes m - l) over the reversed sequence, with the reversed dots
        at the bottom.  Mirroring is conjugation by the longest element,
        so the word is reduced and ``_reduced_word_elem`` canonicalizes
        it.  Raises WeightMismatchError for an element of a ring over
        another graph."""
        _check_rings(self.graph, x)
        out = {}
        for (i, w, u), c in x.terms.items():
            m = len(i)
            sign = 1
            for a, b in inversions(w):
                if i[a] == i[b]:
                    sign = -sign
            i2 = tuple(reversed(i))
            word2 = tuple(m - l for l in canonical_word(w))
            _acc(out, self._reduced_word_elem(i2, word2), sign * c,
                 tuple(reversed(u)))
        return KLRElement(self, out)

    def juxtapose(self, x, y):
        """Place diagrams side by side (the non-unital inclusion).  Raises
        WeightMismatchError for an element of a ring over another graph;
        the weights may differ."""
        _check_rings(self.graph, x, y)
        # distinct pairs of keys give distinct keys, so nothing collects
        return KLRElement(self, {
            (i1 + i2, block_sum(w1, w2), u1 + u2): c1 * c2
            for (i1, w1, u1), c1 in x.terms.items()
            for (i2, w2, u2), c2 in y.terms.items()})

    def gdim_hom(self, seq_j, seq_i):
        """Graded dimension of the (j, i) sector, a GradedDim: the plain
        case of ``gdim_hom_divided``, with source ``plain(seq_i)``."""
        return self.gdim_hom_divided(seq_j, plain(seq_i))

    def gdim_hom_column(self, seq_i):
        """Every sector into the plain source i: a dict from each sequence
        j of i's weight, in lexicographic order (``seq_enumerate``), to
        ``gdim_hom(j, i)``.  KL I reads the character of P_i off it.

        One walk of the DP (``_hom_numerators``) fills every target that
        the hom cache lacks, and targets that share a prefix share its
        layers.  Each target counts once in ``stats()``, as a hit or as a
        new entry.  Raises GraphError for a label that is not a vertex."""
        seq_i = tuple(seq_i)
        self.graph.require_vertices(seq_i)
        theta = plain(seq_i)
        runs, split = _runs(theta)
        targets = seq_enumerate(weight_of_seq(seq_i))
        cache = self._hom_cache
        missing = [j for j in targets if (j, runs) not in cache]
        self._hom_hits += len(targets) - len(missing)
        if missing:
            self._hom_numerators(runs, missing)
        nums = {j: cache[j, runs] for j in targets}
        if split:
            factor = _split_factor(theta)
            nums = {j: num * factor for j, num in nums.items()}
        den = (1,) * len(seq_i)
        return {j: GradedDim._of(num, den) for j, num in nums.items()}

    def gdim_hom_divided(self, seq_j, theta):
        """gdim e(j) R e(expand theta) / theta!, a GradedDim over (1-q^2)^m.

        The numerator of the (j, i) sector is the sum of q^{deg psi_w 1_i}
        over the permutations w with w . i = j (KL I, section 2).  A run of
        i is a maximal block of adjacent equal labels; the Young subgroup S
        that permutes strands within runs is standard parabolic and fixes i,
        so the w split into cosets uS, with u the shortest element of its
        coset (increasing on every run).  Then l(u s) = l(u) + l(s) for s in
        S, and s crosses only equal labels, so deg(u s) = deg(u) - 2 l(s):
        the numerator is sum_u q^{deg u} times prod over runs of length r of
        q^{-r(r-1)/2} [r]!.  Only adjacent equal labels may be grouped, as
        the full stabilizer of i is not parabolic.

        The source is the divided sequence theta, i = expand(theta).  Each
        block i^(n) lies inside one run, so dividing by theta! turns a run's
        factor [r]! into the quantum multinomial [r]! / prod [n_b]! over the
        run's blocks, which is 1 for a run of one block.  For a plain theta
        (``sequences.plain``) the factor is [r]!.

        The sum over u is a DP: the target positions of j are filled left to
        right, each from the leftmost unused source of a run with that label,
        and the state is how many sources of each run are used.  Placing a
        source crosses the used sources to its right once each, which adds
        -(i_a . i_b) to the exponent.  There are at most prod (r+1) states,
        so the cost is O(prod (r+1) m^2) at worst.  The DP sees only the
        runs, so its numerator is memoized per ring by (j, runs of theta),
        and the multinomials of theta's own split are applied after the
        memo: sources with the same runs, as ``i i j`` and ``i^(2) j``, share
        one DP (see ``_gdim_hom``).  Raises ValueError on a bad block,
        WeightMismatchError when the weights differ, and GraphError for a
        label of theta that is not a vertex.
        """
        seq_j, theta = tuple(seq_j), check_divided(theta)
        if weight_of_seq(seq_j) != divided_weight(theta):
            raise WeightMismatchError("sequences have different weights")
        # a source of one run makes the DP ask the graph nothing
        self.graph.require_vertices(v for v, _ in theta)
        return self._gdim_hom(seq_j, theta)

    def _gdim_hom(self, seq_j, theta):
        """The DP of ``gdim_hom_divided`` on checked tuples of one weight.

        The DP reads nothing of theta but its runs, as (label, length)
        pairs: how a run splits into blocks enters only through the run's
        quantum multinomial.  So the numerator before those factors is
        memoized per ring in ``_hom_cache``, keyed by (seq_j, runs), and
        every call, hit or miss, multiplies in the factors of its own
        split; ``i i j`` and ``i^(2) j`` share an entry.  Each call returns
        a new GradedDim."""
        runs, split = _runs(theta)
        memo = (seq_j, runs)
        num = self._hom_cache.get(memo)
        if num is None:
            self._hom_numerators(runs, (seq_j,))
            num = self._hom_cache[memo]
        else:
            self._hom_hits += 1
        if split:
            num = num * _split_factor(theta)
        return GradedDim._of(num, (1,) * len(seq_j))

    def _hom_numerators(self, runs, targets):
        """Store the DP numerator of each target j, a sequence of the runs'
        weight, in ``_hom_cache[(j, runs)]``, by one depth-first walk.

        The targets are walked in sorted order.  The stack holds one layer
        per letter of the current target: layer d maps each state (the
        sources used per run) after the first d letters to its counts
        (exponent -> count).  A target keeps the layers of the prefix it
        shares with the one before it and builds only the rest.  A label's
        moves, each run r of that label with its length and the nonzero
        -(i_r . i_t) of every later run t, are listed once per walk."""
        cartan = self.graph.cartan
        # the state with every source used, and q^{-r(r-1)/2} per run
        moves, full, start = {}, [], 0
        for r, (v, n) in enumerate(runs):
            later = []
            for t in range(r + 1, len(runs)):
                c = cartan(v, runs[t][0])
                if c:
                    later.append((t, -c))
            moves.setdefault(v, []).append((r, n, later))
            full.append(n)
            start -= n * (n - 1) // 2
        full = tuple(full)
        stack = [{(0,) * len(runs): {start: 1}}]
        cache, last = self._hom_cache, ()
        for target in sorted(targets):
            d = 0
            for a, b in zip(last, target):
                if a != b:
                    break
                d += 1
            del stack[d + 1:]
            layer = stack[d]
            for label in target[d:]:
                nxt = {}
                steps = moves.get(label, ())
                for used, counts in layer.items():
                    for r, n, later in steps:
                        if used[r] == n:
                            continue
                        shift = 0
                        for t, c in later:
                            shift += c * used[t]
                        key = used[:r] + (used[r] + 1,) + used[r + 1:]
                        out = nxt.get(key)
                        if out is None:
                            nxt[key] = {e + shift: c
                                        for e, c in counts.items()}
                        else:
                            for e, c in counts.items():
                                e += shift
                                out[e] = out.get(e, 0) + c
                layer = nxt
                stack.append(layer)
            # every count is positive, so the dict holds no zero; a layer
            # is never changed once built, so the entry may keep it
            cache[target, runs] = LaurentPoly._of(layer.get(full, {}))
            last = target

    def nilhecke_em(self, m, vertex):
        """The degree-0 primitive idempotent on m equal-label strands.

        In normal form this is the single key (longest element, staircase
        dots (m-1, m-2, ..., 0)); m = 0 gives e(empty).  Raises GraphError
        for a vertex not in the graph, and ValueError for an m that is not
        an integer >= 0.
        """
        check_int(m, "strand count", 0)
        self.graph.require_vertices((vertex,))
        seq = (vertex,) * m
        u = tuple(range(m - 1, -1, -1))
        return KLRElement(self, {(seq, longest_element(m), u): 1})

    # -- rewriting kernel --------------------------------------------------

    def _right_word(self, terms, word):
        """terms * psi_word: right-multiply by the letters of word, top first.

        One step is  psi_w x^v e(i) . psi_c = (psi_w psi_c) x^{s_c v}
        + [i_c = i_{c+1}] psi_w d_c(x^v) e(i),  where d_c = (f - s_c f) /
        (x_c - x_{c+1}) is the divided difference.  It follows from sliding
        the dots down through the new crossing, x_c psi_c = psi_c x_{c+1} + 1
        and x_{c+1} psi_c = psi_c x_c - 1 on equal labels.  On monomials,
        d_c(x_c^a x_{c+1}^b) = sum_{j < a-b} x_c^{a-1-j} x_{c+1}^{b+j} for
        a > b, minus the same sum with a and b exchanged for a < b, and 0
        for a = b.  The terms of psi_w psi_c come from ``_cross`` as one
        flat tuple (j, v, u, k, ...), which is shifted by x^{s_c v} and
        accumulated as ``_acc`` adds a dict.
        """
        for c in word:
            self._terms_read += len(terms)
            out = {}
            get = out.get
            for (i, w, v), k in terms.items():
                sv = list(v)
                a, b = sv[c - 1], sv[c]
                sv[c - 1], sv[c] = b, a
                # out += k * psi_w psi_c x^{s_c v}
                s = tuple(sv) if any(sv) else None
                it = iter(self._cross(c, i, w))
                for j, p, u, t in zip(it, it, it, it):
                    key = (j, p, tuple(map(add, u, s)) if s else u)
                    n = get(key, 0) + k * t
                    if n:
                        out[key] = n
                    else:
                        out.pop(key, None)
                if a == b or i[c - 1] != i[c]:
                    continue
                lo, hi = (b, a) if a > b else (a, b)
                sign = k if a > b else -k
                for j in range(hi - lo):
                    sv[c - 1], sv[c] = hi - 1 - j, lo + j
                    key = (i, w, tuple(sv))
                    n = get(key, 0) + sign
                    if n:
                        out[key] = n
                    else:
                        del out[key]
            terms = out
        return terms

    def _cross(self, c, i, w):
        """Normal form of psi_w e(i) . psi_c, over the sequence s_c i, as
        one flat tuple (j1, v1, u1, k1, j2, v2, u2, k2, ...) of its terms
        k psi_v x^u e(j); the zero step is ().

        When the length goes up and canonical(w s_c) ends in c, prefix
        closure (see ``permutations``) makes it canonical(w) + c, so the
        product is the one term (s_c i, w s_c, no dots, 1): a direct step,
        counted and not cached.  Every other step (a braid move or a
        double crossing) is rewritten once and cached per (c, i, w), with
        each sequence, permutation and dot vector of the entry replaced by
        the ring's one copy of it.  A step that shortens w brings c to the
        bottom of canonical(w); the braid corrections of that move,
        right-multiplied by psi_c, are added to the double crossing.
        """
        if w[c - 1] < w[c]:
            v = right_mult_letter(w, c)
            if canonical_word(v)[-1] == c:
                self._direct_steps += 1
                return (apply_word_to_seq((c,), i), v, (0,) * len(w), 1)
        key = (c, i, w)
        hit = self._cross_cache.get(key)
        if hit is not None:
            self._cross_hits += 1
            return hit
        below = apply_word_to_seq((c,), i)
        cw = canonical_word(w)
        if w[c - 1] < w[c]:
            # length goes up: canonical(w) + c is reduced for w s_c
            out = self._reduced_word_elem(below, cw + (c,))
        else:
            # length goes down: expose the double crossing at the bottom
            w1, corrs = self._bring_to_back(c, cw, i)
            out = {}
            double = self.graph.double_crossing(i[c - 1], i[c])
            if double:  # () on equal labels: the double crossing is zero
                inner = self._reduced_word_elem(below, w1[:-1])
                for u in double:
                    _acc(out, inner, 1, _placed(u, c, len(i)))
            _acc(out, self._right_word(corrs, (c,)))
        share = self._parts.setdefault
        out = tuple(f for (j, v, u), k in out.items()
                    for f in (share(j, j), share(v, v), share(u, u), k))
        self._cross_cache[(c, share(i, i), share(w, w))] = out
        return out

    def _dot(self, k, terms):
        """terms * x_k: a dot at bottom position k shifts every key's dots."""
        out = {}
        for (i, w, u), c in terms.items():
            u = list(u)
            u[k - 1] += 1
            out[(i, w, tuple(u))] = c
        return out

    def _reduced_word_elem(self, i, word):
        """Normal form of a reduced word (top-to-bottom) over the bottom
        sequence i, via canonicalization: the last letter d of the
        canonical word is brought to the bottom, the rest is canonicalized
        over s_d i and multiplied by psi_d, and the braid corrections of
        the move are added."""
        m = len(i)
        v = word_to_perm(word, m)
        cv = canonical_word(v)
        if word == cv:
            return {(i, v, (0,) * m): 1}
        # bring the last letter d of canonical(v) to the bottom; what is
        # left is a reduced word of v s_d, whose canonical word is cv[:-1]
        d = cv[-1]
        w1, corrs = self._bring_to_back(d, word, i)
        above = apply_word_to_seq((d,), i)
        out = self._right_word(self._reduced_word_elem(above, w1[:-1]), (d,))
        _acc(out, corrs)
        return out

    def _bring_to_back(self, c, word, i):
        """Rewrite a reduced word over i to end with the right descent c.

        Returns (new_word, corrections) with corrections a normal-form
        term dict over the bottom sequence i, so that  word == new_word +
        corrections  as diagrams.  A braid move whose outer strands carry
        equal labels adds +/- its word with the three crossings deleted, a
        prefix of a reduced word and so reduced, times the graph's braid
        correction, whose dots sit at the bottom; corrections from deeper
        in the word are right-multiplied by the letters moved past them.
        """
        a = word[-1]
        if a == c:
            return word, {}
        above = apply_word_to_seq((a,), i)
        w1, sub = self._bring_to_back(c, word[:-1], above)
        corrs = self._right_word(sub, (a,))
        if abs(a - c) >= 2:
            return w1[:-1] + (a, c), corrs
        w2, sub2 = self._bring_to_back(
            a, w1[:-1], apply_word_to_seq((c,), above))
        _acc(corrs, self._right_word(sub2, (c, a)))
        rest = w2[:-1]
        mpos = min(a, c)
        if i[mpos - 1] == i[mpos + 1]:
            for u in self.graph.braid_correction(i[mpos - 1], i[mpos]):
                _acc(corrs, self._reduced_word_elem(i, rest),
                     1 if a == mpos else -1, _placed(u, mpos, len(i)))
        return rest + (c, a, c), corrs
