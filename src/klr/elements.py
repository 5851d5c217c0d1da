"""Normal-form arithmetic in the diagram ring R(nu) of a Cartan graph.

Elements are integer combinations of basis keys (i, w, u): bottom sequence
i, permutation w rendered as the crossings of its canonical (lex-min)
reduced word, and a monomial of dots x^u at the bottom, i.e. the KL I basis
psi_w x^u e(i).  Diagrams are rewritten into this basis with the local
relations:

* a double crossing is 0 (equal labels), the identity (pairing 0), or a sum
  of two single dots (pairing -1);
* dots slide freely through distinct-label crossings, and through an
  equal-label crossing by the one dot slide x_c psi_c = psi_c x_{c+1} + 1;
* two reduced words of the same permutation differ by braid moves, and a
  braid move whose outer strands carry equal labels adjacent to the middle
  label costs +/- the diagram with the three crossings deleted.

Every product is built from the outside in, as a right word: keys are
multiplied on the right by crossings, top to bottom (``_right_word``), and
dots below them are shifted in.  One right step slides the dots of a key
down through the new crossing in closed form (a divided difference on
equal labels), so the crossings above stay on top and a term they kill
dies at once.  ``multiply``, ``psi``, ``evaluate_word`` and a crossing word
over a sequence (``_word_elem``) are all built this way, and a dot at the
bottom (``_dot``) only shifts the dot vector.  The dot-free part
psi_w psi_c is cached per (letter, sequence, permutation) by ``_cross``;
dots at the bottom commute with everything below them, so the cache
ignores the dot vector and the shift is applied afterwards.

Canonicalization also works from the bottom.  Canonical words are closed
under prefixes (see ``permutations``), so a right step that keeps the
canonical word of w plus c canonical is a single key.  Otherwise
``_bring_to_back`` moves a chosen right descent to the bottom of a reduced
word by commutation and braid moves, collecting correction words, and
``_reduced_word_elem`` takes one right step from the canonical prefix.
When a right step shortens the permutation, ``_bring_to_back`` exposes the
double crossing psi_c psi_c at the bottom: 0, the identity, or a dot on
strand c plus one on strand c+1.
"""

from __future__ import annotations

from operator import add

from .cartan import weight_of_seq
from .gdim import GradedDim
from .laurent import LaurentPoly, format_sum
from .permutations import (
    GeneratorIndexError,
    apply_perm_to_seq,
    apply_word_to_seq,
    block_sum,
    canonical_word,
    identity,
    inversions,
    longest_element,
    word_to_perm,
)


class WeightMismatchError(ValueError):
    """Operands live over different weights."""


class InhomogeneousError(ValueError):
    """Degree requested for a zero or inhomogeneous element."""


def _check_weights(x, y):
    wx, wy = x.weight, y.weight
    if wx is not None and wy is not None and wx != wy:
        raise WeightMismatchError(f"weights differ: {wx} vs {wy}")


def diagram_degree(graph, seq, w):
    """Sum of -(i_a . i_b) over the inversions of w on the labeled strands."""
    return -sum(graph.cartan(seq[a], seq[b]) for a, b in inversions(w))


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
    """An element of R(nu) in normal form (immutable by convention)."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = {k: c for k, c in terms.items() if c != 0}

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
        if isinstance(other, int) and other == 0:
            return not self.terms
        if not isinstance(other, KLRElement):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        _check_weights(self, other)
        out = dict(self.terms)
        _acc(out, other.terms)
        return KLRElement(self.ring, out)

    def __neg__(self):
        return KLRElement(self.ring, {k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, KLRElement):
            return self.ring.multiply(self, other)
        return self.__rmul__(other)

    def __rmul__(self, other):
        if not isinstance(other, int):
            return NotImplemented
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
        def term(key):
            i, w, u = key
            factors = [f"s{l}" for l in canonical_word(w)]
            factors += [f"x{p+1}" if e == 1 else f"x{p+1}^{e}"
                        for p, e in enumerate(u) if e]
            body = "*".join(factors) if factors else "1"
            seq = "".join(i) if all(len(v) == 1 for v in i) else " ".join(i)
            return self.terms[key], f"{body}[{seq}]"

        return format_sum(map(term, sorted(
            self.terms, key=lambda k: (k[0], k[1], tuple(-x for x in k[2])))))

    __repr__ = __str__


class KLRRing:
    """The rings R(nu) for all weights over a fixed Cartan graph."""

    def __init__(self, graph):
        self.graph = graph
        # (c, i, w) -> normal form of psi_w e(i) with crossing c below it
        self._cross_cache = {}
        # (i, crossing word) -> normal form, for any word over i
        self._word_cache = {}
        self._bring_cache = {}
        # (theta, plain sequence) -> pairing numerator; see characters._pair_plain
        self._pair_cache = {}
        self._terms_read = 0  # terms read by the right-crossing steps

    def stats(self):
        """Work done so far: the size of each cache, and ``terms_read``,
        the number of terms read by every right-crossing step, whether of
        ``multiply``, ``psi``, ``evaluate_word`` or the kernel's own
        canonicalization."""
        caches = {name[1:-len("_cache")]: len(value)
                  for name, value in vars(self).items()
                  if name.endswith("_cache")}
        return {"caches": caches, "terms_read": self._terms_read}

    # -- constructors ------------------------------------------------------

    def element(self, terms):
        return KLRElement(self, terms)

    def zero(self):
        return KLRElement(self, {})

    def element_from_json(self, data):
        """Inverse of KLRElement.to_json.

        Raises ValueError on malformed input: GraphError for a label that is
        not a vertex, WeightMismatchError for terms of different weights.
        """
        if not (isinstance(data, list)
                and all(isinstance(obj, dict) for obj in data)):
            raise ValueError("an element is a JSON list of term objects")
        terms = {}
        for obj in data:
            seq, perm, dots = obj["source"], obj["permutation"], obj["dots"]
            if not all(isinstance(x, list) for x in (seq, perm, dots)):
                raise ValueError("source, permutation and dots must be lists")
            if not all(type(x) is int for x in perm + dots):
                raise ValueError(f"permutation {perm} and dots {dots} must "
                                 f"hold integers")
            seq = tuple(seq)
            self.graph.require_vertices(seq)
            w = tuple(x - 1 for x in perm)
            u = tuple(dots)
            m = len(seq)
            if len(w) != m or len(u) != m:
                raise ValueError(f"term over {m} strands has permutation "
                                 f"length {len(w)} and {len(u)} dots")
            if sorted(w) != list(range(m)):
                raise ValueError(f"{obj['permutation']} is not a permutation "
                                 f"of 1..{m}")
            if any(e < 0 for e in u):
                raise ValueError(f"negative dot exponent in {list(u)}")
            key = (seq, w, u)
            # to_json writes a decimal string; via str, floats are rejected
            terms[key] = terms.get(key, 0) + int(str(obj["coeff"]))
        elem = KLRElement(self, terms)
        if len({weight_of_seq(i) for i, _, _ in elem.terms}) > 1:
            raise WeightMismatchError("terms have different weights")
        return elem

    def idempotent(self, seq):
        seq = tuple(seq)
        self.graph.require_vertices(seq)
        m = len(seq)
        return KLRElement(self, {(seq, identity(m), (0,) * m): 1})

    def generator(self, token, seq):
        """token = ('D', k) for a dot or ('C', k) for a crossing, 1-based."""
        return self.evaluate_word(seq, [token])

    def evaluate_word(self, seq, tokens):
        """Stack generator tokens bottom-to-top over the idempotent of seq.

        The tokens are checked first.  The word is then built top down: a
        crossing is one right step, and a dot shifts the bottom dots.
        """
        seq = tuple(seq)
        self.graph.require_vertices(seq)
        m = len(seq)
        top = list(seq)
        for typ, k in tokens:
            if typ == "D":
                if not 1 <= k <= m:
                    raise GeneratorIndexError(
                        f"dot position {k} out of range for {m} strands")
            elif typ == "C":
                if not 1 <= k <= m - 1:
                    raise GeneratorIndexError(
                        f"crossing {k} out of range for {m} strands")
                top[k - 1], top[k] = top[k], top[k - 1]
            else:
                raise ValueError(f"unknown token type {typ!r}")
        acc = {(tuple(top), identity(m), (0,) * m): 1}
        for typ, k in reversed(tokens):
            if typ == "C":
                acc = self._right_word(acc, (k,))
            else:
                acc = self._dot(k, acc)
        return KLRElement(self, acc)

    # -- ring operations ---------------------------------------------------

    def multiply(self, x, y):
        """x * y, with x stacked on top of y."""
        _check_weights(x, y)
        return KLRElement(self, self.multiply_terms(x.terms, y.terms))

    def multiply_terms(self, xterms, yterms):
        """The terms of x * y from the terms of x and y, as a new dict.

        Built from the outside in: the terms of x whose bottom is the top of
        a term of y are right-multiplied by that term's crossings, top to
        bottom, and its dots are shifted in last.  No weight check is made
        and no element is built, so it suits callers that multiply many
        term dicts of one known weight.
        """
        out = {}
        for (iy, py, uy), cy in yterms.items():
            top = apply_perm_to_seq(py, iy)
            acc = {k: c for k, c in xterms.items() if k[0] == top}
            if acc:
                _acc(out, self._right_word(acc, canonical_word(py)), cy, uy)
        return out

    def psi(self, x):
        """Horizontal flip: antiautomorphism fixing idempotents and dots."""
        out = {}
        for (i, w, u), c in x.terms.items():
            start = {(i, identity(len(i)), u): c}
            _acc(out, self._right_word(start, tuple(reversed(canonical_word(w)))))
        return KLRElement(self, out)

    def sigma(self, x):
        """Vertical flip with sign (-1)^(number of equal-label crossings)."""
        out = {}
        for (i, w, u), c in x.terms.items():
            m = len(i)
            sign = 1
            for a, b in inversions(w):
                if i[a] == i[b]:
                    sign = -sign
            i2 = tuple(reversed(i))
            word2 = tuple(m - l for l in canonical_word(w))
            _acc(out, self._word_elem(i2, word2), sign * c, tuple(reversed(u)))
        return KLRElement(self, out)

    def juxtapose(self, x, y):
        """Place diagrams side by side (the non-unital inclusion)."""
        out = {}
        for (i1, w1, u1), c1 in x.terms.items():
            for (i2, w2, u2), c2 in y.terms.items():
                key = (i1 + i2, block_sum(w1, w2), u1 + u2)
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    del out[key]
        return KLRElement(self, out)

    def gdim_hom(self, seq_j, seq_i):
        """Graded dimension of the (j, i) sector, a GradedDim.

        The numerator is the sum of q^{deg psi_w 1_i} over the permutations
        w with w . i = j (KL I, section 2), over (1-q^2)^m.  It is computed
        by a subset DP instead of a scan of all m! permutations: the target
        positions of j are filled left to right, and the state is the
        bitmask of source strands of i already used.  Placing source a after
        the sources b > a in the mask crosses each of them once, which adds
        -(i_a . i_b) to the exponent.  Only masks whose labels match a prefix
        of j are reached, so the cost is O(2^m m^2) at worst.
        """
        seq_i, seq_j = tuple(seq_i), tuple(seq_j)
        if weight_of_seq(seq_i) != weight_of_seq(seq_j):
            raise WeightMismatchError("sequences have different weights")
        m = len(seq_i)
        cartan = [[self.graph.cartan(x, y) for y in seq_i] for x in seq_i]
        layer = {0: {0: 1}}  # mask of used sources -> exponent -> count
        for label in seq_j:
            nxt = {}
            for mask, counts in layer.items():
                for a in range(m):
                    if seq_i[a] != label or mask >> a & 1:
                        continue
                    shift = -sum(cartan[a][b] for b in range(a + 1, m)
                                 if mask >> b & 1)
                    out = nxt.setdefault(mask | 1 << a, {})
                    for e, c in counts.items():
                        out[e + shift] = out.get(e + shift, 0) + c
            layer = nxt
        return GradedDim(LaurentPoly(layer.get((1 << m) - 1, {})), (1,) * m)

    def nilhecke_em(self, m, vertex):
        """The degree-0 primitive idempotent on m equal-label strands.

        In normal form this is the single key (longest element, staircase
        dots (m-1, m-2, ..., 0)).
        """
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
        for a = b.
        """
        for c in word:
            self._terms_read += len(terms)
            out = {}
            get = out.get
            for (i, w, v), k in terms.items():
                sv = list(v)
                a, b = sv[c - 1], sv[c]
                sv[c - 1], sv[c] = b, a
                _acc(out, self._cross(c, i, w), k, tuple(sv))
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
        """Normal form of psi_w e(i) . psi_c, over the sequence s_c i."""
        key = (c, i, w)
        hit = self._cross_cache.get(key)
        if hit is not None:
            return hit
        below = apply_word_to_seq((c,), i)
        cw = canonical_word(w)
        if w[c - 1] < w[c]:
            # length goes up: canonical(w) + c is reduced for w s_c
            out = self._reduced_word_elem(below, cw + (c,))
        else:
            # length goes down: expose the double crossing at the bottom
            w1, corrs = self._bring_to_back(c, cw, i)
            la, lb = i[c - 1], i[c]
            out = {}
            if la != lb:  # a double crossing of equal labels is zero
                inner = self._reduced_word_elem(below, w1[:-1])
                if self.graph.cartan(la, lb) == 0:
                    _acc(out, inner)
                else:
                    _acc(out, self._dot(c, inner))
                    _acc(out, self._dot(c + 1, inner))
            for sign, cword in corrs:
                _acc(out, self._word_elem(below, cword + (c,)), sign)
        self._cross_cache[key] = out
        return out

    def _dot(self, k, terms):
        """terms * x_k: a dot at bottom position k shifts every key's dots."""
        out = {}
        for (i, w, u), c in terms.items():
            u = list(u)
            u[k - 1] += 1
            out[(i, w, tuple(u))] = c
        return out

    def _word_elem(self, i, word):
        """Normal form of an arbitrary crossing word (top-to-bottom) over i."""
        key = (i, word)
        hit = self._word_cache.get(key)
        if hit is not None:
            return hit
        m = len(i)
        top = apply_word_to_seq(word, i)
        out = self._right_word({(top, identity(m), (0,) * m): 1}, word)
        self._word_cache[key] = out
        return out

    def _reduced_word_elem(self, i, word):
        """Normal form of a reduced word over i, via canonicalization."""
        key = (i, word)
        hit = self._word_cache.get(key)
        if hit is not None:
            return hit
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
        for sign, cword in corrs:
            _acc(out, self._word_elem(i, cword), sign)
        self._word_cache[key] = out
        return out

    def _bring_to_back(self, c, word, i):
        """Rewrite a reduced word over i to end with the right descent c.

        Returns (new_word, corrections) where each correction is (sign,
        word-with-three-fewer-letters) over the same bottom sequence i, so
        that  word == new_word + sum sign * correction  as diagrams.
        """
        key = (c, word, i)
        hit = self._bring_cache.get(key)
        if hit is not None:
            return hit
        a = word[-1]
        if a == c:
            result = (word, ())
        else:
            above = apply_word_to_seq((a,), i)
            w1, sub = self._bring_to_back(c, word[:-1], above)
            corrs = [(s, cw + (a,)) for s, cw in sub]
            if abs(a - c) >= 2:
                result = (w1[:-1] + (a, c), tuple(corrs))
            else:
                w2, sub2 = self._bring_to_back(
                    a, w1[:-1], apply_word_to_seq((c,), above))
                corrs += [(s, cw + (c, a)) for s, cw in sub2]
                rest = w2[:-1]
                mpos = min(a, c)
                if (i[mpos - 1] == i[mpos + 1]
                        and self.graph.cartan(i[mpos - 1], i[mpos]) == -1):
                    corrs.append((1 if a == mpos else -1, rest))
                result = (rest + (c, a, c), tuple(corrs))
        self._bring_cache[key] = result
        return result
