"""Characters, shuffle products, the twisted coproduct, and the bilinear form.

The character of a monomial projective P_theta is the vector of graded
dimensions of its idempotent truncations; on the plain sequence k it equals
gdim_hom(k, expand(theta)) / theta!.  The bilinear form on monomials is
computed two independent ways, which share no code:

* pair_monomials: gdim_hom(expand(theta), expand(theta')) / (theta! theta'!),
  where gdim_hom sums over permutations in the ring, by a DP over the
  shortest coset representatives modulo the runs of equal labels.  The
  anti-involution that flips diagrams upside down preserves degree, so this
  (theta, theta') sector has the graded dimension of the (theta', theta)
  one.  The DP takes theta' as a divided source (gdim_hom_divided) and
  divides by theta'! in closed form, one quantum multinomial per run, and
  its numerator is memoized per ring; the division by theta! is
  _divide_factorial's;
* pair_recursive: the coproduct recursion (x, y i) = (r(x), y tensor i),
  peeling one letter of expand(theta') at a time.  Only the terms of r(x)
  whose right factor is that single letter survive, and they are written
  down in closed form (see _pair_plain) rather than filtered from the full
  comultiply.  Every peeled letter contributes one factor 1/(1-q^2), so
  the recursion works with numerators over the fixed denominator
  (1-q^2)^m, memoized per ring.

Every entry point that takes a divided sequence rejects a block that is
not (vertex, n) with n an integer >= 1 with ValueError.

A monomial is tight when its self-pairing lies in 1 + q N[[q]].  The form
is the graded dimension of a hom space (KL I, section 3), so no coefficient
of its expansion is negative and only the lowest term decides: theta is
tight iff that term is 1 * q^0.  No series cutoff is involved.
"""

from __future__ import annotations

from .cartan import (CartanGraph, GraphError, check_int, check_type, cycle,
                     weight_add, weight_of_seq)
from .elements import KLRRing, WeightMismatchError
from .gdim import GradedDim
from .laurent import LaurentPoly, qbinom
from .sequences import (
    check_block,
    check_divided,
    check_weight,
    divided_weight,
    expand,
    factorial_poly,
    format_divided,
    format_seq,
    plain,
    reverse,
    seq_enumerate,
    shuffles,
)


class CharacterVector:
    """A map from sequences of a fixed weight over a graph to graded
    dimensions.  The graph decides how the sequences are written
    (``sequences.format_seq``).  The constructor checks the weight and
    every key against it, so a vector holds no sequence of another
    weight."""

    __slots__ = ("graph", "weight", "values")

    def __init__(self, graph, weight, values):
        """Raises TypeError unless graph is a CartanGraph and values is a
        dict of GradedDims (``cartan.check_type``).  The weight is read by
        ``sequences.check_weight``, which keeps its normal form, and its
        vertices must be the graph's (GraphError); a key is a tuple
        (TypeError) of that weight (WeightMismatchError)."""
        self.graph = check_type(CartanGraph, graph)
        self.weight = check_weight(weight)
        self.graph.require_vertices(v for v, _ in self.weight)
        self.values = {}
        for k, v in check_type(dict, values).items():
            if weight_of_seq(check_type(tuple, k)) != self.weight:
                raise WeightMismatchError(
                    f"sequence {k!r} is not of weight {self.weight}")
            if not check_type(GradedDim, v).is_zero():
                self.values[k] = v

    def value(self, seq):
        """The graded dimension at seq: 0 for a sequence of another
        weight, and GraphError for a label that is not a vertex
        (``CartanGraph.require_vertices``)."""
        seq = tuple(seq)
        self.graph.require_vertices(seq)
        return self.values.get(seq, GradedDim.zero())

    def __add__(self, other):
        if not isinstance(other, CharacterVector):
            return NotImplemented
        if (self.graph, self.weight) != (other.graph, other.weight):
            raise WeightMismatchError(
                f"weights differ: {self.weight} over {self.graph!r} vs "
                f"{other.weight} over {other.graph!r}")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out[k] + v if k in out else v
        return CharacterVector(self.graph, self.weight, out)

    def scale(self, p: LaurentPoly):
        return CharacterVector(self.graph, self.weight,
                               {k: v * p for k, v in self.values.items()})

    def __eq__(self, other):
        if not isinstance(other, CharacterVector):
            return NotImplemented
        # characters over unequal graphs are never equal
        keys = set(self.values) | set(other.values)
        return self.graph == other.graph and all(
            self.value(k) == other.value(k) for k in keys)

    def __hash__(self):
        raise TypeError("CharacterVector is unhashable")

    def to_json(self):
        return {format_seq(k, self.graph): v.to_json()
                for k, v in sorted(self.values.items())}

    def __str__(self):
        return "\n".join(f"{format_seq(k, self.graph)}: {v}"
                         for k, v in sorted(self.values.items())) or "0"


class K0Vector:
    """An integer-Laurent combination of monomial symbols [P_theta].

    Symbols are not linearly independent; equality is decided only through
    the bilinear form (equal_in_f), never by comparing coefficients.  The
    constructor checks the weight and every key against it, so two vectors
    of one weight compare as equal weights, and no symbol of another
    weight is filed under this one.
    """

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight, coeffs):
        """Raises TypeError unless coeffs is a dict of LaurentPolys
        (``cartan.check_type``).  The weight is read by
        ``sequences.check_weight``, which keeps its normal form; a key that
        is not a divided sequence raises ValueError (``check_divided``),
        and one of another weight WeightMismatchError."""
        self.weight = check_weight(weight)
        self.coeffs = {}
        for k, c in check_type(dict, coeffs).items():
            if divided_weight(check_divided(k)) != self.weight:
                raise WeightMismatchError(
                    f"monomial {k!r} is not of weight {self.weight}")
            if not check_type(LaurentPoly, c).is_zero():
                self.coeffs[k] = c

    @staticmethod
    def monomial(theta):
        theta = check_divided(theta)
        return K0Vector(divided_weight(theta), {theta: LaurentPoly.one()})

    def __add__(self, other):
        if not isinstance(other, K0Vector):
            return NotImplemented
        if self.weight != other.weight:
            raise WeightMismatchError(
                f"weights differ: {self.weight} vs {other.weight}")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out[k] + c if k in out else c
        return K0Vector(self.weight, out)

    def __neg__(self):
        return K0Vector(self.weight, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if not isinstance(other, K0Vector):
            return NotImplemented
        return self + (-other)

    def scale(self, p: LaurentPoly):
        return K0Vector(self.weight, {k: c * p for k, c in self.coeffs.items()})

    def to_json(self):
        return {format_divided(k): v.to_json()
                for k, v in sorted(self.coeffs.items())}

    def __str__(self):
        return " + ".join(f"({c})*[P_{format_divided(k)}]"
                          for k, c in sorted(self.coeffs.items())) or "0"


# -- factorial division ----------------------------------------------------

def _divide_factorial(gd: GradedDim, divided) -> GradedDim:
    """Divide by the quantum factorial of a divided sequence, exactly.

    Uses the denominator identity (1-q^2)^n [n]! q^{n(n-1)/2} =
    prod_{a<=n} (1-q^{2a}): each block i^(n) trades n - 1 of the factors
    1-q^2 that the (1-q^2)^m denominator of every caller holds for a = 2..n.
    The new denominator is built by counting: the traded factors 1 are
    dropped from the front of the sorted tuple, and only the added factors
    are sorted, since every kept one is 1.  Raises ValueError when the
    denominator is not (1-q^2)^m with enough factors to trade.
    """
    s = drop = 0
    added = []
    for _, n in divided:
        if n > 1:
            s += n * (n - 1) // 2
            drop += n - 1
            added.extend(range(2, n + 1))
    if not s:
        return gd
    den = gd.den
    if len(den) < drop or den[-1] != 1:
        raise ValueError(f"cannot divide by the factorial of "
                         f"{format_divided(divided)}: the denominator "
                         f"{den} is not (1-q^2)^m with m >= {drop}")
    added.sort()
    return GradedDim._of(gd.num.shifted(s), den[drop:] + tuple(added))


# -- characters ------------------------------------------------------------

def char_projective(ring, theta):
    """Character of the monomial projective: gdim_hom(k, expand) / theta!,
    read off one column of sectors (``KLRRing.gdim_hom_column``).
    Raises TypeError unless ring is a KLRRing."""
    theta = check_divided(theta)
    hat = expand(theta)
    column = check_type(KLRRing, ring).gdim_hom_column(hat)
    return CharacterVector(ring.graph, weight_of_seq(hat), {
        seq: _divide_factorial(gd, theta) for seq, gd in column.items()})


def char_at_divided(cv: CharacterVector, theta):
    """Evaluate a character at a divided sequence: value at expansion / theta!.
    Raises TypeError unless cv is a CharacterVector, and GraphError for a
    label that is not a vertex (``CharacterVector.value``)."""
    check_type(CharacterVector, cv)
    theta = check_divided(theta)
    return cv.value(expand(theta)).divide_poly(factorial_poly(theta))


def shuffle_product(f: CharacterVector, g: CharacterVector):
    """Quantum shuffle product of character vectors over one graph.
    Raises TypeError for an operand that is not a CharacterVector, and
    WeightMismatchError unless both are over equal graphs."""
    graph = check_type(CharacterVector, f).graph
    if check_type(CharacterVector, g).graph != graph:
        raise WeightMismatchError("characters over other graphs")
    weight = weight_add(f.weight, g.weight)
    values = {}
    for si, vi in f.values.items():
        for sj, vj in g.values.items():
            prod = vi * vj
            for seq, deg in shuffles(graph, si, sj):
                contrib = GradedDim._of(prod.num.shifted(deg), prod.den)
                values[seq] = values[seq] + contrib if seq in values else contrib
    return CharacterVector(graph, weight, values)


# -- coproduct -------------------------------------------------------------

def comultiply(graph, theta):
    """Coproduct terms (left, right, coeff) of a divided monomial.

    Each block i^(n) splits as sum over a+b=n of q^{-ab} i^(a) (x) i^(b);
    blocks are assembled left to right in the twisted tensor product, so a
    block landing on the left picks up q^{-B(weight(right so far), a*i)}.
    Blocks are kept unmerged in the output.  Raises ValueError on a bad
    block, GraphError on a label that is not a vertex and TypeError unless
    graph is a CartanGraph.
    """
    theta = check_divided(theta)
    check_type(CartanGraph, graph).require_vertices(v for v, _ in theta)
    terms = [((), (), (), LaurentPoly.one())]  # (left, right, right weight, coeff)
    for v, n in theta:
        new_terms = []
        for left, right, rw, coeff in terms:
            for a in range(n + 1):
                b = n - a
                c = coeff.shifted(
                    -a * b - graph.weight_pairing(rw, ((v, a),)))
                nl = left + ((v, a),) if a else left
                nr = right + ((v, b),) if b else right
                nrw = weight_add(rw, ((v, b),)) if b else rw
                new_terms.append((nl, nr, nrw, c))
        terms = new_terms
    return [(l, r, c) for l, r, _, c in terms]


# -- the bilinear form -----------------------------------------------------

def _same_weight(ring, theta, theta2):
    """Whether two divided sequences have one weight, where the form may
    be nonzero.  The one input check of both pairing routes, in one pass
    over the blocks of theta and then theta': each block is checked
    (``check_block``, ValueError), and its size is added to a per-vertex
    count for theta and subtracted for theta', so the weights agree iff
    every count is 0.  The count's labels are then checked once each
    (GraphError), so a bad block anywhere is reported first.

    An unhashable label, or a label that is not a vertex, runs the checks
    again block by block and label by label: they name every bad label as
    written, in first-seen order (1 and 1.0 share a count, not a repr).
    The ring is typed first (``cartan.check_type``), for both routes,
    ``tight`` and ``pair_k0``."""
    graph = check_type(KLRRing, ring).graph
    counts = {}
    try:
        for blocks, sign in ((theta, 1), (theta2, -1)):
            for block in blocks:
                v, n = check_block(block)
                counts[v] = counts.get(v, 0) + sign * n
        graph.require_vertices(counts)
    except (TypeError, GraphError):
        check_divided(theta + theta2)
        graph.require_vertices(v for v, _ in theta + theta2)
        raise
    return not any(counts.values())


def pair_monomials(ring, theta, theta2) -> GradedDim:
    """(theta, theta') via the hom-space graded dimension."""
    theta, theta2 = tuple(theta), tuple(theta2)
    if not _same_weight(ring, theta, theta2):
        return GradedDim.zero()
    # the upside-down flip preserves degree: the (theta, theta') sector has
    # the graded dimension of the (theta', theta) one.  _same_weight has
    # checked the input, so the DP is called without gdim_hom_divided's checks
    gd = ring._gdim_hom(expand(theta), theta2)
    return _divide_factorial(gd, theta)


def pair_recursive(ring, theta, theta2) -> GradedDim:
    """(theta, theta') via the coproduct adjunction, an independent route.

    Peels letters of the expansion of theta' through (x, y i) =
    sum (r(x)_left, y)(r(x)_right, i), with (i^(1), i) = 1/(1-q^2) and
    (1, 1) = 1; finally divides by theta'! since [P_expansion] =
    theta'! [P_theta'].
    """
    theta, theta2 = tuple(theta), tuple(theta2)
    if not _same_weight(ring, theta, theta2):
        return GradedDim.zero()
    plain_seq = expand(theta2)
    raw = GradedDim._of(_pair_plain(ring, theta, plain_seq),
                        (1,) * len(plain_seq))
    return _divide_factorial(raw, theta2)


def _pair_plain(ring, theta, plain_seq) -> LaurentPoly:
    """Numerator of (theta, plain_seq) over the fixed (1-q^2)^len(plain_seq).

    Peels v, the last letter of plain_seq.  A term of r(theta) has right
    factor exactly v^(1) only when one block p = (v, n_p) sends one letter
    right and every other block stays left.  Its left factor is theta with
    n_p lowered by one (the block dropped when n_p = 1), and its
    coefficient is q^{-(n_p - 1) - sum_{r > p} n_r (v_r . v)}: the split
    factor q^{-ab} with a = n_p - 1, b = 1, times the twist each later
    block pays for crossing the letter already on the right.

    Each peeled letter contributes exactly one factor 1/(1-q^2), so the
    recursion sums the shifted numerators in one dict and never forms a
    common denominator.  Every coefficient counts placements, so it is
    positive and no sum cancels.  The numerators are memoized per ring in
    ``ring._pair_cache``, keyed by (theta, plain_seq).
    """
    key = (theta, plain_seq)
    hit = ring._pair_cache.get(key)
    if hit is not None:
        ring._pair_hits += 1
        return hit
    if not plain_seq:
        return LaurentPoly.zero() if theta else LaurentPoly.one()
    v, rest = plain_seq[-1], plain_seq[:-1]
    cartan = ring.graph.cartan
    num = {}
    twist = 0  # sum over the blocks right of p of n_r (v_r . v)
    for p in range(len(theta) - 1, -1, -1):
        vp, n = theta[p]
        if vp == v:
            left = (theta[:p] + ((v, n - 1),) + theta[p + 1:] if n > 1
                    else theta[:p] + theta[p + 1:])
            k = -(n - 1) - twist
            for e, c in _pair_plain(ring, left, rest).coeffs.items():
                num[e + k] = num.get(e + k, 0) + c
        twist += n * cartan(vp, v)
    out = ring._pair_cache[key] = LaurentPoly._of(num)
    return out


def pair_k0(ring, u: K0Vector, theta) -> GradedDim:
    """Pair a K0 vector against a single monomial.  Raises TypeError
    unless u is a K0Vector."""
    out = GradedDim.zero()
    for sym, c in check_type(K0Vector, u).coeffs.items():
        p = pair_monomials(ring, sym, theta)
        if not p.is_zero():
            out = out + p * c
    return out


def equal_in_f(ring, u: K0Vector, v: K0Vector) -> bool:
    """True iff u - v pairs to zero against every plain monomial.

    Plain monomials span the weight space and the form is non-degenerate,
    so this decides equality of the underlying classes.  Raises TypeError
    unless ring is a KLRRing and u and v are K0Vectors.
    """
    check_type(KLRRing, ring)
    if check_type(K0Vector, u).weight != check_type(K0Vector, v).weight:
        return False
    diff = u - v
    for seq in seq_enumerate(u.weight):
        if not (pair_k0(ring, diff, plain(seq)) == 0):
            return False
    return True


def bar_k0(u: K0Vector) -> K0Vector:
    """q -> 1/q on coefficients; monomial symbols are bar-invariant.
    Raises TypeError unless u is a K0Vector."""
    return K0Vector(check_type(K0Vector, u).weight,
                    {k: c.bar() for k, c in u.coeffs.items()})


def sigma_k0(u: K0Vector) -> K0Vector:
    """Reverse every divided sequence; coefficients unchanged.  Raises
    TypeError unless u is a K0Vector."""
    return K0Vector(check_type(K0Vector, u).weight,
                    {reverse(k): c for k, c in u.coeffs.items()})


# -- tightness -------------------------------------------------------------

class TightReport:
    __slots__ = ("theta", "tight", "constant_term", "first_bad")

    def __init__(self, theta, tight, constant_term, first_bad):
        self.theta = theta
        self.tight = tight
        self.constant_term = constant_term
        self.first_bad = first_bad  # (exponent, coefficient) or None

    def to_json(self):
        return {"monomial": format_divided(self.theta),
                "tight": self.tight,
                "constant_term": self.constant_term,
                "first_bad": list(self.first_bad) if self.first_bad else None}

    def __str__(self):
        if self.tight:
            return "TIGHT"
        e, c = self.first_bad
        if e == 0:
            return f"NOT TIGHT: constant term {self.constant_term}"
        return f"NOT TIGHT: lowest term q^{e} has coefficient {c}"


def tight(ring, theta) -> TightReport:
    """Is the self-pairing in 1 + q N[[q]]?  Decided exactly.

    The expansion's lowest term is the numerator's, since every denominator
    factor 1 - q^{2a} has constant term 1.  first_bad is that term when it
    is not 1 * q^0, or (0, 0) when the expansion starts above q^0.
    """
    theta = tuple(theta)
    pairing = pair_monomials(ring, theta, theta)
    low = min(pairing.num.min_exp(), 0)
    lowest = (low, pairing.num[low])
    ok = lowest == (0, 1)
    return TightReport(theta, ok, pairing.series(0)[0],
                       None if ok else lowest)


# -- structural checks -----------------------------------------------------

def serre_check(ring, i, j) -> bool:
    """The quantum Serre relations between two distinct vertices, in f.

    With n = 1 - i.j, both sums over k = 0..n are 0 in f:
    sum (-1)^k [P_{i^(k) j i^(n-k)}] over divided powers, and
    sum (-1)^k [n choose k] [P_{i^k j i^(n-k)}] over plain sequences, with
    the balanced quantum binomial.  One formula covers every pair: on an
    edge n = 2, and for i.j = 0, n = 1 and both read [P_ji] = [P_ij].
    """
    if i == j:
        raise ValueError(f"Serre relations need two distinct vertices, "
                         f"got {i!r} twice")
    n = 1 - check_type(KLRRing, ring).graph.cartan(i, j)
    weight = divided_weight(((i, n), (j, 1)))
    divided = {tuple(b for b in ((i, k), (j, 1), (i, n - k)) if b[1]):
               LaurentPoly.const((-1) ** k) for k in range(n + 1)}
    plain_sum = {plain((i,) * k + (j,) + (i,) * (n - k)):
                 qbinom(n, k) * (-1) ** k for k in range(n + 1)}
    zero = K0Vector(weight, {})
    return (equal_in_f(ring, K0Vector(weight, divided), zero)
            and equal_in_f(ring, K0Vector(weight, plain_sum), zero))


def orthogonal_idempotents_check(ring, i, j) -> bool:
    """The triple crossings on iji split 1_iji into orthogonal idempotents.

    The split needs psi_1 psi_2 psi_1 - psi_2 psi_1 psi_2 = 1 on e(iji),
    that is, the graph's braid correction on i j i is 1, which holds
    exactly on an edge; any other pair raises GraphError.
    """
    if check_type(KLRRing, ring).graph.braid_correction(i, j) != ((0, 0, 0),):
        raise GraphError(f"{i!r} and {j!r} are not joined by an edge")
    seq = (i, j, i)
    e1 = ring.evaluate_word(seq, [("C", 1), ("C", 2), ("C", 1)])
    e2 = -ring.evaluate_word(seq, [("C", 2), ("C", 1), ("C", 2)])
    one = ring.idempotent(seq)
    return (e1 * e1 == e1 and e2 * e2 == e2
            and (e1 * e2).is_zero() and (e2 * e1).is_zero()
            and e1 + e2 == one)


def cycle_alpha(ring, n):
    """The degree-0 block-swap element on the doubled cycle sequence.

    Returns (alpha, alpha squared).  alpha is the basis element of the
    permutation sending position a to a+n mod 2n over the sequence
    1 2 ... n 1 2 ... n.  Its defining properties (degree 0, endomorphism
    of the sequence, the degree-0 sector being two-dimensional) are facts
    about the ring, which the ``cycle:<n>`` suite of ``klr.verify`` checks.
    Raises GraphError unless the vertices '1'..'n' of the ring's graph
    induce an n-cycle, that is, pair as they do in ``cycle(n)``.  A graph
    of k vertices lacks one of '1'..'k+1', so only those are looked up
    before ``cycle(n)`` is built: a large n costs no more than a small one.
    """
    check_int(n, "cycle length")
    graph = check_type(KLRRing, ring).graph
    graph.require_vertices(
        str(a) for a in range(1, min(n, len(graph.vertices) + 1) + 1))
    target = cycle(n)
    verts = target.vertices
    if any(graph.cartan(a, b) != target.cartan(a, b)
           for a in verts for b in verts):
        raise GraphError("ring is not over the n-cycle")
    seq = verts + verts
    w = tuple((a + n) % (2 * n) for a in range(2 * n))
    m = 2 * n
    alpha = ring.element({(seq, w, (0,) * m): 1})
    return alpha, alpha * alpha
