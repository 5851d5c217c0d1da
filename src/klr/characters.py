"""Characters, shuffle products, the twisted coproduct, and the bilinear form.

The character of a monomial projective P_theta is the vector of graded
dimensions of its idempotent truncations; on the plain sequence k it equals
gdim_hom(k, expand(theta)) / theta!.  The bilinear form on monomials is
computed two independent ways, which share no code:

* pair_monomials: gdim_hom(expand(theta'), expand(theta)) / (theta! theta'!),
  where gdim_hom counts permutations by a subset DP in the ring;
* pair_recursive: the coproduct recursion (x, y i) = (r(x), y tensor i),
  peeling one letter of expand(theta') at a time.  Every peeled letter
  contributes one factor 1/(1-q^2), so the recursion works with numerators
  over the fixed denominator (1-q^2)^m, memoized per ring.

A monomial is tight when its self-pairing lies in 1 + q N[[q]].  The form
is the graded dimension of a hom space (KL I, section 3), so no coefficient
of its expansion is negative and only the lowest term decides: theta is
tight iff that term is 1 * q^0.  No series cutoff is involved.
"""

from __future__ import annotations

from .cartan import GraphError, cycle, weight_add, weight_of_seq
from .elements import WeightMismatchError
from .gdim import GradedDim
from .laurent import LaurentPoly
from .permutations import apply_perm_to_seq
from .sequences import (
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
    """A map from sequences of a fixed weight to graded dimensions."""

    __slots__ = ("weight", "values")

    def __init__(self, weight, values):
        self.weight = weight
        self.values = {k: v for k, v in values.items() if not v.is_zero()}

    def value(self, seq):
        return self.values.get(tuple(seq), GradedDim.zero())

    def __add__(self, other):
        if self.weight != other.weight:
            raise WeightMismatchError(
                f"weights differ: {self.weight} vs {other.weight}")
        out = dict(self.values)
        for k, v in other.values.items():
            out[k] = out[k] + v if k in out else v
        return CharacterVector(self.weight, out)

    def scale(self, p: LaurentPoly):
        return CharacterVector(self.weight,
                               {k: v * p for k, v in self.values.items()})

    def __eq__(self, other):
        if not isinstance(other, CharacterVector):
            return NotImplemented
        keys = set(self.values) | set(other.values)
        return all(self.value(k) == other.value(k) for k in keys)

    def __hash__(self):
        raise TypeError("CharacterVector is unhashable")

    def to_json(self):
        return {format_seq(k): v.to_json() for k, v in sorted(self.values.items())}

    def __str__(self):
        return ", ".join(f"{format_seq(k)}: {v}"
                         for k, v in sorted(self.values.items())) or "0"


class K0Vector:
    """An integer-Laurent combination of monomial symbols [P_theta].

    Symbols are not linearly independent; equality is decided only through
    the bilinear form (equal_in_f), never by comparing coefficients.
    """

    __slots__ = ("weight", "coeffs")

    def __init__(self, weight, coeffs):
        self.coeffs = {k: c for k, c in coeffs.items() if not c.is_zero()}
        self.weight = weight

    @staticmethod
    def monomial(theta, coeff=None):
        theta = tuple(theta)
        return K0Vector(divided_weight(theta),
                        {theta: coeff if coeff is not None else LaurentPoly.one()})

    def __add__(self, other):
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
        return self + (-other)

    def scale(self, p: LaurentPoly):
        return K0Vector(self.weight, {k: c * p for k, c in self.coeffs.items()})

    def to_json(self):
        return {format_divided(k): {str(e): c for e, c in sorted(v.coeffs.items())}
                for k, v in sorted(self.coeffs.items())}

    def __str__(self):
        return " + ".join(f"({c})*[P_{format_divided(k)}]"
                          for k, c in sorted(self.coeffs.items())) or "0"


# -- factorial division ----------------------------------------------------

def _divide_factorial(gd: GradedDim, divided) -> GradedDim:
    """Divide by the quantum factorial of a divided sequence, exactly.

    Uses the denominator identity (1-q^2)^n [n]! q^{n(n-1)/2} =
    prod_{a<=n} (1-q^{2a}): each block i^(n) consumes n copies of the
    factor (1-q^2), which the (1-q^2)^m denominator of every caller holds.
    """
    num, den = gd.num, list(gd.den)
    for _, n in divided:
        if n <= 1:
            continue
        for _ in range(n):
            den.remove(1)
        den.extend(range(1, n + 1))
        num = num * LaurentPoly.q_power(n * (n - 1) // 2)
    return GradedDim(num, den)


# -- characters ------------------------------------------------------------

def char_projective(ring, theta):
    """Character of the monomial projective: gdim_hom(k, expand) / theta!."""
    theta = tuple(theta)
    hat = expand(theta)
    weight = weight_of_seq(hat)
    fact = factorial_poly(theta)
    values = {}
    for seq in seq_enumerate(weight):
        gd = ring.gdim_hom(seq, hat)
        if gd.is_zero():
            continue
        values[seq] = _divide_factorial(gd, theta)
    return CharacterVector(weight, values)


def char_at_divided(cv: CharacterVector, theta):
    """Evaluate a character at a divided sequence: value at expansion / theta!."""
    theta = tuple(theta)
    return cv.value(expand(theta)).divide_poly(factorial_poly(theta))


def shuffle_product(graph, f: CharacterVector, g: CharacterVector):
    """Quantum shuffle product of character vectors."""
    weight = weight_add(f.weight, g.weight)
    values = {}
    for si, vi in f.values.items():
        for sj, vj in g.values.items():
            prod = vi * vj
            for seq, deg in shuffles(graph, si, sj):
                contrib = prod * LaurentPoly.q_power(deg)
                values[seq] = values[seq] + contrib if seq in values else contrib
    return CharacterVector(weight, values)


# -- coproduct -------------------------------------------------------------

def _bilinear(graph, w1, w2):
    return sum(n1 * n2 * graph.cartan(v1, v2)
               for v1, n1 in w1 for v2, n2 in w2)


def comultiply(graph, theta):
    """Coproduct terms (left, right, coeff) of a divided monomial.

    Each block i^(n) splits as sum over a+b=n of q^{-ab} i^(a) (x) i^(b);
    blocks are assembled left to right in the twisted tensor product, so a
    block landing on the left picks up q^{-B(weight(right so far), a*i)}.
    Blocks are kept unmerged in the output.  Raises GraphError on a label
    that is not a vertex.
    """
    graph.require_vertices(v for v, _ in theta)
    terms = [((), (), (), LaurentPoly.one())]  # (left, right, right weight, coeff)
    for v, n in theta:
        new_terms = []
        for left, right, rw, coeff in terms:
            for a in range(n + 1):
                b = n - a
                c = coeff * LaurentPoly.q_power(-a * b)
                if a:
                    twist = -_bilinear(graph, rw, ((v, a),))
                    c = c * LaurentPoly.q_power(twist)
                nl = left + ((v, a),) if a else left
                nr = right + ((v, b),) if b else right
                nrw = weight_add(rw, ((v, b),)) if b else rw
                new_terms.append((nl, nr, nrw, c))
        terms = new_terms
    return [(l, r, c) for l, r, _, c in terms]


# -- the bilinear form -----------------------------------------------------

def pair_monomials(ring, theta, theta2) -> GradedDim:
    """(theta, theta') via the hom-space graded dimension."""
    theta, theta2 = tuple(theta), tuple(theta2)
    ring.graph.require_vertices(v for v, _ in theta + theta2)
    if divided_weight(theta) != divided_weight(theta2):
        return GradedDim.zero()
    gd = ring.gdim_hom(expand(theta2), expand(theta))
    return _divide_factorial(gd.divide_poly(factorial_poly(theta2)), theta)


def pair_recursive(ring, theta, theta2) -> GradedDim:
    """(theta, theta') via the coproduct adjunction, an independent route.

    Peels letters of the expansion of theta' through (x, y i) =
    sum (r(x)_left, y)(r(x)_right, i), with (i^(1), i) = 1/(1-q^2) and
    (1, 1) = 1; finally divides by theta'! since [P_expansion] =
    theta'! [P_theta'].
    """
    theta, theta2 = tuple(theta), tuple(theta2)
    ring.graph.require_vertices(v for v, _ in theta + theta2)
    if divided_weight(theta) != divided_weight(theta2):
        return GradedDim.zero()
    plain_seq = expand(theta2)
    raw = GradedDim(_pair_plain(ring, theta, plain_seq), (1,) * len(plain_seq))
    return _divide_factorial(raw, theta2)


def _pair_plain(ring, theta, plain_seq) -> LaurentPoly:
    """Numerator of (theta, plain_seq) over the fixed (1-q^2)^len(plain_seq).

    Each peeled letter contributes exactly one factor 1/(1-q^2), so the
    recursion sums numerators and never forms a common denominator.  The
    numerators are memoized per ring in ``ring._pair_cache``, keyed by
    (theta, plain_seq).
    """
    key = (theta, plain_seq)
    hit = ring._pair_cache.get(key)
    if hit is not None:
        return hit
    if not plain_seq:
        return LaurentPoly.zero() if theta else LaurentPoly.one()
    single = ((plain_seq[-1], 1),)
    out = LaurentPoly.zero()
    for left, right, coeff in comultiply(ring.graph, theta):
        if right != single:
            continue
        sub = _pair_plain(ring, left, plain_seq[:-1])
        if not sub.is_zero():
            out = out + sub * coeff
    ring._pair_cache[key] = out
    return out


def pair_k0(ring, u: K0Vector, theta) -> GradedDim:
    """Pair a K0 vector against a single monomial."""
    out = GradedDim.zero()
    for sym, c in u.coeffs.items():
        p = pair_monomials(ring, sym, theta)
        if not p.is_zero():
            out = out + p * c
    return out


def equal_in_f(ring, u: K0Vector, v: K0Vector) -> bool:
    """True iff u - v pairs to zero against every plain monomial.

    Plain monomials span the weight space and the form is non-degenerate,
    so this decides equality of the underlying classes.
    """
    if u.weight != v.weight:
        return False
    diff = u - v
    for seq in seq_enumerate(u.weight):
        if not (pair_k0(ring, diff, plain(seq)) == 0):
            return False
    return True


def bar_k0(u: K0Vector) -> K0Vector:
    """q -> 1/q on coefficients; monomial symbols are bar-invariant."""
    return K0Vector(u.weight, {k: c.bar() for k, c in u.coeffs.items()})


def sigma_k0(u: K0Vector) -> K0Vector:
    """Reverse every divided sequence; coefficients unchanged."""
    return K0Vector(u.weight, {reverse(k): c for k, c in u.coeffs.items()})


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
    """K0-level Serre relations between two distinct vertices."""
    if i == j:
        raise ValueError(f"Serre relations need two distinct vertices, "
                         f"got {i!r} twice")
    two = LaurentPoly({1: 1, -1: 1})
    if ring.graph.cartan(i, j) == 0:
        return equal_in_f(ring, K0Vector.monomial(((i, 1), (j, 1))),
                          K0Vector.monomial(((j, 1), (i, 1))))
    iji = K0Vector.monomial(((i, 1), (j, 1), (i, 1)))
    iij = K0Vector.monomial(((i, 1), (i, 1), (j, 1)))
    jii = K0Vector.monomial(((j, 1), (i, 1), (i, 1)))
    d2j = K0Vector.monomial(((i, 2), (j, 1)))
    jd2 = K0Vector.monomial(((j, 1), (i, 2)))
    return (equal_in_f(ring, iji.scale(two), iij + jii)
            and equal_in_f(ring, iji, d2j + jd2))


def orthogonal_idempotents_check(ring, i, j) -> bool:
    """The triple crossings on iji split 1_iji into orthogonal idempotents."""
    if ring.graph.cartan(i, j) != -1:
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
    1 2 ... n 1 2 ... n; its defining properties (degree 0, endomorphism of
    the sequence, the degree-0 sector being two-dimensional) are asserted.
    Raises GraphError unless the vertices '1'..'n' of the ring's graph
    induce an n-cycle.
    """
    target = cycle(n)
    verts = target.vertices
    vset = set(verts)
    induced = {e for e in ring.graph.edges if e <= vset}
    if not vset <= set(ring.graph.vertices) or induced != target.edges:
        raise GraphError("ring is not over the n-cycle")
    seq = verts + verts
    w = tuple((a + n) % (2 * n) for a in range(2 * n))
    m = 2 * n
    alpha = ring.element({(seq, w, (0,) * m): 1})
    assert alpha.degree() == 0
    assert apply_perm_to_seq(w, seq) == seq
    sector = ring.gdim_hom(seq, seq).series(0)
    assert sector[0] == 2, "degree-0 endomorphism sector should be {1, alpha}"
    return alpha, alpha * alpha
