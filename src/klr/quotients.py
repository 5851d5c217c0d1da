"""Graded dimensions of quotients by two-sided ideals, degree by degree.

The basis of R(nu) in each degree is enumerated directly from the normal
form (sequence, permutation, dot exponents).  A two-sided ideal given by
homogeneous generators is spanned, in degree d, by products a * g * b with
a, b basis elements; the quotient dimension is dim R(nu)_d minus the rank
of that span.  Generators marked central need only right multipliers.
Ranks are exact, over Q or a prime field, by sparse row reduction that is
fraction-free over Q: rows stay dicts of small integers.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd

from .cartan import weight_size
from .elements import diagram_degree
from .permutations import all_permutations, identity
from .sequences import seq_enumerate


def degree_lower_bound(weight):
    """No basis element has degree below -sum nu_i (nu_i - 1)."""
    return -sum(n * (n - 1) for _, n in weight)


def _compositions(total, parts):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _enumerate_basis(graph, weight, d):
    m = weight_size(weight)
    out = []
    for seq in seq_enumerate(weight):
        for w in all_permutations(m):
            base = diagram_degree(graph, seq, w)
            rem = d - base
            if rem < 0 or rem % 2:
                continue
            for u in _compositions(rem // 2, m):
                out.append((seq, w, u))
    return tuple(sorted(out))


# (vertices, edges, weight, d) -> sorted tuple of basis keys
_basis_cache = {}


def graded_basis(graph, weight, d):
    """All basis keys (sequence, permutation, dots) of degree d, sorted.

    Each basis is enumerated once per graph, weight and degree; every call
    returns a new list, so no caller can change the cached one.
    """
    key = (graph.vertices, graph.edges, tuple((v, n) for v, n in weight), d)
    basis = _basis_cache.get(key)
    if basis is None:
        basis = _basis_cache[key] = _enumerate_basis(graph, weight, d)
    return list(basis)


class IdealSpec:
    """Homogeneous generators of a two-sided ideal of R(nu)."""

    __slots__ = ("weight", "generators", "central")

    def __init__(self, weight, generators, central=False):
        for g in generators:
            g.degree()  # raises InhomogeneousError unless g is homogeneous
        self.weight = weight
        self.generators = list(generators)
        self.central = central


def cyclotomic_spec(ring, weight, lam):
    """Dots-to-the-power lambda on the leftmost strand of every sequence.

    lam maps vertices to nonnegative integers (missing vertices count 0).
    """
    lam = dict(lam)
    ring.graph.require_vertices([v for v, _ in weight] + list(lam))
    if any(n < 0 for n in lam.values()):
        raise ValueError(f"negative dot power in {lam}")
    gens = []
    for seq in seq_enumerate(weight):
        if not seq:
            continue
        power = lam.get(seq[0], 0)
        m = len(seq)
        u = tuple(power if a == 0 else 0 for a in range(m))
        gens.append(ring.element({(seq, identity(m), u): 1}))
    return IdealSpec(weight, gens)


def sym_plus_spec(ring, weight):
    """Color-wise elementary symmetric dot polynomials, summed over sequences.

    These span the positive-degree part of the center, so the two-sided
    ideal they generate needs only one-sided multipliers.
    """
    ring.graph.require_vertices(v for v, _ in weight)
    gens = []
    for color, n in weight:
        for t in range(1, n + 1):
            terms = {}
            for seq in seq_enumerate(weight):
                m = len(seq)
                positions = [a for a in range(m) if seq[a] == color]
                for subset in combinations(positions, t):
                    u = tuple(1 if a in subset else 0 for a in range(m))
                    terms[(seq, identity(m), u)] = 1
            gens.append(ring.element(terms))
    return IdealSpec(weight, gens, central=True)


# -- exact rank ------------------------------------------------------------

def _rank(rows, prime=None):
    """Rank of a list of dense rows of ints, over Q or F_prime.

    Sparse row reduction: each row becomes a {column: value} dict, and
    `echelon` maps each leading column to the pivot row that owns it.  A
    row is reduced against the pivots until its leading column is free or
    it vanishes.  Over Q the step is fraction-free, a * row - f * pivot
    with a, f divided by their gcd, and the result is divided by the gcd
    of its entries, so entries stay small integers.  Over F_prime the same
    step runs modulo prime against pivots scaled to leading entry 1.
    """
    echelon = {}
    for dense in rows:
        if prime is None:
            row = {col: c for col, c in enumerate(dense) if c}
        else:
            row = {col: c % prime for col, c in enumerate(dense) if c % prime}
        while row:
            lead = min(row)
            f = row[lead]
            pivot = echelon.get(lead)
            if pivot is None:
                if prime is not None:
                    inv = pow(f, -1, prime)
                    row = {col: c * inv % prime for col, c in row.items()}
                echelon[lead] = row
                break
            if prime is None:
                a = pivot[lead]
                g = gcd(a, f)
                a, f = a // g, f // g
                if a != 1:
                    row = {col: a * c for col, c in row.items()}
            for col, p in pivot.items():
                c = row.get(col, 0) - f * p
                if prime is not None:
                    c %= prime
                if c:
                    row[col] = c
                else:
                    del row[col]
            if prime is None:
                g = gcd(*row.values())
                if g > 1:
                    row = {col: c // g for col, c in row.items()}
    return len(echelon)


def ideal_degree_dim(ring, spec, d, prime=None):
    """Dimension of the degree-d piece of the two-sided ideal.

    Products a * g * b are enumerated with deg(a) ranging over
    [lower bound, d - deg(g) - lower bound], which is exhaustive, since no
    multiplier exists below the ring's degree lower bound.
    """
    lb = degree_lower_bound(spec.weight)
    if d < 2 * lb:
        return 0
    basis = graded_basis(ring.graph, spec.weight, d)
    if not basis:
        return 0
    index = {key: pos for pos, key in enumerate(basis)}
    rows = []
    for g in spec.generators:
        if g.is_zero():
            continue
        dg = g.degree()
        hi = d - dg - lb
        products = []
        if spec.central:
            db = d - dg
            for bkey in graded_basis(ring.graph, spec.weight, db):
                products.append(ring.multiply(g, ring.element({bkey: 1})))
        else:
            for da in range(lb, hi + 1):
                abasis = graded_basis(ring.graph, spec.weight, da)
                if not abasis:
                    continue
                db = d - dg - da
                bbasis = graded_basis(ring.graph, spec.weight, db)
                if not bbasis:
                    continue
                for akey in abasis:
                    ag = ring.multiply(ring.element({akey: 1}), g)
                    if ag.is_zero():
                        continue
                    for bkey in bbasis:
                        products.append(
                            ring.multiply(ag, ring.element({bkey: 1})))
        for elem in products:
            if elem.is_zero():
                continue
            row = [0] * len(basis)
            for key, c in elem.terms.items():
                row[index[key]] = c
            rows.append(row)
    if not rows:
        return 0
    return _rank(rows, prime)


class GradedDimReport:
    __slots__ = ("degrees", "stabilized", "cutoff", "window", "field")

    def __init__(self, degrees, stabilized, cutoff, window, field):
        self.degrees = degrees  # map degree -> dimension
        self.stabilized = stabilized
        self.cutoff = cutoff
        self.window = window
        self.field = field

    def total(self):
        return sum(self.degrees.values())

    def to_json(self):
        return {"degrees": {str(d): n for d, n in sorted(self.degrees.items())},
                "stabilized": self.stabilized,
                "cutoff": self.cutoff,
                "window": self.window,
                "field": self.field}

    def __str__(self):
        lines = [f"deg {d:>4}: {n}" for d, n in sorted(self.degrees.items())
                 if n]
        if not lines:
            lines = ["all degrees zero"]
        lines.append(f"total (q=1): {self.total()}")
        lines.append("stabilized" if self.stabilized
                     else f"NOT stabilized within cutoff {self.cutoff}")
        return "\n".join(lines)


def quotient_gdim(ring, spec, cutoff=10, window=3, prime=None):
    """Per-degree dimensions of R(nu)/ideal up to the cutoff degree.

    Stabilization means the last `window` consecutive degrees (including
    both parities) of the quotient are zero.  Cyclotomic quotients are
    finite-dimensional (they categorify V(lambda), Kang-Kashiwara), and so
    is R(nu)/Sym+, since R(nu) is free of finite rank over its centre
    Sym(nu) (KL I, section 2).  But zeros in a window do not prove that no
    higher degree is nonzero, so a failed window is reported rather than
    an error.  Raises ValueError for a window below 1, which
    would call any truncated answer stabilized, and for a window reaching
    below the degree lower bound, where there are no degrees to read.
    """
    if window < 1:
        raise ValueError(f"stabilization window {window} must be >= 1")
    if prime is not None and prime < 2:
        raise ValueError(f"field characteristic {prime} is not a prime")
    lb = degree_lower_bound(spec.weight)
    if cutoff - window + 1 < lb:
        raise ValueError(f"window of {window} degrees up to cutoff {cutoff} "
                         f"reaches below the lowest degree {lb}")
    degrees = {}
    for d in range(lb, cutoff + 1):
        total = len(graded_basis(ring.graph, spec.weight, d))
        if total == 0:
            degrees[d] = 0
            continue
        degrees[d] = total - ideal_degree_dim(ring, spec, d, prime=prime)
    tail = [degrees[d] for d in range(cutoff - window + 1, cutoff + 1)]
    field = "Q" if prime is None else f"F_{prime}"
    return GradedDimReport(degrees, all(n == 0 for n in tail),
                           cutoff, window, field)
