"""Graded dimensions of quotients by two-sided ideals, degree by degree.

The basis of R(nu) in each degree is enumerated directly from the normal
form (sequence, permutation, dot exponents).  A two-sided ideal R G R given
by homogeneous generators is spanned sector by sector, once per quotient,
and the span is shared across all degrees:

* the generators are split into their sector pieces e(j) g e(i);
* the left ideal L = R G is echelon-reduced in each degree and each
  (top, bottom) sector, modulo the dots below its lower-degree vectors
  (for central generators L is just the pieces, since R g R = g R);
* each left vector l is multiplied once by each dot-free right factor
  psi_v e(j); the basis element psi_v x^t e(j) then only shifts the dots
  of that product by t, because bottom dots multiply from the right by a
  shift;
* the products of degree d are ranked one (top, bottom) block of the basis
  at a time.

The quotient dimension is dim R(nu)_d minus that rank.  Ranks are exact,
over Q or a prime field, by sparse row reduction that is fraction-free over
Q: rows stay dicts of small integers.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import add

from .cartan import weight_of_seq, weight_size
from .elements import WeightMismatchError, diagram_degree
from .permutations import all_permutations, apply_perm_to_seq, identity
from .sequences import seq_enumerate


def degree_lower_bound(weight):
    """No basis element has degree below -sum nu_i (nu_i - 1)."""
    return -sum(n * (n - 1) for _, n in weight)


@lru_cache(maxsize=None)
def _compositions(total, parts):
    """All dot vectors of `parts` exponents summing to total, as a tuple."""
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _compositions(total - first, parts - 1))


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
    """Homogeneous generators of a two-sided ideal of R(nu).

    Raises InhomogeneousError for a generator that is not homogeneous and
    WeightMismatchError for one that is not in R(nu).
    """

    __slots__ = ("weight", "generators", "central")

    def __init__(self, weight, generators, central=False):
        nu = weight_of_seq(v for v, n in weight for _ in range(n))
        for g in generators:
            g.degree()  # raises InhomogeneousError unless g is homogeneous
            if g.weight != nu:
                raise WeightMismatchError(
                    f"generator over {g.weight} in an ideal of R({nu})")
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

def _insert(echelon, row, prime=None):
    """Reduce a sparse row against the echelon; add it if it survives.

    ``row`` is a {column: value} dict with no zero values (reduced modulo
    prime over F_prime), and it is consumed.  ``echelon`` maps each leading
    column to the pivot row that owns it.  The row is reduced against the
    pivots until its leading column is free or it vanishes.  Over Q the
    step is fraction-free, a * row - f * pivot with a, f divided by their
    gcd, and the result is divided by the gcd of its entries, so entries
    stay small integers.  Over F_prime the same step runs modulo prime
    against pivots scaled to leading entry 1.  Returns True if the row
    became a new pivot.
    """
    while row:
        lead = min(row)
        f = row[lead]
        pivot = echelon.get(lead)
        if pivot is None:
            if prime is not None:
                inv = pow(f, -1, prime)
                row = {col: c * inv % prime for col, c in row.items()}
            echelon[lead] = row
            return True
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
    return False


def _sparse(items, prime=None):
    """{column: value} of the nonzero (column, value) pairs, modulo prime."""
    if prime is None:
        return {col: c for col, c in items if c}
    return {col: c % prime for col, c in items if c % prime}


def _rank(rows, prime=None):
    """Rank of a list of dense rows of ints, over Q or F_prime.

    Sparse row reduction with ``_insert``; it stops once the pivots fill
    the columns, since no later row can raise the rank.
    """
    echelon = {}
    ncols = len(rows[0]) if rows else 0
    for dense in rows:
        if len(echelon) == ncols:
            break
        _insert(echelon, _sparse(enumerate(dense), prime), prime)
    return len(echelon)


# -- the ideal, sector by sector -------------------------------------------

def _shifted(terms, t):
    """terms * x^t: dots at the bottom multiply from the right by a shift."""
    return {(i, w, tuple(map(add, u, t))): c for (i, w, u), c in terms.items()}


def _sector(key):
    """(top, bottom) sequences of a basis key, the idempotents around it."""
    i, w, _ = key
    return apply_perm_to_seq(w, i), i


class _IdealSpan:
    """The span of R G R for one quotient, shared across its degrees.

    ``left(e)`` keeps the left vectors of degree e, ``_product`` caches
    each left vector times each dot-free right factor, and ``degree(d)``
    ranks the shifted products of degree d block by block (see the module
    docstring).
    """

    def __init__(self, ring, spec, prime=None):
        self.ring = ring
        self.weight = spec.weight
        self.prime = prime
        self.lb = degree_lower_bound(spec.weight)
        self.pieces = {}  # degree -> [(top, bottom, piece)]
        for g in spec.generators:
            split = {}
            for key, c in g.terms.items():
                split.setdefault(_sector(key), {})[key] = c
            for (top, bottom), terms in split.items():
                self.pieces.setdefault(g.degree(), []).append(
                    (top, bottom, ring.element(terms)))
        self.central = spec.central
        self.m = weight_size(spec.weight)
        # top of psi_v e(j) -> [(j, v, degree)] over all sequences j of nu
        self.right = {}
        for j in seq_enumerate(spec.weight):
            for v in all_permutations(self.m):
                self.right.setdefault(apply_perm_to_seq(v, j), []).append(
                    (j, v, diagram_degree(ring.graph, j, v)))
        # lowest degree of a left vector
        self.low = min(self.pieces, default=0) + (0 if spec.central
                                                  else self.lb)
        self._left = {}
        self._products = {}

    def left(self, e):
        """Left vectors spanning L_e modulo dots below lower ones, as
        [(top, bottom, terms)].

        A candidate that the shifts l * x^t of lower left vectors l already
        span is dropped: l * x^t * R lies in l * R.
        """
        hit = self._left.get(e)
        if hit is not None:
            return hit
        ring = self.ring
        sectors = {}  # (top, bottom) -> candidate terms
        if self.central:
            for top, bottom, piece in self.pieces.get(e, ()):
                sectors.setdefault((top, bottom), []).append(piece.terms)
        else:
            for dg, pieces in self.pieces.items():
                multipliers = graded_basis(ring.graph, self.weight, e - dg)
                for top, bottom, piece in pieces:
                    for akey in multipliers:
                        if akey[0] != top:
                            continue
                        elem = ring.multiply(ring.element({akey: 1}), piece)
                        if elem:
                            sectors.setdefault((_sector(akey)[0], bottom),
                                               []).append(elem.terms)
        prime = self.prime
        echelons = {sector: {} for sector in sectors}
        for low in range(e - 2, self.low - 1, -2):
            shifts = _compositions((e - low) // 2, self.m)
            for top, bottom, terms in self.left(low):
                echelon = echelons.get((top, bottom))
                if echelon is not None:
                    for t in shifts:
                        _insert(echelon, _sparse(
                            _shifted(terms, t).items(), prime), prime)
        out = [sector + (terms,) for sector, candidates in sectors.items()
               for terms in candidates
               if _insert(echelons[sector], _sparse(terms.items(), prime),
                          prime)]
        self._left[e] = out
        return out

    def _product(self, e, index, terms, j, v):
        """Terms of the left vector times psi_v e(j), cached."""
        key = (e, index, j, v)
        hit = self._products.get(key)
        if hit is None:
            ring = self.ring
            hit = ring.multiply(ring.element(terms),
                                ring.element({(j, v, (0,) * self.m): 1})).terms
            self._products[key] = hit
        return hit

    def degree(self, d):
        """Counts for degree d: basis size, spanning products, nonzero
        rows, and the rank of those rows."""
        basis = graded_basis(self.ring.graph, self.weight, d)
        blocks = {}  # (top, bottom) -> {basis key: column}
        for key in basis:
            block = blocks.setdefault(_sector(key), {})
            block[key] = len(block)
        rows = {}
        products = 0
        for e in range(self.low, d - self.lb + 1):
            for index, (top, bottom, left) in enumerate(self.left(e)):
                for j, v, dv in self.right[bottom]:
                    rem = d - e - dv
                    if rem < 0 or rem % 2:
                        continue
                    shifts = _compositions(rem // 2, self.m)
                    products += len(shifts)
                    terms = self._product(e, index, left, j, v)
                    if not terms:
                        continue
                    columns = blocks[top, j]
                    block_rows = rows.setdefault((top, j), [])
                    for t in shifts:
                        row = [0] * len(columns)
                        for key, c in _shifted(terms, t).items():
                            row[columns[key]] = c
                        block_rows.append(row)
        rank = sum(_rank(block_rows, self.prime)
                   for block_rows in rows.values())
        return {"basis": len(basis), "products": products,
                "rows": sum(map(len, rows.values())), "rank": rank}


def ideal_degree_dim(ring, spec, d, prime=None):
    """Dimension of the degree-d piece of the two-sided ideal.

    One degree of the sector span that ``quotient_gdim`` shares across all
    degrees: the left ideal R G echelon-reduced per sector, each left
    vector times each dot-free right factor psi_v e(j), shifted by the dots
    x^t, and the rank taken one (top, bottom) block at a time.  Left
    degrees run up to d minus the ring's degree lower bound, which is
    exhaustive, since no right factor lies below it.
    """
    return _IdealSpan(ring, spec, prime).degree(d)["rank"]


class GradedDimReport:
    __slots__ = ("degrees", "stabilized", "cutoff", "window", "field",
                 "stats")

    def __init__(self, degrees, stabilized, cutoff, window, field,
                 stats=None):
        self.degrees = degrees  # map degree -> dimension
        self.stabilized = stabilized
        self.cutoff = cutoff
        self.window = window
        self.field = field
        # map degree -> {"basis", "products", "rows", "rank"} counts
        self.stats = stats or {}

    def total(self):
        return sum(self.degrees.values())

    def to_json(self):
        return {"degrees": {str(d): n for d, n in sorted(self.degrees.items())},
                "stabilized": self.stabilized,
                "cutoff": self.cutoff,
                "window": self.window,
                "field": self.field,
                "stats": {str(d): s for d, s in sorted(self.stats.items())}}

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
    span = _IdealSpan(ring, spec, prime)
    stats = {d: span.degree(d) for d in range(lb, cutoff + 1)}
    degrees = {d: s["basis"] - s["rank"] for d, s in stats.items()}
    tail = [degrees[d] for d in range(cutoff - window + 1, cutoff + 1)]
    field = "Q" if prime is None else f"F_{prime}"
    return GradedDimReport(degrees, all(n == 0 for n in tail),
                           cutoff, window, field, stats)
