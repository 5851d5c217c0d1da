"""Graded dimensions of quotients by two-sided ideals, degree by degree.

R(nu) has the basis psi_w x^u e(i) (KL I, Thm 2.5), of degree
deg psi_w e(i) + 2|u|, so every graded piece is read off one diagram
table: the degree of psi_w e(i) for each sequence i and permutation w.
``_lifts`` is the one place that reads the degree 2 of a dot: the bases,
the multipliers and the right factors of a degree all come from a row of
the table through it.
Each quotient builds that table once, and its bases, its multipliers and
its right factors all read it; the top sequence of each psi_v e(j) is
computed once, when the right factors are grouped by top, and each basis
block is read off that grouping.  ``graded_basis`` builds a new table per
call.  Nothing is kept between calls but two memos of pure functions of
ints: ``_compositions``, the dot vectors of each size, and ``is_prime``,
so a field is tested once per process, not once per quotient.  A
two-sided ideal R G R given by homogeneous generators is spanned sector
by sector, once per quotient, and the span is shared across all degrees:

* the generators are split into their sector pieces e(j) g e(i);
* the left ideal L = R G is spanned by the basis elements times the
  pieces, kept as they come: nonzero, but not reduced against each
  other; if every generator is central, which ``IdealSpec`` reads off the
  terms (see ``_is_central``), L is just the pieces, since R g R = g R;
* each left vector l is multiplied once by each dot-free right factor
  psi_v e(j); the basis element psi_v x^t e(j) then only shifts the dots
  of that product by t, because bottom dots multiply from the right by a
  shift;
* the rows of degree d, the products l psi_v x^t, are reduced into one
  echelon per (top, bottom) block of the basis as they are built.

A product l psi_v e(j) of degree d0 is dead if its own row (t = 0) adds
no rank at degree d0: it reduces to zero, or its block is already full.
Its shifts are then never built, in any degree.  This is exact.  The row
is a combination of rows r already in the echelon, so l psi_v x^t is the
same combination of the rows r x^t of degree d0 + 2|t|.  Each r is a
shift of a lower product or a product met earlier at d0, so a dead
product depends only on products before it (by degree, then in the order
met), and by induction every row that is skipped is spanned by rows that
are built.  This holds in whatever order the degrees are computed, and
for any left vectors that span L, so L needs no reduction of its own: a
redundant left vector adds rows to reduce, never a wrong rank.  To let
more products die, the shifts of lower products are reduced before the
products of degree d0.

A dead product costs one byte: each left vector keeps a bytearray of dead
marks, one per right factor psi_v e(j) with its bottom as top, and only
the live nonzero products are cached.  A product that is zero is dead as
soon as it is built, since so are its shifts.  A dead product's shifts are
still counted among a degree's spanning products, so the per-degree
counts do not depend on how many products have died.

A product is built in one right step from the product of its prefix.
The basis fixes one reduced word per permutation, its canonical word, and
canonical words are closed under prefixes (see ``permutations``), so with
d the last letter of canonical(v), l psi_v e(j) = (l psi_{v s_d}
e(s_d j)) psi_d, and the prefix psi_{v s_d} e(s_d j) has the same top as
psi_v e(j).  The prefix's product is read from the cache, or built the
same way and cached like any live product.  A prefix of degree
e + deg psi_{v s_d} e(s_d j) is shared only when it is live and that
degree is at most the last degree the scan can reach (the cutoff or the
top, whichever is lower): a dead prefix is not cached again, and a prefix
above the last degree would never be ranked at its own degree, so it
would never die, and stay cached to the end.  Otherwise the product is
built from l letter by letter, as is the prefix in passing, without
caching it.  A prefix lies above its product by 2 when psi_d crosses
equal labels, so chains of prefixes are built and cached ahead of their
own degree: the cache holds more at the low degrees, and each product of
a long word costs one step.

A generator piece made of dots only needs only the dot-free multipliers
psi_w in the left ideal: it commutes with dots, so psi_w x^u g = psi_w g
x^u, and psi_w g x^u R lies in psi_w g R.

The quotient dimension is dim R(nu)_d minus the rank.  Ranks are exact,
over Q or a prime field, by sparse row reduction that is fraction-free over
Q: rows stay dicts of small integers.  Over F_p each pivot is scaled to
leading entry 1 and stored without it, so a reduction step pops the row's
lead and reads no entry of the pivot that it would only cancel.

The two quotients built here have an exact top degree, known from a
theorem and not from the engine, so no degree above it is computed:

* R(nu) is free over its centre Sym(nu) on the psi_w x^u e(i), with u in
  the Artin staircase of each color (KL I, section 2).  So R(nu)/Sym+ has
  those elements as a basis, and its top degree is the highest diagram
  degree of a psi_w e(i) plus sum_c n_c (n_c - 1), the top staircase;
* R^lambda(beta) categorifies V(lambda) (Kang-Kashiwara, arXiv 1102.4677)
  and is a symmetric algebra of degree d = 2 (lambda, beta) - (beta, beta)
  (Shan-Varagnolo-Vasserot, 2011): its degree-k piece is dual to its
  degree d - k piece.  So if d0 is its lowest nonzero degree, its top is
  d - d0, and if every degree up to d // 2 is zero, it is zero.  Only d0
  is read from the engine; every degree up to the top is computed, not
  mirrored.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import gcd
from operator import add

from .cartan import CartanGraph, check_int, check_type, weight_size
from .elements import KLRElement, KLRRing, WeightMismatchError, diagram_degree
from .permutations import (
    all_permutations,
    apply_perm_to_seq,
    canonical_word,
    identity,
    right_mult_letter,
)
from .sequences import check_weight, seq_enumerate


def degree_lower_bound(weight):
    """No basis element has degree below -sum nu_i (nu_i - 1).  Raises
    ValueError for a bad weight (see ``check_weight``)."""
    return -sum(n * (n - 1) for _, n in check_weight(weight))


@lru_cache(maxsize=None)
def _compositions(total, parts):
    """All dot vectors of `parts` exponents summing to total, as a tuple."""
    if parts == 0:
        return ((),) if total == 0 else ()
    return tuple((first,) + rest for first in range(total + 1)
                 for rest in _compositions(total - first, parts - 1))


def _diagrams(graph, weight):
    """The diagram table of R(nu): {bottom j: [(v, deg psi_v e(j))]}.

    The sequences j of nu and the permutations v both run in lexicographic
    order.  Every graded piece of R(nu) is read off this table, since the
    psi_v x^u e(j) are a basis (KL I, Thm 2.5) and x^u adds 2|u| to the
    degree.  Raises TypeError unless graph is a CartanGraph, GraphError
    for a vertex not in the graph and ValueError for a bad weight (see
    ``check_weight``), before any arithmetic.
    """
    check_type(CartanGraph, graph).require_vertices(v for v, _ in weight)
    seqs = seq_enumerate(weight)  # checks the weight
    perms = list(all_permutations(weight_size(weight)))
    return {j: [(v, diagram_degree(graph, j, v)) for v in perms]
            for j in seqs}


def _lifts(row, d):
    """(position, entry, dot count) for each entry of row, a list of
    tuples whose last item is a diagram degree, that dots lift to degree
    d.  A dot has degree 2 (KL I), so d minus the entry's degree must be
    even and >= 0, and half of it is the number of dots; this is the one
    place where the engine reads a dot's degree."""
    return [(pos, entry, rem // 2) for pos, entry in enumerate(row)
            if (rem := d - entry[-1]) >= 0 and not rem % 2]


def _keys(diagrams, d, m):
    """The basis keys (j, v, u) of degree d over the bottoms of a diagram
    table, for m strands.  j, v and the dot vectors u each come in
    lexicographic order, so the keys come sorted."""
    for j, row in diagrams.items():
        for _, (v, _), k in _lifts(row, d):
            for u in _compositions(k, m):
                yield j, v, u


def graded_basis(graph, weight, d):
    """All basis keys (sequence, permutation, dots) of degree d, sorted.

    Each call reads a new diagram table and returns a new list; nothing
    is kept between calls.  Raises ValueError for a degree that is not an
    int (``cartan.check_int``), GraphError for a vertex not in the graph
    and ValueError for a bad weight (see ``check_weight``).
    """
    weight = tuple(weight)
    diagrams = _diagrams(graph, weight)
    return list(_keys(diagrams, check_int(d, "degree"), weight_size(weight)))


def _is_central(g):
    """Is g in the centre Sym(nu) of R(nu) (KL I, Thm 2.9)?  It is iff g
    has dots only, and for each term (i, 1, u) and each strand k, the term
    (s_k i, 1, s_k u) has the same coefficient."""
    terms = g.terms
    for (i, w, u), c in terms.items():
        if w != identity(len(i)):
            return False
        for k in range(1, len(i)):
            if terms.get((right_mult_letter(i, k), w,
                          right_mult_letter(u, k))) != c:
                return False
    return True


class IdealSpec:
    """Homogeneous generators of a two-sided ideal of R(nu).

    ``weight`` is kept as nu, sorted with zero counts dropped.  ``central``
    is derived, not asserted: it is true iff every generator is central.
    ``top_rule`` says how the exact top degree of the quotient is known;
    only ``sym_plus_spec`` and ``cyclotomic_spec`` set it, from a theorem
    about the ideal they build (see the module docstring); it is never a
    constructor argument, so a spec built as ``IdealSpec(weight,
    generators)`` has none, and ``quotient_gdim`` computes its quotient
    up to the cutoff.
    Raises ValueError for a bad weight (see ``check_weight``), TypeError
    for a generator that is not a KLRElement, InhomogeneousError for one
    that is not homogeneous and WeightMismatchError for one that is not in
    R(nu).  The generators are read once, and ``degrees`` keeps the
    degree of each, in the order of ``generators``.
    """

    __slots__ = ("weight", "generators", "degrees", "central", "_top_rule")

    def __init__(self, weight, generators):
        nu = check_weight(weight)
        generators = list(generators)
        degrees = []
        for g in generators:
            # raises InhomogeneousError unless g is homogeneous
            degrees.append(check_type(KLRElement, g).degree())
            if g.weight != nu:
                raise WeightMismatchError(
                    f"generator over {g.weight} in an ideal of R({nu})")
        self.weight = nu
        self.generators = generators
        self.degrees = degrees
        self.central = all(map(_is_central, self.generators))
        self._top_rule = None

    @property
    def top_rule(self):
        """None, ("top", t) for a quotient whose top degree is t, or
        ("symmetric", d) for a symmetric algebra of degree d, whose top is
        d - d0 for its lowest nonzero degree d0."""
        return self._top_rule


def cyclotomic_spec(ring, weight, lam):
    """Dots-to-the-power lambda on the leftmost strand of every sequence.

    Each generator x_1^lambda_{i_1} e(i) is the one basis key
    (i, identity, (lambda_{i_1}, 0, ..., 0)), so its cost does not grow
    with lambda.  lam maps vertices to nonnegative integers (missing
    vertices count 0); any other value raises ValueError
    (``cartan.check_int``).  The
    quotient R^lambda(beta) is a symmetric algebra of degree
    d = 2 (lambda, beta) - (beta, beta) (Shan-Varagnolo-Vasserot), which
    is the spec's top rule.
    """
    weight = tuple(weight)
    lam = {v: check_int(n, "dot power", 0) for v, n in dict(lam).items()}
    check_type(KLRRing, ring).graph.require_vertices(
        [v for v, _ in weight] + list(lam))
    gens = []
    for seq in seq_enumerate(weight):
        if seq:
            dots = (lam.get(seq[0], 0),) + (0,) * (len(seq) - 1)
            gens.append(KLRElement(ring, {(seq, identity(len(seq)), dots): 1}))
    spec = IdealSpec(weight, gens)
    beta = spec.weight
    d = (2 * sum(lam.get(v, 0) * n for v, n in beta)
         - ring.graph.weight_pairing(beta, beta))
    spec._top_rule = ("symmetric", d)
    return spec


def sym_plus_spec(ring, weight):
    """Color-wise elementary symmetric dot polynomials, summed over sequences.

    These span the positive-degree part of the center, so the two-sided
    ideal they generate needs only one-sided multipliers.  The quotient
    has the basis psi_w x^u e(i), u in the Artin staircase (KL I, section
    2), so its top degree, the spec's top rule, is the highest degree of a
    dot-free diagram, sum_c n_c^2 - (nu, nu) / 2, plus sum_c n_c (n_c - 1).
    """
    weight = tuple(weight)
    check_type(KLRRing, ring).graph.require_vertices(v for v, _ in weight)
    seqs = seq_enumerate(weight)
    gens = []
    for color, n in weight:
        for t in range(1, n + 1):
            terms = {}
            for seq in seqs:
                m = len(seq)
                positions = [a for a in range(m) if seq[a] == color]
                for subset in combinations(positions, t):
                    u = tuple(1 if a in subset else 0 for a in range(m))
                    terms[(seq, identity(m), u)] = 1
            gens.append(KLRElement(ring, terms))
    spec = IdealSpec(weight, gens)
    # a crossing of two strands of colors c, c' has degree -(c . c'): -2
    # for one color, 1 along an edge, 0 otherwise.  psi_w e(j) crosses each
    # pair at most once, and the sorted j with its color blocks reversed
    # crosses every pair of two colors and no pair of one color, so the
    # highest diagram degree is sum_{c < c'} n_c n_c' (-c . c'), which is
    # sum_c n_c^2 - (nu, nu) / 2; the top staircase adds sum_c n_c (n_c - 1)
    nu = spec.weight
    spec._top_rule = ("top", sum(n * (2 * n - 1) for _, n in nu)
                      - ring.graph.weight_pairing(nu, nu) // 2)
    return spec


# -- exact rank ------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@lru_cache(maxsize=None, typed=True)
def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 2^64 with these bases.
    Memoized, so each span's check of one prime costs a lookup after the
    first."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _insert(echelon, row, prime=None):
    """Reduce a sparse row against the echelon; add it if it survives.

    ``row`` is a {column: value} dict with no zero values (reduced modulo
    prime over F_prime), and it is consumed.  ``echelon`` maps each leading
    column to the pivot row that owns it.  The row is reduced against the
    pivots until its leading column is free or it vanishes.  Over Q the
    step is fraction-free, a * row - f * pivot with a, f divided by their
    gcd, and the result is divided by the gcd of its entries, so entries
    stay small integers.  Over F_prime a pivot is scaled to leading entry
    1 and stored without it, so each step pops the row's lead f and
    subtracts f * pivot modulo prime from the rest of the row.  Returns
    True if the row became a new pivot.
    """
    if prime is not None:
        while row:
            lead = min(row)
            f = row.pop(lead)
            pivot = echelon.get(lead)
            if pivot is None:
                inv = pow(f, -1, prime)
                echelon[lead] = {col: c * inv % prime
                                 for col, c in row.items()}
                return True
            for col, p in pivot.items():
                c = (row.get(col, 0) - f * p) % prime
                if c:
                    row[col] = c
                else:
                    del row[col]
        return False
    while row:
        lead = min(row)
        f = row[lead]
        pivot = echelon.get(lead)
        if pivot is None:
            echelon[lead] = row
            return True
        a = pivot[lead]
        g = gcd(a, f)
        a, f = a // g, f // g
        if a != 1:
            row = {col: a * c for col, c in row.items()}
        for col, p in pivot.items():
            c = row.get(col, 0) - f * p
            if c:
                row[col] = c
            else:
                del row[col]
        g = gcd(*row.values())
        if g > 1:
            row = {col: c // g for col, c in row.items()}
    return False


def _sparse(items, prime=None):
    """{column: value} of the nonzero (column, value) pairs, modulo prime."""
    if prime is None:
        return {col: c for col, c in items if c}
    return {col: c % prime for col, c in items if c % prime}


def _rank(rows, prime, echelon):
    """Rank that sparse rows add to an echelon, over Q or F_prime.

    Each row is a {column: value} dict with no zero values, reduced modulo
    prime (see ``_sparse``); ``_insert`` reduces it into ``echelon``, which
    is extended in place, and consumes it.
    """
    size = len(echelon)
    for row in rows:
        _insert(echelon, row, prime)
    return len(echelon) - size


# -- the ideal, sector by sector -------------------------------------------

def _sector(key):
    """(top, bottom) sequences of a basis key, the idempotents around it."""
    i, w, _ = key
    return apply_perm_to_seq(w, i), i


class _IdealSpan:
    """The span of R G R for one quotient, shared across its degrees.

    ``diagrams`` is the diagram table of R(nu) (see ``_diagrams``), built
    once per span and read by all the rest: ``right`` is the table grouped
    by the top of each psi_v e(j), ``left(e)`` keeps the left vectors of
    degree e with their dead marks, ``_product`` caches each live nonzero
    product of a left vector and a dot-free right factor, built from
    the product of its prefix, and
    ``degree(d, last)`` reads the basis of degree d off ``right``, ranks the
    shifted products of degree d block by block, and marks the dead
    products (see the module docstring).  Ranks are over
    F_prime for a prime below 2^64, where ``is_prime`` is exact; any other
    prime raises ValueError, since Z/n is not a field for composite n, and
    so does a prime that is not an int (``cartan.check_int``).  Both
    ``quotient_gdim`` and ``ideal_degree_dim`` build their span here, so
    this is the one check of the field, of the types of the ring and the
    spec (``cartan.check_type``), and of the generators' ring: a
    generator of a ring over another graph (``CartanGraph.__eq__``) raises
    WeightMismatchError, as its keys would be read as other elements.
    """

    def __init__(self, ring, spec, prime=None):
        if prime is not None and not (check_int(prime, "prime") < 2 ** 64
                                      and is_prime(prime)):
            raise ValueError(f"field characteristic {prime} is not a prime "
                             f"below 2^64")
        self.ring = check_type(KLRRing, ring)
        self.prime = prime
        self.lb = degree_lower_bound(check_type(IdealSpec, spec).weight)
        self.pieces = {}  # degree -> [(top, bottom, piece)]
        for g, dg in zip(spec.generators, spec.degrees):
            if g.ring.graph != ring.graph:  # its keys mean another ring
                raise WeightMismatchError("elements of rings over other graphs")
            split = {}
            for key, c in g.terms.items():
                split.setdefault(_sector(key), {})[key] = c
            pieces = self.pieces.setdefault(dg, [])
            for (top, bottom), terms in split.items():
                pieces.append((top, bottom, KLRElement(ring, terms)))
        self.central = spec.central
        self.m = weight_size(spec.weight)
        self.diagrams = _diagrams(ring.graph, spec.weight)
        # top of psi_v e(j) -> [(j, v, degree)] over all sequences j of nu:
        # the record of each right factor's top, which the bases read too
        self.right = {}
        for j, row in self.diagrams.items():
            for v, dv in row:
                self.right.setdefault(apply_perm_to_seq(v, j), []).append(
                    (j, v, dv))
        # top -> {v: position of psi_v e(j) in right[top]}: one j per v
        self._position = {top: {v: pos for pos, (_, v, _) in enumerate(row)}
                          for top, row in self.right.items()}
        # lowest degree of a left vector
        self.low = min(self.pieces, default=0) + (0 if spec.central
                                                  else self.lb)
        self._left = {}
        self._products = {}
        # bottom of a left vector -> degree left to the right factor and
        # its shifts -> [(position in right[bottom], (j, v, degree), |t|)]
        # from _lifts; see _spanning
        self._reach = {}

    def left(self, e):
        """Left vectors of degree e, as [(top, bottom, terms, dead, reach)]
        with the terms reduced modulo the prime, ``dead`` the vector's dead
        marks, one byte per right factor in ``right[bottom]``, and
        ``reach`` the span's record of the right factors that its bottom
        reaches (see ``_spanning``), shared by every vector with that
        bottom.

        These are the nonzero candidates as they come: the generator
        pieces of degree e if the spec is central, and otherwise each
        multiplier of degree e - deg g times each piece g.  The multipliers
        of a piece are the basis keys whose bottom is the piece's top, read
        from that one row of the diagram table.  None is
        reduced against another: a redundant one only adds rows for
        ``degree`` to reduce (see the module docstring).
        """
        hit = self._left.get(e)
        if hit is not None:
            return hit
        ring, prime = self.ring, self.prime
        if self.central:
            out = [(top, bottom, terms)
                   for top, bottom, piece in self.pieces.get(e, ())
                   if (terms := _sparse(piece.terms.items(), prime))]
        else:
            out = []
            ident = identity(self.m)
            for dg, pieces in self.pieces.items():
                for top, bottom, piece in pieces:
                    # a piece made of dots only commutes with the dots of
                    # a multiplier: psi_w x^u g = l x^u for l = psi_w g, and
                    # l x^u R lies in l R, so only dot-free ones count
                    dots_only = all(w == ident for _, w, _ in piece.terms)
                    for akey in _keys({top: self.diagrams[top]}, e - dg,
                                      self.m):
                        if dots_only and any(akey[2]):
                            continue
                        ag = ring.multiply(KLRElement(ring, {akey: 1}), piece)
                        terms = _sparse(ag.terms.items(), prime)
                        if terms:
                            out.append((_sector(akey)[0], bottom, terms))
        reach = self._reach
        out = self._left[e] = [
            (top, bottom, terms, bytearray(len(self.right[bottom])),
             reach.setdefault(bottom, {}))
            for top, bottom, terms in out]
        return out

    def _product(self, key, left, last):
        """Terms of a left vector times psi_v e(j), reduced modulo the
        prime, for key (e, index, position of psi_v e(j) in
        ``right[bottom]``), in a scan whose last degree is ``last``.

        The product is one right step psi_d from the product of its
        prefix psi_{v s_d} e(s_d j), with d the last letter of
        canonical(v).  The prefix has the top of psi_v e(j), so it is in
        the same row ``right[bottom]``, and its product is read through
        this method, so it is cached like any live product.  A prefix
        that is dead, or whose degree lies above ``last``, is not read:
        the product is then built from the left vector letter by letter
        (see the module docstring).  The steps call the ring's
        ``_right_word`` directly: the terms are normal forms whose bottom
        is the top of psi_v e(j), so ``multiply_terms``'s filter and copy
        would only cost time.  A nonzero product is cached until it dies;
        a zero one is marked dead at once, since so are all its shifts.
        """
        terms = self._products.get(key)
        if terms is not None:
            return terms
        e, index, pos = key
        _, bottom, terms, dead, _ = left
        row = self.right[bottom]
        v = row[pos][1]
        word = canonical_word(v)
        if word:
            d = word[-1]
            prefix = self._position[bottom][right_mult_letter(v, d)]
            if not dead[prefix] and e + row[prefix][2] <= last:
                terms = self._product((e, index, prefix), left, last)
                word = (d,)
            terms = self.ring._right_word(terms, word)
            if self.prime is not None:
                terms = _sparse(terms.items(), self.prime)
        if terms:
            self._products[key] = terms
        else:
            dead[pos] = 1
        return terms

    def _spanning(self, d):
        """The products whose shifts by x^t reach degree d: a list of
        (product key, left vector, block, |t|) for each live one, the block
        being (top, bottom) of the product, and the number of shifts of the
        dead ones, which are skipped without a key.

        Every left vector of degree e with a given bottom reaches the same
        right factors, those of degree d - e - 2|t|, and every later degree
        asks again, so the parity and size of the shift are tested once
        per (bottom, d - e) in the span's ``_reach`` record, in position
        order, and a left vector only reads its dead marks.  The products
        come in the order (degree, left vector, position), on which the
        ranks' row counts depend."""
        live, dead_shifts = [], 0
        for e in range(self.low, d - self.lb + 1):
            rest = d - e
            for index, left in enumerate(self.left(e)):
                top, bottom, _, dead, reach = left
                factors = reach.get(rest)
                if factors is None:
                    factors = reach[rest] = _lifts(self.right[bottom], rest)
                for pos, (j, _, _), size in factors:
                    if dead[pos]:
                        dead_shifts += len(_compositions(size, self.m))
                    else:
                        live.append(((e, index, pos), left, (top, j), size))
        return live, dead_shifts

    def degree(self, d, last):
        """Counts for degree d: basis size, spanning products, rows
        reduced, and the rank of those rows, for a scan whose last degree
        is ``last`` (see ``_product``).

        The basis is read off ``right``, block by (top, bottom) block,
        with no key's top computed again.  Each block keeps one echelon,
        and each row goes into it as soon as it is built: first the shifts
        of lower products, then the products of degree d itself.  A
        product of degree d whose row adds no rank is dead: its mark is
        set, its cached terms dropped, and its shifts are never built,
        though they still count as spanning products (see the module
        docstring).
        """
        blocks = {}  # (top, bottom) -> {basis key: column}
        for top, factors in self.right.items():
            for _, (j, v, _), k in _lifts(factors, d):
                block = blocks.setdefault((top, j), {})
                for u in _compositions(k, self.m):
                    block[j, v, u] = len(block)
        echelons = {sector: {} for sector in blocks}
        live, products = self._spanning(d)
        rows = 0
        # a stable sort: products of degree d (|t| = 0) go last
        live.sort(key=lambda p: not p[3])
        for key, left, block, size in live:
            shifts = _compositions(size, self.m)
            products += len(shifts)
            columns = blocks.get(block)
            added = 0
            if columns and len(echelons[block]) < len(columns):
                terms = self._product(key, left, last)
                if terms:
                    new = [{columns[i, w, tuple(map(add, u, t))]: c
                            for (i, w, u), c in terms.items()}
                           for t in shifts]
                    rows += len(new)
                    added = _rank(new, self.prime, echelons[block])
            if not (added or size):
                left[3][key[2]] = 1
                self._products.pop(key, None)
        return {"basis": sum(map(len, blocks.values())), "products": products,
                "rows": rows, "rank": sum(map(len, echelons.values()))}


def ideal_degree_dim(ring, spec, d, prime=None):
    """Dimension of the degree-d piece of the two-sided ideal.

    One degree of the sector span that ``quotient_gdim`` shares across all
    degrees: the left ideal R G spanned by the basis times the generator
    pieces, each left vector times each dot-free right factor psi_v e(j),
    shifted by the dots x^t, and the rank taken one (top, bottom) block at
    a time.  Left degrees run up to d minus the ring's degree lower bound,
    which is exhaustive, since no right factor lies below it.  Raises
    ValueError for a degree that is not an int (``cartan.check_int``) and
    for a prime that is not a prime below 2^64.
    """
    check_int(d, "degree")
    return _IdealSpan(ring, spec, prime).degree(d, d)["rank"]


class GradedDimReport:
    """Per-degree dimensions of a quotient, from its lowest degree up to
    its top or the cutoff, whichever is lower.

    ``complete`` is the one reading of how the report ends: true when the
    top is known and the cutoff reached it, so every degree above the
    computed ones is zero by theorem.  Otherwise the report is truncated
    at the cutoff, and ``top`` says what the top is, or None when the
    scan stopped before it could be known.  ``stabilized`` is the window
    test of ``quotient_gdim``; neither ``__str__`` nor ``to_json`` reads
    it.
    """

    __slots__ = ("degrees", "top", "stabilized", "cutoff", "field", "stats")

    def __init__(self, degrees, stabilized, cutoff, field, stats=None,
                 top=None):
        self.degrees = degrees  # map degree -> dimension, as computed
        # every degree above top is zero by theorem; None when unknown
        self.top = top
        self.stabilized = stabilized
        self.cutoff = cutoff
        self.field = field
        # map degree -> {"basis", "products", "rows", "rank"} counts
        self.stats = stats or {}

    @property
    def complete(self):
        """Is every degree of the quotient in the report?"""
        return self.top is not None and self.top <= self.cutoff

    def total(self):
        return sum(self.degrees.values())

    def to_json(self):
        return {"degrees": {str(d): n for d, n in sorted(self.degrees.items())},
                "top": self.top,
                "complete": self.complete,
                "cutoff": self.cutoff,
                "field": self.field,
                "stats": {str(d): s for d, s in sorted(self.stats.items())}}

    def __str__(self):
        lines = [f"deg {d:>4}: {n}" for d, n in sorted(self.degrees.items())
                 if n]
        if not lines:
            lines = ["all degrees zero"]
        lines.append(f"total (q=1): {self.total()}")
        top = "not known" if self.top is None else self.top
        lines.append(f"complete: top degree {top}" if self.complete else
                     f"truncated at cutoff {self.cutoff}; top degree {top}")
        return "\n".join(lines)


def quotient_gdim(ring, spec, cutoff=10, window=3, prime=None):
    """Per-degree dimensions of R(nu)/ideal, from the degree lower bound
    up to the cutoff or the exact top degree, whichever comes first.

    A spec with a top rule (see the module docstring) is computed no
    higher than its top: a fixed top for R(nu)/Sym+, and d - d0 for a
    cyclotomic quotient, a symmetric algebra of degree d, once the scan
    up from the lower bound meets its lowest nonzero degree d0; if every
    degree up to d // 2 is zero, the quotient is zero and the scan stops
    there.  Every degree above the top is zero by theorem, not by
    computation.  ``degrees`` and ``stats`` hold exactly the computed
    degrees, and ``top`` is the top degree (d // 2 for a zero cyclotomic
    quotient, known at any cutoff when d // 2 lies below the lower
    bound), or None when the spec has no rule or the cutoff stopped the
    scan before it could decide.  The report is complete when the top
    is known and no higher than the cutoff, and truncated otherwise.

    ``stabilized`` is true when the last `window` consecutive degrees up
    to the cutoff are zero; a degree above the top counts as zero, and so
    does one below the lower bound, where R(nu) has no basis element.
    Raises ValueError for a cutoff that is not an int and a window that
    is not an int >= 1 (``cartan.check_int``), and for a prime that is
    not a prime below 2^64 (checked by ``_IdealSpan``, as are the types
    of ring and spec).
    """
    # window and stabilized stay, with this meaning, only because the
    # benchmark's quotients workload (perfbench/workloads.py) passes the
    # one and checks the other; they go once it no longer does (ROADMAP
    # item 10, then the library half of item 2)
    check_int(cutoff, "cutoff")
    check_int(window, "stabilization window", 1)
    span = _IdealSpan(ring, spec, prime)
    rule, value = spec.top_rule or (None, None)
    # a symmetric quotient that is zero up to d // 2 is zero: until d0
    # shows, d // 2 is where the scan stops
    top = value // 2 if rule == "symmetric" else value
    stats = {}
    k = span.lb
    while k <= cutoff and (top is None or k <= top):
        # the last degree the scan can reach: the top once it is known,
        # and d - k while d0 is not, in case d0 is k
        bound = value - k if rule == "symmetric" else top
        stats[k] = s = span.degree(
            k, cutoff if bound is None else min(cutoff, bound))
        if rule == "symmetric" and s["rank"] < s["basis"]:
            rule, top = "top", value - k  # k is d0
        k += 1
    if rule == "symmetric" and k <= top:
        top = None  # the cutoff stopped the scan at or below d // 2
    degrees = {k: s["basis"] - s["rank"] for k, s in stats.items()}
    # the window's degrees below the lower bound or from k on are zeros
    stabilized = not any(degrees[j] for j in
                         range(max(cutoff - window + 1, span.lb), k))
    field = "Q" if prime is None else f"F_{prime}"
    return GradedDimReport(degrees, stabilized, cutoff, field, stats, top)
