"""Seeded inputs, tasks and answer checks for the three klr workloads.

* ``forms``: the bilinear form of divided monomials on A2 by its two
  independent routes (hom-space dimension and coproduct recursion), plus
  ``klr tight --json`` sent in-process through ``klr.cli.main``.
* ``quotients``: graded dimensions of quotients of R(nu) by the central
  ideal and by cyclotomic ideals, over Q and over F_p, checked against
  (m!)^2 totals and the closed form for cyclotomic nilHecke quotients.
* ``rewriting``: random products a*b, where b is a basis element and a a
  basis element or a generator word, checked against the polynomial
  representation, and the nilHecke idempotents e_m.

Inputs are generated here from the seed without importing klr, so the same
seed gives the same inputs whatever the library does.  Tasks reach klr
only through module attributes looked up at call time (``klr.pair_monomials``
and so on), so that a tracer that replaces those attributes sees every call.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random


class CheckFailed(Exception):
    """A task produced an answer that disagrees with its independent check."""


def _check(ok, message):
    if not ok:
        raise CheckFailed(message)


# -- sequences and permutations (own copies, independent of klr) ---------------

def weight_of(seq):
    counts = {}
    for v in seq:
        counts[v] = counts.get(v, 0) + 1
    return tuple(sorted(counts.items()))


def divided_weight(theta):
    return weight_of([v for v, n in theta for _ in range(n)])


def arrangements(weight):
    """All distinct sequences with the given multiplicities, sorted."""
    letters = [v for v, n in weight for _ in range(n)]
    return sorted(set(itertools.permutations(letters)))


def inversions(w):
    return sum(1 for a in range(len(w)) for b in range(a + 1, len(w))
               if w[a] > w[b])


def move(w, seq):
    """The entry at position a moves to position w[a] (klr's convention)."""
    out = [None] * len(seq)
    for a, v in enumerate(seq):
        out[w[a]] = v
    return tuple(out)


def format_divided(theta):
    return " ".join(v if n == 1 else f"{v}^({n})" for v, n in theta)


# -- forms ---------------------------------------------------------------------

# Pairs drawn from each stratum of total size; sizes 1-3 are taken whole.
# Within a size, pairs are drawn systematically by number of parts.
# Size 5 holds 4 818 of the 5 526 pairs and ~95% of the sweep's cost.
FORMS_PAIRS_PER_SIZE = {1: None, 2: None, 3: None, 4: 100, 5: 300}
FORMS_CROSS_PAIRS = 16
# Monomials i^(a) j^(b) i^(c) sent to `klr tight`, per strand count.  The
# hom route scans all m! permutations, so 9 strands cost ~0.35 s and the
# fixed 10-strand monomial ~3 s.
FORMS_TIGHT_PER_STRANDS = {3: 1, 4: 1, 5: 2, 6: 2, 7: 2, 8: 2, 9: 1}
FORMS_TIGHT_FIXED = (2, 6, 2)


def monomials_of_total(verts, total):
    out = []

    def rec(prefix, rem):
        if rem == 0:
            out.append(tuple(prefix))
            return
        for v in verts:
            for n in range(1, rem + 1):
                rec(prefix + [(v, n)], rem - n)

    rec([], total)
    return out


def tight_candidates(m):
    """(a, b, c) >= 1 with a+b+c = m whose i^(a) j^(b) i^(c) has a clean answer.

    For b >= a+c the monomial is a canonical basis element, so it is tight.
    For b = a+c-1 it splits into two, so its self-pairing has constant term
    2.  Smaller b gives a self-pairing with negative powers of q, which
    ``klr tight`` rejects, so those are not sent.
    """
    return [(a, m - a - c, c) for a in range(1, m) for c in range(1, m)
            if m - a - c >= 1 and m - a - c >= a + c - 1]


def parts(pair):
    """Sort key of a pair: its number of divided parts, which sets the depth
    of the coproduct recursion and so most of the pair's cost."""
    t1, t2 = pair
    return len(t1) + len(t2), t1, t2


def systematic_sample(rng, members, quota):
    """Every (len/quota)-th member from a random offset.  On members sorted
    by cost, every seed draws the same mix of cheap and dear ones."""
    step = len(members) / quota
    offset = rng.random() * step
    return [members[int(offset + k * step)] for k in range(quota)]


def forms_tasks(seed):
    rng = random.Random(f"forms:{seed}")
    by_weight = {}
    by_size = {}
    for total in range(1, 6):
        monos = monomials_of_total(("i", "j"), total)
        by_size[total] = monos
        for mono in monos:
            by_weight.setdefault(divided_weight(mono), []).append(mono)
    strata = {}
    for monos in by_weight.values():
        for t1 in monos:
            for t2 in monos:
                size = sum(n for _, n in t1)
                strata.setdefault(size, []).append((t1, t2))
    tasks = []
    for size, members in sorted(strata.items()):
        quota = FORMS_PAIRS_PER_SIZE[size]
        if quota is not None:
            members = systematic_sample(rng, sorted(members, key=parts),
                                        quota)
        tasks += [("pair", t1, t2) for t1, t2 in members]
    while sum(t[0] == "cross" for t in tasks) < FORMS_CROSS_PAIRS:
        monos = by_size[rng.randint(2, 5)]
        t1, t2 = rng.choice(monos), rng.choice(monos)
        if divided_weight(t1) != divided_weight(t2):
            tasks.append(("cross", t1, t2))
    for m, count in FORMS_TIGHT_PER_STRANDS.items():
        for abc in rng.sample(tight_candidates(m), count):
            tasks.append(("tight", abc))
    tasks.append(("tight", FORMS_TIGHT_FIXED))
    rng.shuffle(tasks)
    return tasks


class Forms:
    name = "forms"

    def __init__(self, seed):
        self.tasks = forms_tasks(seed)

    def setup(self, klr, workdir):
        import klr.cli  # noqa: F401  (the workload drives the CLI in-process)
        self.klr = klr
        graph = klr.a2()
        self.ring = klr.KLRRing(graph)
        self.graph_path = f"{workdir}/a2.json"
        with open(self.graph_path, "w") as fh:
            json.dump(graph.to_json(), fh)

    def rings(self):
        return [self.ring]

    def run(self, task):
        klr = self.klr
        if task[0] == "pair":
            _, t1, t2 = task
            hom = klr.pair_monomials(self.ring, t1, t2)
            rec = klr.pair_recursive(self.ring, t1, t2)
            _check(hom == rec, f"routes disagree on {t1} x {t2}")
        elif task[0] == "cross":
            _, t1, t2 = task
            _check(klr.pair_monomials(self.ring, t1, t2).is_zero()
                   and klr.pair_recursive(self.ring, t1, t2).is_zero(),
                   f"cross-weight pair {t1} x {t2} is not zero")
        else:
            self._tight(task[1])

    def _tight(self, abc):
        a, b, c = abc
        text = format_divided((("i", a), ("j", b), ("i", c)))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.klr.cli.main(["tight", "-g", self.graph_path,
                                      "--json", text])
        _check(code == 0, f"tight {text} exited {code}: {err.getvalue()}")
        report = json.loads(out.getvalue())
        want = b >= a + c
        _check(report["tight"] is want, f"tight {text}: got {report}")
        _check(want or report["constant_term"] == 2,
               f"tight {text}: constant term {report['constant_term']}")


# -- quotients -----------------------------------------------------------------

# (kind, graph, weight, lambda, cutoff over F_p, cutoff over Q).  Cutoffs are
# the top nonzero degree plus the window of 3, so that stabilization shows,
# except for NH_3, which is trimmed (per-degree cost grows ~3x per step; NH_3
# with lambda = 2 at cutoff 10 takes minutes over Q).
QUOTIENT_CASES = [
    ("symplus", "a1", (("i", 1),), None, 3, 3),
    ("symplus", "a1", (("i", 2),), None, 5, 5),
    ("symplus", "a1", (("i", 3),), None, 9, 9),
    ("symplus", "a2", (("i", 1), ("j", 1)), None, 4, 4),
    ("symplus", "a2", (("i", 2), ("j", 1)), None, 7, 7),
    ("symplus", "a2", (("i", 1), ("j", 2)), None, 7, 7),
    ("cyclotomic", "a1", (("i", 1),), 1, 3, 3),
    ("cyclotomic", "a1", (("i", 1),), 2, 5, 5),
    ("cyclotomic", "a1", (("i", 1),), 3, 7, 7),
    ("cyclotomic", "a1", (("i", 1),), 4, 9, 9),
    ("cyclotomic", "a1", (("i", 2),), 2, 5, 5),
    ("cyclotomic", "a1", (("i", 2),), 3, 7, 7),
    ("cyclotomic", "a1", (("i", 3),), 3, 4, 2),
    ("cyclotomic", "a1", (("i", 3),), 2, 2, 0),
]
QUOTIENT_WINDOW = 3


def _pmul(p, r):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in r.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _gauss_binomial_q2(n, k):
    """Gaussian binomial [n choose k] in v = q^2, without the balancing shift."""
    if k < 0 or k > n:
        return {}
    if k == 0 or k == n:
        return {0: 1}
    out = dict(_gauss_binomial_q2(n - 1, k - 1))
    for e, c in _gauss_binomial_q2(n - 1, k).items():
        out[e + 2 * k] = out.get(e + 2 * k, 0) + c
    return out


def nilhecke_closed_form(n, lam):
    """Graded dimension {degree: dim} of the cyclotomic quotient NH_n^lam.

    NH_n^lam is a matrix algebra of size [n]! over H*(Gr(n, lam)) (Lauda,
    arXiv 0803.3652), so its graded dimension is
    ([n]!)^2 q^{n(lam-n)} [lam choose n], which is 0 when lam < n.  The
    factor q^{n(lam-n)} cancels the shift of the balanced binomial.
    """
    if lam < n:
        return {}
    fact = {0: 1}
    for k in range(2, n + 1):
        fact = _pmul(fact, {k - 1 - 2 * j: 1 for j in range(k)})
    return _pmul(_pmul(fact, fact), _gauss_binomial_q2(lam, n))


def _is_prime(n):
    if n < 2:
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):  # deterministic for n < 3.4e14
        if a % n == 0:
            continue
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


def quotient_prime(seed):
    """A prime just below 2^31, drawn from the seed."""
    rng = random.Random(f"quotients:{seed}")
    p = rng.randrange(2 ** 31 - 2 ** 24, 2 ** 31) | 1
    while not _is_prime(p):
        p -= 2
    return p


def quotient_tasks(seed):
    """F_p first, then Q.  Inputs are fixed; the seed draws the prime.

    The two passes share each ring's kernel caches, so the Q pass reads
    what the F_p pass wrote.
    """
    prime = quotient_prime(seed)
    return ([("fp", prime) + case for case in QUOTIENT_CASES]
            + [("q", None) + case for case in QUOTIENT_CASES])


class Quotients:
    name = "quotients"

    def __init__(self, seed):
        self.tasks = quotient_tasks(seed)

    def setup(self, klr, workdir):
        self.klr = klr
        self.ring = {"a1": klr.KLRRing(klr.single_vertex()),
                     "a2": klr.KLRRing(klr.a2())}

    def rings(self):
        return list(self.ring.values())

    def run(self, task):
        klr = self.klr
        field, prime, kind, graph, weight, lam, cut_fp, cut_q = task
        ring = self.ring[graph]
        cutoff = cut_fp if field == "fp" else cut_q
        if kind == "symplus":
            spec = klr.sym_plus_spec(ring, weight)
        else:
            spec = klr.cyclotomic_spec(ring, weight, {weight[0][0]: lam})
        rep = klr.quotient_gdim(ring, spec, cutoff=cutoff,
                                window=QUOTIENT_WINDOW, prime=prime)
        label = f"{kind} {weight} lambda={lam} over {field}"
        if kind == "symplus":
            m = sum(n for _, n in weight)
            _check(rep.stabilized, f"{label} did not stabilize")
            _check(rep.total() == math.factorial(m) ** 2,
                   f"{label}: total {rep.total()}")
            return
        want = nilhecke_closed_form(weight[0][1], lam)
        got = {d: n for d, n in rep.degrees.items() if n}
        _check(got == {d: n for d, n in want.items() if d <= cutoff},
               f"{label}: {got} != closed form {want}")
        tail = range(cutoff - QUOTIENT_WINDOW + 1, cutoff + 1)
        _check(rep.stabilized == all(d not in want for d in tail),
               f"{label}: stabilized={rep.stabilized}")


# -- rewriting -----------------------------------------------------------------

REWRITING_WEIGHTS = [
    ("a1", (("i", 6),)),
    ("a2", (("i", 3), ("j", 2))),
    ("a2", (("i", 3), ("j", 3))),
    ("cycle3", (("1", 2), ("2", 2), ("3", 2))),
]
REWRITING_PRODUCTS_PER_WEIGHT = 450
REWRITING_POOL = 2
# Permutations are drawn uniformly among those with at most this many
# inversions.  The polynomial check costs exponentially more per crossing
# (on cycle(3) every crossing of distinct labels multiplies by a linear
# form), and with unrestricted permutations a single product's check can
# take seconds, so run_s would swing ~25% from seed to seed.
REWRITING_MAX_LENGTH = 5
REWRITING_WORD_DOTS = 2
REWRITING_CHECK_DEGREE = 1
REWRITING_IDEMPOTENTS = range(2, 8)


def monomials_up_to(m, degree):
    out = []
    for d in range(degree + 1):
        for combo in itertools.combinations_with_replacement(range(m), d):
            e = [0] * m
            for pos in combo:
                e[pos] += 1
            out.append(tuple(e))
    return out


def word(rng, m):
    """Generator tokens, bottom to top: 1 to REWRITING_MAX_LENGTH crossings
    and up to REWRITING_WORD_DOTS dots, in random order."""
    tokens = [("C", rng.randint(1, m - 1))
              for _ in range(rng.randint(1, REWRITING_MAX_LENGTH))]
    tokens += [("D", rng.randint(1, m))
               for _ in range(rng.randint(0, REWRITING_WORD_DOTS))]
    rng.shuffle(tokens)
    return tuple(tokens)


def rewriting_tasks(seed):
    """Per weight, as many basis products as word products.  Each kind is
    drawn systematically, by crossings (which set most of the cost of a
    product and of its check), from a pool of REWRITING_POOL times as many
    random candidates, so every seed has the same mix of cheap and dear
    products."""
    rng = random.Random(f"rewriting:{seed}")
    tasks, lengths = [], {}
    for graph, weight in REWRITING_WEIGHTS:
        seqs = arrangements(weight)
        m = len(seqs[0])
        if m not in lengths:
            lengths[m] = {w: inversions(w)
                          for w in itertools.permutations(range(m))}
        length = lengths[m]
        perms = [w for w, n in length.items() if n <= REWRITING_MAX_LENGTH]
        for kind in ("product", "word"):
            pool = []
            for _ in range(REWRITING_POOL * REWRITING_PRODUCTS_PER_WEIGHT // 2):
                ib = rng.choice(seqs)
                wb = rng.choice(perms)
                ub = tuple(rng.choices((0, 1), k=m))
                # a sits on top of b, so a starts where b ends.  A word
                # product's a is a seeded generator word instead of a basis
                # key, so that evaluate_word and act_word carry load too.
                if kind == "word":
                    tokens = word(rng, m)
                    akey = (move(wb, ib), tokens)
                    cost = sum(t == "C" for t, _ in tokens)
                else:
                    wa = rng.choice(perms)
                    akey = (move(wb, ib), wa, tuple(rng.choices((0, 1), k=m)))
                    cost = length[wa]
                task = (kind, graph, akey, (ib, wb, ub))
                pool.append((cost + length[wb], task))
            pool.sort(key=lambda entry: entry[0])
            tasks += [task for _, task in systematic_sample(
                rng, pool, REWRITING_PRODUCTS_PER_WEIGHT // 2)]
    rng.shuffle(tasks)
    # e_m first, so that its cost does not depend on how much of the heap
    # the seeded products have filled (cyclic GC walks every live object).
    return [("idempotent", m) for m in REWRITING_IDEMPOTENTS] + tasks


def _padd(target, p):
    for e, c in p.items():
        v = target.get(e, 0) + c
        if v:
            target[e] = v
        else:
            target.pop(e, None)


class Rewriting:
    name = "rewriting"

    def __init__(self, seed):
        self.tasks = rewriting_tasks(seed)

    def setup(self, klr, workdir):
        self.klr = klr
        graphs = {"a1": klr.single_vertex(), "a2": klr.a2(),
                  "cycle3": klr.cycle(3)}
        self.ring = {name: klr.KLRRing(g) for name, g in graphs.items()}
        self.orientation = {name: klr.default_orientation(g)
                            for name, g in graphs.items()}
        # e_m gets a ring of its own so that its ~50k cache entries do not
        # warm the i^6 products.
        self.em_ring = klr.KLRRing(klr.single_vertex())
        self.monomials = {m: monomials_up_to(m, REWRITING_CHECK_DEGREE)
                          for m in (5, 6)}

    def rings(self):
        return list(self.ring.values()) + [self.em_ring]

    def run(self, task):
        if task[0] == "idempotent":
            m = task[1]
            em = self.em_ring.nilhecke_em(m, "i")
            _check(em * em == em, f"e_{m} is not idempotent")
            return
        kind, graph, akey, bkey = task
        klr = self.klr
        ring, orient = self.ring[graph], self.orientation[graph]
        b = ring.element({bkey: 1})
        if kind == "word":
            top, tokens = akey
            a = ring.evaluate_word(top, tokens)

            def act_a(seq, poly):
                if seq != top:  # a is 0 off its bottom sequence
                    return {}
                seq2, poly2 = klr.act_word(ring.graph, orient, seq, tokens,
                                           poly)
                return {seq2: poly2}
        else:
            a = ring.element({akey: 1})

            def act_a(seq, poly):
                return klr.act(orient, a, seq, poly)
        ab = ring.multiply(a, b)
        src = bkey[0]
        for mono in self.monomials[len(src)]:
            lhs = klr.act(orient, ab, src, {mono: 1})
            rhs = {}
            for seq, poly in klr.act(orient, b, src, {mono: 1}).items():
                for seq2, poly2 in act_a(seq, poly).items():
                    _padd(rhs.setdefault(seq2, {}), poly2)
            rhs = {s: p for s, p in rhs.items() if p}
            _check(lhs == rhs, f"a*b disagrees with polyrep on x^{mono}: "
                               f"a={akey} b={bkey}")


WORKLOADS = {w.name: w for w in (Forms, Quotients, Rewriting)}
