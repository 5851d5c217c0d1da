"""Command-line front end.

Subcommands: multiply, gdim, pair, char, shuffle, comul, tight, check,
quotient.  Sequences are written as juxtaposed single-character vertices
("iji") or whitespace-separated identifiers; divided powers as "i^(2)".
Generator words are "<seq>: C1 D2 ...", tokens applied bottom to top.
Exit codes: 0 success, 1 a verification suite failed, 2 bad usage or input.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys

from .cartan import CartanGraph, GraphError, weight_of_seq
from .characters import (
    char_projective,
    comultiply,
    cycle_alpha,
    orthogonal_idempotents_check,
    pair_monomials,
    pair_recursive,
    serre_check,
    tight,
)
from .elements import KLRRing, WeightMismatchError
from .laurent import LaurentPoly
from .permutations import word_to_perm
from .polyrep import (
    act,
    act_word,
    default_orientation,
    monomials_up_to,
    reversed_orientation,
)
from .quotients import cyclotomic_spec, quotient_gdim, sym_plus_spec
from .sequences import expand, format_divided, format_seq, shuffles


class CLIError(Exception):
    """Bad input; reported on stderr with exit code 2."""


# -- parsing ---------------------------------------------------------------

def parse_seq(text):
    """A plain sequence: juxtaposed characters, or whitespace-separated."""
    text = text.strip()
    if not text:
        return ()
    if " " in text or "\t" in text:
        return tuple(text.split())
    return tuple(text)


_BLOCK = re.compile(r"^(?P<v>[^^\s]+)(?:\^\((?P<n>\d+)\))?$")


def parse_divided(text):
    """A divided sequence: blocks like i, j^(2), space-separated or joined."""
    text = text.strip()
    if not text:
        return ()
    if " " in text or "\t" in text:
        parts = text.split()
    elif "^" in text:
        # single-character vertices with inline powers: i^(2)ji^(3)
        parts = re.findall(r".\^\(\d+\)|.", text)
    else:
        parts = list(text)
    out = []
    for part in parts:
        m = _BLOCK.match(part)
        if not m:
            raise CLIError(f"cannot parse divided-power block {part!r}")
        n = int(m.group("n")) if m.group("n") else 1
        if n < 1:
            raise CLIError(f"divided power must be >= 1 in {part!r}")
        out.append((m.group("v"), n))
    return tuple(out)


def parse_weight(text):
    """A weight like "i:2,j:1"."""
    out = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if ":" not in piece:
            raise CLIError(f"weight entry {piece!r} is not vertex:count")
        v, _, n = piece.partition(":")
        try:
            n = int(n)
        except ValueError:
            raise CLIError(f"bad multiplicity in {piece!r}")
        if n < 0:
            raise CLIError(f"negative multiplicity in {piece!r}")
        out[v.strip()] = n
    return tuple(sorted((v, n) for v, n in out.items() if n))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n):
    """Deterministic Miller-Rabin, exact for n < 2^64 with these bases."""
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


def parse_field(text):
    """None for "Q", the prime p for "Fp:<p>" with p prime and below 2^64."""
    if not text or text == "Q":
        return None
    m = re.match(r"^Fp:(\d+)$", text)
    if not m:
        raise CLIError("--field must be Q or Fp:<p>")
    p = int(m.group(1))
    if not (p < 2 ** 64 and is_prime(p)):
        raise CLIError(f"--field Fp:{p} needs a prime p below 2^64")
    return p


_TOKEN = re.compile(r"^([CD])(\d+)$")


def parse_word(text):
    """A generator word "seq: C1 D2"; returns (sequence, token list)."""
    if ":" not in text:
        raise CLIError(f"word {text!r} must be '<seq>: <tokens>'")
    head, _, tail = text.partition(":")
    seq = parse_seq(head)
    tokens = []
    for piece in tail.split():
        m = _TOKEN.match(piece)
        if not m:
            raise CLIError(f"bad token {piece!r} (expected C<k> or D<k>)")
        tokens.append((m.group(1), int(m.group(2))))
    return seq, tokens


_TERM = re.compile(r"^(?:(?P<coeff>\d+)\*)?(?P<body>[^\[\]]*)\[(?P<seq>[^\[\]]*)\]$")


def parse_element(ring, text):
    """Inverse of KLRElement.__str__ (round-trip format)."""
    text = text.strip()
    if text == "0":
        return ring.zero()
    pieces = []  # (sign, term text)
    rest = text
    sign = 1
    if rest.startswith("-"):
        sign = -1
        rest = rest[1:].strip()
    while rest:
        m = re.search(r"\s+[+-]\s+", rest)
        if m:
            pieces.append((sign, rest[:m.start()]))
            sign = 1 if rest[m.start():m.end()].strip() == "+" else -1
            rest = rest[m.end():]
        else:
            pieces.append((sign, rest))
            rest = ""
    terms = {}
    for sgn, piece in pieces:
        m = _TERM.match(piece.strip())
        if not m:
            raise CLIError(f"cannot parse term {piece!r}")
        coeff = sgn * int(m.group("coeff") or 1)
        seq = parse_seq(m.group("seq"))
        mlen = len(seq)
        word = []
        u = [0] * mlen
        body = m.group("body")
        if body not in ("1", ""):
            for factor in body.split("*"):
                fm = re.match(r"^([sx])(\d+)(?:\^(\d+))?$", factor)
                if not fm:
                    raise CLIError(f"cannot parse factor {factor!r}")
                kind, k, e = fm.group(1), int(fm.group(2)), fm.group(3)
                if kind == "s":
                    if e:
                        raise CLIError(f"crossings carry no exponent: {factor!r}")
                    word.append(k)
                else:
                    if not 1 <= k <= mlen:
                        raise CLIError(f"dot index out of range in {factor!r}")
                    u[k - 1] += int(e) if e else 1
        w = word_to_perm(tuple(word), mlen)
        key = (seq, w, tuple(u))
        terms[key] = terms.get(key, 0) + coeff
    return ring.element(terms)


def load_graph(path):
    try:
        return CartanGraph.load(path)
    except (OSError, json.JSONDecodeError, GraphError) as exc:
        raise CLIError(f"cannot load graph {path}: {exc}")


def pick_orientation(graph, spec):
    if spec in (None, "default"):
        return default_orientation(graph)
    if spec == "reversed":
        return reversed_orientation(graph)
    try:
        with open(spec) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CLIError(f"cannot load orientation {spec}: {exc}")
    out = {}
    for pair in data:
        tail, head = pair
        if frozenset((tail, head)) not in graph.edges:
            raise CLIError(f"orientation names non-edge {pair}")
        out[frozenset((tail, head))] = (tail, head)
    if set(out) != set(graph.edges):
        raise CLIError("orientation must cover every edge exactly once")
    return out


def _print_gdim(gd, args):
    if args.json:
        obj = gd.to_json()
        if args.expand:
            series = gd.series(args.expand)
            obj["series"] = {str(e): c for e, c in sorted(series.coeffs.items())}
        print(json.dumps(obj))
        return
    print(gd)
    if args.expand:
        print(f"series up to q^{args.expand}: {gd.series(args.expand)}")


# -- subcommands -----------------------------------------------------------

def cmd_multiply(args):
    graph = load_graph(args.graph)
    ring = KLRRing(graph)
    factors = []
    for spec in args.word or []:
        seq, tokens = parse_word(spec)
        factors.append(ring.evaluate_word(seq, tokens))
    for path in args.elem or []:
        try:
            with open(path) as fh:
                factors.append(ring.element_from_json(json.load(fh)))
        except (OSError, json.JSONDecodeError, KeyError) as exc:
            raise CLIError(f"cannot load element {path}: {exc}")
    if not factors:
        raise CLIError("need at least one --word or --elem")
    out = factors[0]
    try:
        for f in factors[1:]:
            out = out * f
    except WeightMismatchError as exc:
        raise CLIError(str(exc))
    if args.json:
        print(json.dumps(out.to_json()))
    else:
        print(out)
    return 0


def cmd_gdim(args):
    graph = load_graph(args.graph)
    ring = KLRRing(graph)
    try:
        gd = ring.gdim_hom(parse_seq(args.target), parse_seq(args.source))
    except WeightMismatchError as exc:
        raise CLIError(str(exc))
    _print_gdim(gd, args)
    return 0


def cmd_pair(args):
    graph = load_graph(args.graph)
    ring = KLRRing(graph)
    gd = pair_monomials(ring, parse_divided(args.left),
                        parse_divided(args.right))
    _print_gdim(gd, args)
    return 0


def cmd_char(args):
    graph = load_graph(args.graph)
    ring = KLRRing(graph)
    cv = char_projective(ring, parse_divided(args.monomial))
    if args.json:
        print(json.dumps(cv.to_json()))
    else:
        for seq, v in sorted(cv.values.items()):
            print(f"{format_seq(seq)}: {v}")
    return 0


def cmd_shuffle(args):
    graph = load_graph(args.graph)
    left = expand(parse_divided(args.left))
    right = expand(parse_divided(args.right))
    coeffs = {}
    for seq, deg in shuffles(graph, left, right):
        p = coeffs.get(seq, LaurentPoly.zero()) + LaurentPoly.q_power(deg)
        coeffs[seq] = p
    if args.json:
        print(json.dumps({format_seq(s): {str(e): c for e, c in
                                          sorted(p.coeffs.items())}
                          for s, p in sorted(coeffs.items())}))
    else:
        print(", ".join(f"{format_seq(s)}: {p}"
                        for s, p in sorted(coeffs.items())))
    return 0


def cmd_comul(args):
    graph = load_graph(args.graph)
    terms = comultiply(graph, parse_divided(args.monomial))
    if args.json:
        print(json.dumps([{"left": format_divided(l) or "1",
                           "right": format_divided(r) or "1",
                           "coeff": {str(e): c for e, c in sorted(c2.coeffs.items())}}
                          for l, r, c2 in terms]))
    else:
        for l, r, c in terms:
            print(f"({c}) * {format_divided(l) or '1'} (x) {format_divided(r) or '1'}")
    return 0


def cmd_tight(args):
    graph = load_graph(args.graph)
    ring = KLRRing(graph)
    report = tight(ring, parse_divided(args.monomial), cutoff=args.cutoff)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report)
    return 0


def cmd_quotient(args):
    graph = load_graph(args.graph)
    ring = KLRRing(graph)
    weight = parse_weight(args.nu)
    if (args.cyclotomic is None) == (not args.symplus):
        raise CLIError("specify exactly one of --cyclotomic or --symplus")
    if args.symplus:
        spec = sym_plus_spec(ring, weight)
    else:
        spec = cyclotomic_spec(ring, weight, dict(parse_weight(args.cyclotomic)))
    prime = parse_field(args.field)
    if args.cutoff < args.window:
        raise CLIError("--cutoff must be >= --window")
    report = quotient_gdim(ring, spec, cutoff=args.cutoff,
                           window=args.window, prime=prime)
    if args.json:
        print(json.dumps(report.to_json()))
    else:
        print(report)
    return 0


# -- check suites ----------------------------------------------------------

def _label_seqs(graph, m):
    out = [()]
    for _ in range(m):
        out = [s + (v,) for s in out for v in graph.vertices]
    return out


def _check_relations(ring):
    """All defining relations on 2 and 3 strands, every labeling."""
    graph = ring.graph
    failures = []

    def expect(name, got, want):
        if got != want:
            failures.append((name, got))

    for seq in _label_seqs(graph, 2):
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
    for seq in _label_seqs(graph, 3):
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


def _check_oracle(ring, trials=200, degree_bound=3, seed=0):
    graph = ring.graph
    rng = random.Random(seed)
    failures = []
    orientations = [default_orientation(graph), reversed_orientation(graph)]
    seqs = [s for m in (2, 3, 4) for s in _label_seqs(graph, m)]
    for t in range(trials):
        seq = rng.choice(seqs)
        m = len(seq)
        tokens = []
        for _ in range(rng.randint(0, 6)):
            if rng.random() < 0.6 and m > 1:
                tokens.append(("C", rng.randint(1, m - 1)))
            else:
                tokens.append(("D", rng.randint(1, m)))
        elem = ring.evaluate_word(seq, tokens)
        for orient in orientations:
            for mono in monomials_up_to(m, degree_bound):
                want_seq, want = act_word(graph, orient, seq, tokens,
                                          {mono: 1})
                got = act(orient, elem, seq, {mono: 1})
                want_map = {want_seq: want} if want else {}
                if got != want_map:
                    failures.append((f"word {tokens} on {format_seq(seq)}",
                                     mono))
                    break
    return failures


def cmd_check(args):
    graph = load_graph(args.graph)
    ring = KLRRing(graph)
    suite = args.suite
    failures = []
    if suite == "relations":
        failures = _check_relations(ring)
        print(f"relations on 2 and 3 strands: "
              f"{'PASS' if not failures else 'FAIL'}")
    elif suite == "serre":
        for i in graph.vertices:
            for j in graph.vertices:
                if i >= j:
                    continue
                ok = serre_check(ring, i, j)
                print(f"serre {i},{j}: {'PASS' if ok else 'FAIL'}")
                if not ok:
                    failures.append((f"serre {i},{j}", None))
    elif suite == "idempotents":
        found = False
        for e in graph.edges:
            i, j = sorted(e)
            for x, y in ((i, j), (j, i)):
                found = True
                ok = orthogonal_idempotents_check(ring, x, y)
                print(f"idempotents on {x}{y}{x}: "
                      f"{'PASS' if ok else 'FAIL'}")
                if not ok:
                    failures.append((f"idempotents {x}{y}{x}", None))
        if not found:
            raise CLIError("graph has no edges; idempotent suite needs one")
    elif suite.startswith("cycle:"):
        try:
            n = int(suite.split(":", 1)[1])
        except ValueError:
            raise CLIError(f"bad cycle suite {suite!r}")
        alpha, sq = cycle_alpha(ring, n)
        if n % 2:
            ok = sq.is_zero()
            print(f"alpha^2 = 0 {'PASS' if ok else 'FAIL'}")
        else:
            ok = sq == -2 * alpha
            print(f"alpha^2 = -2*alpha {'PASS' if ok else 'FAIL'}")
        if not ok:
            failures.append((f"cycle:{n}", str(sq)))
    elif suite == "oracle":
        failures = _check_oracle(ring)
        print(f"oracle agreement (200 random words, both orientations): "
              f"{'PASS' if not failures else 'FAIL'}")
    else:
        raise CLIError(f"unknown suite {suite!r} (relations, serre, "
                       f"idempotents, cycle:<n>, oracle)")
    for name, detail in failures:
        extra = f" [{detail}]" if detail is not None else ""
        print(f"  counterexample: {name}{extra}", file=sys.stderr)
    return 1 if failures else 0


# -- entry point -----------------------------------------------------------

def build_parser():
    top = argparse.ArgumentParser(
        prog="klr", description="Exact computations in diagrammatic rings "
        "attached to a Cartan graph.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("-g", "--graph", required=True,
                       help="path to graph JSON {vertices, edges}")
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")
        p.add_argument("--expand", type=int, default=0, metavar="N",
                       help="also print series expansion up to q^N")

    p = sub.add_parser("multiply", help="multiply generator words / elements")
    common(p)
    p.add_argument("--word", action="append", metavar="'seq: C1 D2'",
                   help="generator word (repeatable, left factor first)")
    p.add_argument("--elem", action="append", metavar="FILE",
                   help="element JSON file (repeatable)")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("gdim", help="graded dimension of a hom sector")
    common(p)
    p.add_argument("target")
    p.add_argument("source")
    p.set_defaults(func=cmd_gdim)

    p = sub.add_parser("pair", help="bilinear form of two monomials")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("char", help="character of a monomial projective")
    common(p)
    p.add_argument("monomial")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("shuffle", help="quantum shuffle coefficients")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("comul", help="coproduct of a monomial")
    common(p)
    p.add_argument("monomial")
    p.set_defaults(func=cmd_comul)

    p = sub.add_parser("tight", help="tightness of a monomial")
    common(p)
    p.add_argument("monomial")
    p.add_argument("--cutoff", type=int, default=20)
    p.set_defaults(func=cmd_tight)

    p = sub.add_parser("check", help="run a verification suite")
    common(p)
    p.add_argument("suite",
                   help="relations | serre | idempotents | cycle:<n> | oracle")
    p.add_argument("--orientation", default="default",
                   help="default | reversed | path to [[tail,head]...] JSON")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quotient", help="graded dims of an ideal quotient")
    common(p)
    p.add_argument("--nu", required=True, metavar="'i:2,j:1'")
    p.add_argument("--cyclotomic", metavar="'i:3'",
                   help="dot powers on the leftmost strand")
    p.add_argument("--symplus", action="store_true",
                   help="quotient by the symmetric-polynomial ideal")
    p.add_argument("--cutoff", type=int, default=10)
    p.add_argument("--window", type=int, default=3)
    p.add_argument("--field", default="Q", help="Q or Fp:<p>")
    p.set_defaults(func=cmd_quotient)
    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, AssertionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
