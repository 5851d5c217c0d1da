"""Command-line front end.

Subcommands: multiply, gdim, pair, char, shuffle, comul, tight, check,
quotient.  Sequences, divided sequences and weights are read over the
loaded graph by ``sequences.parse_seq``, ``parse_divided`` and
``parse_weight``, whose module docstring states the text form: "iji" or
"v1 v2", divided powers as "i^(2)", weights as "i:2,j:1".  Generator
words are "<seq>: C1 D2 ...", tokens applied bottom to top.
``main`` loads the graph, builds the ring, runs the subcommand and sets
the exit code: 0 success, 1 a verification suite found a counterexample,
2 bad usage or input (one ``error:`` line on stderr), 141 (128 + SIGPIPE,
as a shell reports a process that SIGPIPE stopped) when the reader of
stdout closed it early, with nothing on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import verify
from .cartan import CartanGraph
from .characters import char_projective, comultiply, pair_monomials, tight
from .elements import KLRRing
from .laurent import LaurentPoly
from .quotients import (
    cyclotomic_spec,
    quotient_gdim,
    sym_plus_spec,
)
from .sequences import (expand, format_divided, format_seq, parse_divided,
                        parse_seq, parse_weight, shuffles)


EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


# -- parsing ---------------------------------------------------------------

def parse_field(text):
    """None for "Q", the integer p for "Fp:<p>".  ``quotient_gdim`` checks
    that p is a prime below 2^64."""
    if not text or text == "Q":
        return None
    m = re.match(r"^Fp:(\d+)$", text)
    if not m:
        raise ValueError("--field must be Q or Fp:<p>")
    return int(m.group(1))


_TOKEN = re.compile(r"^([CD])(\d+)$")


def parse_word(text, graph):
    """A generator word "seq: C1 D2" over graph; returns (sequence, token
    list)."""
    if ":" not in text:
        raise ValueError(f"word {text!r} must be '<seq>: <tokens>'")
    head, _, tail = text.partition(":")
    seq = parse_seq(head, graph)
    tokens = []
    for piece in tail.split():
        m = _TOKEN.match(piece)
        if not m:
            raise ValueError(f"bad token {piece!r} (expected C<k> or D<k>)")
        tokens.append((m.group(1), int(m.group(2))))
    return seq, tokens


def load_graph(path):
    try:
        return CartanGraph.load(path)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot load graph {path}: {exc}")


def _print(obj, args):
    """obj.to_json() as JSON with --json, else str(obj)."""
    print(json.dumps(obj.to_json()) if args.json else obj)


def _print_gdim(gd, args):
    if args.json:
        obj = gd.to_json()
        if args.expand is not None:
            obj["series"] = gd.series(args.expand).to_json()
        print(json.dumps(obj))
        return
    print(gd)
    if args.expand is not None:
        print(f"series up to q^{args.expand}: {gd.series(args.expand)}")


# -- subcommands: each takes (ring, args) and returns None on success ------

def cmd_multiply(ring, args):
    factors = []
    for spec in args.word or []:
        seq, tokens = parse_word(spec, ring.graph)
        factors.append(ring.evaluate_word(seq, tokens))
    for path in args.elem or []:
        try:
            with open(path) as fh:
                factors.append(ring.element_from_json(json.load(fh)))
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load element {path}: {exc}")
    if not factors:
        raise ValueError("need at least one --word or --elem")
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    _print(out, args)


def cmd_gdim(ring, args):
    _print_gdim(ring.gdim_hom(parse_seq(args.target, ring.graph),
                              parse_seq(args.source, ring.graph)), args)


def cmd_pair(ring, args):
    _print_gdim(pair_monomials(ring, parse_divided(args.left, ring.graph),
                               parse_divided(args.right, ring.graph)), args)


def cmd_char(ring, args):
    _print(char_projective(ring, parse_divided(args.monomial, ring.graph)),
           args)


def cmd_shuffle(ring, args):
    left = expand(parse_divided(args.left, ring.graph))
    right = expand(parse_divided(args.right, ring.graph))
    coeffs = {}
    for seq, deg in shuffles(ring.graph, left, right):
        p = coeffs.get(seq, LaurentPoly.zero()) + LaurentPoly.q_power(deg)
        coeffs[seq] = p
    if args.json:
        print(json.dumps({format_seq(s, ring.graph): p.to_json()
                          for s, p in sorted(coeffs.items())}))
    else:
        print(", ".join(f"{format_seq(s, ring.graph)}: {p}"
                        for s, p in sorted(coeffs.items())))


def cmd_comul(ring, args):
    terms = comultiply(ring.graph, parse_divided(args.monomial, ring.graph))
    if args.json:
        print(json.dumps([{"left": format_divided(l) or "1",
                           "right": format_divided(r) or "1",
                           "coeff": c.to_json()}
                          for l, r, c in terms]))
    else:
        for l, r, c in terms:
            print(f"({c}) * {format_divided(l) or '1'} (x) {format_divided(r) or '1'}")


def cmd_tight(ring, args):
    _print(tight(ring, parse_divided(args.monomial, ring.graph)), args)


def cmd_quotient(ring, args):
    weight = parse_weight(args.nu)
    if (args.cyclotomic is None) == (not args.symplus):
        raise ValueError("specify exactly one of --cyclotomic or --symplus")
    if args.symplus:
        spec = sym_plus_spec(ring, weight)
    else:
        spec = cyclotomic_spec(ring, weight, dict(parse_weight(args.cyclotomic)))
    prime = parse_field(args.field)
    _print(quotient_gdim(ring, spec, cutoff=args.cutoff,
                         window=args.window, prime=prime), args)


def cmd_check(ring, args):
    lines, failures = verify.run(ring, args.suite)
    for line in lines:
        print(line)
    for name, detail in failures:
        extra = f" [{detail}]" if detail is not None else ""
        print(f"  counterexample: {name}{extra}", file=sys.stderr)
    if failures:
        return 1


# -- entry point -----------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on the first call and then reused:
    parse_args keeps no state in it between calls."""
    top = argparse.ArgumentParser(
        prog="klr", description="Exact computations in diagrammatic rings "
        "attached to a Cartan graph.")
    sub = top.add_subparsers(dest="command", required=True)

    graph = argparse.ArgumentParser(add_help=False)
    graph.add_argument("-g", "--graph", required=True,
                       help="path to graph JSON {vertices, edges}")
    out = argparse.ArgumentParser(add_help=False, parents=[graph])
    out.add_argument("--json", action="store_true",
                     help="machine-readable output")
    graded = argparse.ArgumentParser(add_help=False, parents=[out])
    graded.add_argument("--expand", type=int, metavar="N",
                        help="also print series expansion up to q^N")

    p = sub.add_parser("multiply", parents=[out],
                       help="multiply generator words / elements")
    p.add_argument("--word", action="append", metavar="'seq: C1 D2'",
                   help="generator word (repeatable, left factor first)")
    p.add_argument("--elem", action="append", metavar="FILE",
                   help="element JSON file (repeatable); every --word "
                        "factor comes before every --elem factor, whatever "
                        "their order on the command line")
    p.set_defaults(func=cmd_multiply)

    p = sub.add_parser("gdim", parents=[graded],
                       help="graded dimension of a hom sector")
    p.add_argument("target")
    p.add_argument("source")
    p.set_defaults(func=cmd_gdim)

    p = sub.add_parser("pair", parents=[graded],
                       help="bilinear form of two monomials")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_pair)

    p = sub.add_parser("char", parents=[out],
                       help="character of a monomial projective")
    p.add_argument("monomial")
    p.set_defaults(func=cmd_char)

    p = sub.add_parser("shuffle", parents=[out],
                       help="quantum shuffle coefficients")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("comul", parents=[out], help="coproduct of a monomial")
    p.add_argument("monomial")
    p.set_defaults(func=cmd_comul)

    p = sub.add_parser("tight", parents=[out], help="tightness of a monomial")
    p.add_argument("monomial")
    p.set_defaults(func=cmd_tight)

    p = sub.add_parser("check", parents=[graph],
                       help="run a verification suite")
    p.add_argument("suite", help=" | ".join(verify.SUITES))
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quotient", parents=[out],
                       help="graded dims of an ideal quotient")
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
    args = build_parser().parse_args(argv)
    try:
        code = args.func(KLRRing(load_graph(args.graph)), args) or 0
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # send what is still buffered nowhere, so that the flush at exit
        # cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
