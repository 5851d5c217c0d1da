"""The CLI's exit contract as one table of command lines.

``GRAPHS`` maps a name to a graph JSON object.  Each row of ``CASES`` is
(command line, exit code, stdout, stderr), exact; in the command line and
in stderr, ``@name`` stands for the path of a file holding ``GRAPHS[name]``
(``write_graphs``, ``resolve``).  ``ok`` builds a row that exits 0 with no
stderr, ``bad`` one that exits 2 with one ``error:`` line and no stdout,
and ``usage`` one that argparse refuses: exit 2, its usage lines and its
error line, wrapped to 80 columns (``COLUMNS``) by both runners.
Cases that need a monkeypatch, a subprocess, an environment variable or
an element file stay in ``test_cli.py``.

``tests/test_cli.py`` runs every row in-process through ``klr.cli.main``.
Run as a script, with no arguments, this module writes ``GRAPHS`` to a
temporary directory and runs every row through the ``klr`` on PATH, each
with a 20 s timeout; it prints every mismatch and exits 1 if there is any.
Run it after ``pip install .`` from outside the checkout, so that the
installed package answers.  It imports only the standard library.
"""

import json
import os
import re
import shlex
import subprocess
import sys
import tempfile


def _cycle(n):
    names = [str(k) for k in range(1, n + 1)]
    return {"vertices": names,
            "edges": [[a, names[k % n]] for k, a in enumerate(names, 1)]}


GRAPHS = {
    "a1": {"vertices": ["i"], "edges": []},
    "a2": {"vertices": ["i", "j"], "edges": [["i", "j"]]},
    "a1xa1": {"vertices": ["i", "j"], "edges": []},
    "cycle3": _cycle(3),
    "cycle4": _cycle(4),
    "cycle12": _cycle(12),
    "ab": {"vertices": ["ab", "c"], "edges": [["ab", "c"]]},
    "empty": {"vertices": [], "edges": []},
    "ints": {"vertices": [1, 2], "edges": [[1, 2]]},
    "string": {"vertices": "ij", "edges": []},
    "twice": {"vertices": ["i", "i"], "edges": []},
    "spaced": {"vertices": ["a b", "c"], "edges": [["a b", "c"]]},
}


def ok(command, out):
    return command, 0, out + "\n", ""


def bad(command, message):
    return command, 2, "", f"error: {message}\n"


def usage(command, message):
    return command, 2, "", (
        "usage: klr [-h]\n           {multiply,gdim,pair,char,shuffle,comul,"
        f"tight,check,quotient}} ...\nklr: error: {message}\n")


def _report(top, degrees, cutoff=10, field="Q"):
    """The --json line of a complete quotient report, from one (degree,
    dimension, basis, products, rows, rank) tuple per degree."""
    return json.dumps({
        "degrees": {str(d): n for d, n, *_ in degrees}, "top": top,
        "complete": True, "cutoff": cutoff, "field": field, "stats": {
            str(d): dict(zip(("basis", "products", "rows", "rank"), counts))
            for d, _, *counts in degrees}})


ORACLE = ("oracle agreement (every right step and dot slide on 2 to 4 "
          "strands, on the Artin basis, both orientations): PASS")
QUOTIENT_I3 = ("deg   -6: 1\ndeg   -4: 4\ndeg   -2: 8\ndeg    0: 10\n"
               "deg    2: 8\ndeg    4: 4\ndeg    6: 1\ntotal (q=1): 36\n"
               "complete: top degree 6")
UNKNOWN_K = "unknown vertex 'k'"
NEGATIVE = "vertex count -1 is not an integer >= 0"
ONE_KIND = "specify exactly one of --cyclotomic or --symplus"

CASES = [
    ok("gdim -g @a1 i i", "1 / (1-q^2)"),
    # --expand 0 is a cutoff like any other, not the absent option
    ok("gdim -g @a1 i i --expand 0", "1 / (1-q^2)\nseries up to q^0: 1"),
    ok("gdim -g @a1 --json --expand 0 i i",
       json.dumps({"num": {"0": 1}, "den": [1], "series": {"0": 1}})),
    ok("gdim -g @a1 --json i i", json.dumps({"num": {"0": 1}, "den": [1]})),
    ok("gdim -g @a1 ii ii --expand 4",
       "(q^-2 + 1) / ((1-q^2)^2)\nseries up to q^4: q^-2 + 3 + 5*q^2 + 7*q^4"),
    ok("gdim -g @a2 --expand 3 iji iij",
       "(q^-1 + q) / ((1-q^2)^3)\nseries up to q^3: q^-1 + 4*q + 9*q^3"),
    ok("gdim -g @a2 iji iij", "(q^-1 + q) / ((1-q^2)^3)"),
    # 20 strands: the hom route's cost follows the runs, not 2^m
    ok('tight -g @a2 "i^(4) j^(12) i^(4)"', "TIGHT"),
    ok('tight -g @a2 "i j^(2) i"', "TIGHT"),
    ok('tight -g @a1 "i^(3)"', "TIGHT"),
    ok("tight -g @a2 iji", "NOT TIGHT: constant term 2"),
    # the exact NOT TIGHT path with a negative lowest term, which the
    # benchmark's tight monomials never reach; such self-pairings are valid
    ok('tight -g @a2 "i i"', "NOT TIGHT: lowest term q^-2 has coefficient 1"),
    ok('tight -g @a2 --json "i i"', json.dumps(
        {"monomial": "i i", "tight": False, "constant_term": 3,
         "first_bad": [-2, 1]})),
    ok('tight -g @a2 "i^(2) j i^(2)"',
       "NOT TIGHT: lowest term q^-4 has coefficient 2"),
    ok('tight -g @a2 --json "i^(2) j i^(2)"', json.dumps(
        {"monomial": "i^(2) j i^(2)", "tight": False, "constant_term": 24,
         "first_bad": [-4, 2]})),
    ok('tight -g @a2 "i^(2) i^(3)"',
       "NOT TIGHT: lowest term q^-12 has coefficient 1"),
    bad('tight -g @a2 "i^x"', "cannot parse divided-power block '^'"),
    ok("pair -g @a1 i i", "1 / (1-q^2)"),
    ok('pair -g @a1 "i^(2)" "i^(2)"', "1 / ((1-q^2)(1-q^4))"),
    ok('pair -g @a2 --json --expand 4 "i^(2) j" "i j i"', json.dumps(
        {"num": {"0": 1, "2": 1}, "den": [1, 1, 2],
         "series": {"0": 1, "2": 3, "4": 6}})),
    ok('pair -g @a2 "i^(2) j" "i j i"', "(1 + q^2) / ((1-q^2)^2(1-q^4))"),
    # adjacent blocks on one vertex merge into one run of the hom route,
    # its multinomial path
    ok('pair -g @a2 "i^(2) i" "i i^(2)"',
       "(q^-4 + q^-2 + 1) / ((1-q^2)^2(1-q^4))"),
    ok('pair -g @a2 --expand 5 "i^(2) i" "i i^(2)"',
       "(q^-4 + q^-2 + 1) / ((1-q^2)^2(1-q^4))\n"
       "series up to q^5: q^-4 + 3*q^-2 + 7 + 12*q^2 + 19*q^4"),
    # the pairing's contract: 0 across two weights, one error line for an
    # unknown vertex, and a divided power on one side only
    ok('pair -g @a2 "i j" "i i"', "0"),
    bad('pair -g @a2 "i z" "j i"', "unknown vertex 'z'"),
    bad("pair -g @a2 i k", UNKNOWN_K),
    ok('pair -g @a2 "i^(2) j" "j i i"', "(q + q^3) / ((1-q^2)^2(1-q^4))"),
    # a vertex name may be longer than one character: on cycle(12), 11 is
    # one strand and "1 1" two, each written as it is read
    ok("char -g @cycle12 11", "11: 1 / (1-q^2)"),
    ok('char -g @cycle12 "1 1"', "1 1: (q^-2 + 1) / ((1-q^2)^2)"),
    ok('char --json -g @cycle12 "1 1"',
       json.dumps({"1 1": {"num": {"-2": 1, "0": 1}, "den": [1, 1]}})),
    ok("char -g @cycle12 12", "12: 1 / (1-q^2)"),
    ok('char -g @cycle12 "1^(2)"', "1 1: (q^-1 + q) / ((1-q^2)(1-q^4))"),
    ok('pair -g @cycle12 "1 12" "12 1"', "q / ((1-q^2)^2)"),
    ok("shuffle -g @cycle12 1 1", "1 1: q^-2 + 1"),
    ok("gdim -g @ab ab ab", "1 / (1-q^2)"),
    ok('gdim -g @ab "ab c" "c ab"', "q / ((1-q^2)^2)"),
    ok("shuffle -g @ab ab c", "ab c: 1, c ab: q"),
    ok('multiply -g @ab --word "ab c: C1" --word "c ab: C1"',
       "x1[c ab] + x2[c ab]"),
    bad("gdim -g @ab cab cab", "unknown vertex 'cab'"),
    # the hom route names every label of its source that is not a vertex,
    # as the pairing does
    bad('char -g @a2 "y z"', "unknown vertex 'y' or 'z'"),
    bad('gdim -g @a2 "y z" "z y"', "unknown vertex 'z' or 'y'"),
    # one line per sequence
    ok('char -g @a1 "i^(2)"', "ii: (q^-1 + q) / ((1-q^2)(1-q^4))"),
    ok("char -g @a2 ij", "ij: 1 / ((1-q^2)^2)\nji: q / ((1-q^2)^2)"),
    ok("char -g @a2 --json ij", json.dumps(
        {"ij": {"num": {"0": 1}, "den": [1, 1]},
         "ji": {"num": {"1": 1}, "den": [1, 1]}})),
    ok("comul -g @a2 ij --json", json.dumps(
        [{"left": "1", "right": "i j", "coeff": {"0": 1}},
         {"left": "j", "right": "i", "coeff": {"1": 1}},
         {"left": "i", "right": "j", "coeff": {"0": 1}},
         {"left": "i j", "right": "1", "coeff": {"0": 1}}])),
    ok("comul -g @a2 ij",
       "(1) * 1 (x) i j\n(q) * j (x) i\n(1) * i (x) j\n(1) * i j (x) 1"),
    bad("comul -g @a2 k", UNKNOWN_K),
    ok("shuffle -g @a2 i j", "ij: 1, ji: q"),
    ok("shuffle -g @a2 --json i j",
       json.dumps({"ij": {"0": 1}, "ji": {"1": 1}})),
    # an unknown vertex is an error even where nothing crosses it
    bad('shuffle -g @a2 k ""', UNKNOWN_K),
    bad('shuffle -g @a2 "" k', UNKNOWN_K),
    bad("shuffle -g @a2 i k", UNKNOWN_K),
    # shuffle expands its sequences without checking them, so a divided
    # power below 1 must meet the library's one check
    bad('shuffle -g @a2 "i^(0)" j',
        "divided-power block size 0 is not an integer >= 1"),
    ok('multiply -g @a2 --word "ii: C1 C1"', "0"),
    ok('multiply -g @a2 --word "ji: C1" --word "ij: C1"', "x1[ij] + x2[ij]"),
    ok('multiply -g @a1 --word "i: D1"', "x1[i]"),
    bad("multiply -g @a2", "need at least one --word or --elem"),
    bad('multiply -g @a2 --word "ij: Z9"',
        "bad token 'Z9' (expected C<k> or D<k>)"),
    bad('multiply -g @a2 --word "ij: C1" --word "ii: C1"',
        "weights differ: (('i', 1), ('j', 1)) vs (('i', 2),)"),
    bad('multiply -g /nonexistent.json --word "i: D1"',
        "cannot load graph /nonexistent.json: [Errno 2] No such file or "
        "directory: '/nonexistent.json'"),
    # the kernel and the oracle share one check of generator words
    bad('multiply -g @a2 --word "ij: C5"',
        "crossing 5 out of range for 2 strands"),
    bad('multiply -g @a2 --word "ij: C2"',
        "crossing 2 out of range for 2 strands"),
    bad('multiply -g @a2 --word "ij: D3"',
        "dot position 3 out of range for 2 strands"),
    bad('multiply -g @a2 --word "ik: C1"', UNKNOWN_K),
    bad('multiply -g @a2 --word "ij C1"',
        "word 'ij C1' must be '<seq>: <tokens>'"),
    # the oracle suite takes every right step and dot slide on 2 to 4
    # strands, reading each kernel table entry there; on a1xa1 a double
    # crossing of distinct labels is the identity, on cycle(3) an edge
    *(ok(f"check -g @{g} oracle", ORACLE) for g in ("a1xa1", "a2", "cycle3")),
    # on a2 and cycle(3) the braid cases tell a right step that keeps the
    # canonical word (one key, not cached) from one that needs a braid move
    *(ok(f"check -g @{g} relations", "relations on 2 and 3 strands: PASS")
      for g in ("a1xa1", "a2", "cycle3")),
    # the suites checked through klr.characters; on a1xa1, i.j = 0 gives
    # n = 1 - i.j = 1 in the one Serre formula, the orthogonal case
    ok("check -g @a2 serre", "serre i,j: PASS"),
    ok("check -g @a1xa1 serre", "serre i,j: PASS"),
    ok("check -g @cycle3 serre",
       "serre 1,2: PASS\nserre 1,3: PASS\nserre 2,3: PASS"),
    ok("check -g @a2 idempotents",
       "idempotents on iji: PASS\nidempotents on jij: PASS"),
    ok("check -g @cycle3 idempotents",
       "idempotents on 121: PASS\nidempotents on 212: PASS\n"
       "idempotents on 131: PASS\nidempotents on 313: PASS\n"
       "idempotents on 232: PASS\nidempotents on 323: PASS"),
    ok("check -g @cycle3 cycle:3", "alpha^2 = 0 PASS"),
    ok("check -g @cycle4 cycle:4", "alpha^2 = -2*alpha PASS"),
    # the two routes of the bilinear form on every pair of divided
    # monomials of one weight (adjacent blocks on one vertex included)
    *(ok(f"check -g @{g} pairing:{nu}", f"pairing routes on weight {nu}, "
         f"{n} x {n} divided monomials: PASS")
      for g, nu, n in (("a2", "i:2,j:2", 14), ("a1xa1", "i:2,j:2", 14),
                       ("cycle3", "1:2,2:1,3:1", 18))),
    bad("check -g @a2 pairing:i:x", "bad multiplicity in 'i:x'"),
    bad("check -g @a2 pairing:k:1", UNKNOWN_K),
    bad("check -g @a2 pairing:", "pairing suite needs a nonzero weight"),
    # the idempotent suite needs an edge, and a1xa1 has none
    bad("check -g @a1xa1 idempotents",
        "graph has no edges; idempotent suite needs one"),
    bad("check -g @a1 idempotents",
        "graph has no edges; idempotent suite needs one"),
    # one vertex has no Serre pair to check
    bad("check -g @a1 serre",
        "graph has fewer than two vertices; serre suite needs two"),
    # no vertex to draw a random word from, or to label strands with
    bad("check -g @empty oracle",
        "graph has no vertices; oracle suite needs one"),
    bad("check -g @empty relations",
        "graph has no vertices; relations suite needs one"),
    # the unknown-suite error lists the names of the suite table
    bad("check -g @a2 nosuch", "unknown suite 'nosuch' (relations, serre, "
        "idempotents, cycle:<n>, oracle, pairing:<nu>)"),
    bad("check -g @a2 nonsense", "unknown suite 'nonsense' (relations, "
        "serre, idempotents, cycle:<n>, oracle, pairing:<nu>)"),
    bad("check -g @a2 cycle:x", "bad cycle suite 'cycle:x'"),
    bad("check -g @cycle3 cycle:4", "unknown vertex '4'"),
    # a graph of k vertices lacks one of '1'..'k+1': no cycle of a million
    # vertices is built to find that out
    bad("check -g @cycle3 cycle:1000000", "unknown vertex '4'"),
    bad("check -g @cycle4 cycle:3", "ring is not over the n-cycle"),
    # a vertex must be a string
    bad("check -g @ints relations",
        "cannot load graph @ints: vertex 1 is not a string"),
    bad("check -g @twice relations",
        "cannot load graph @twice: duplicate vertex 'i'"),
    # a string of vertices is not a list of them
    bad("gdim -g @string i i", "cannot load graph @string: malformed graph "
        "object: vertices and edges must be lists, each edge [a, b]"),
    # a vertex name that the text form cannot carry is a bad graph
    bad("gdim -g @spaced c c", "cannot load graph @spaced: vertex 'a b' is "
        "empty or holds whitespace, '^', ':' or ','"),
    # no degree above the exact top (6) is computed, so a cutoff of 10^9
    # answers at once, and as the cutoff at top + 3 does
    ok("quotient -g @a1 --nu i:3 --symplus --cutoff 1000000000", QUOTIENT_I3),
    ok("quotient -g @a1 --nu i:3 --symplus --cutoff 9", QUOTIENT_I3),
    ok("quotient -g @a1 --nu i:3 --symplus --cutoff 1000000000 --json",
       _report(6, [
           (-6, 1, 1, 0, 0, 0), (-5, 0, 0, 0, 0, 0), (-4, 4, 5, 1, 1, 1),
           (-3, 0, 0, 0, 0, 0), (-2, 8, 14, 6, 6, 6), (-1, 0, 0, 0, 0, 0),
           (0, 10, 29, 20, 20, 19), (1, 0, 0, 0, 0, 0),
           (2, 8, 50, 48, 48, 42), (3, 0, 0, 0, 0, 0), (4, 4, 77, 93, 93, 73),
           (5, 0, 0, 0, 0, 0), (6, 1, 110, 156, 156, 109)],
           cutoff=1000000000)),
    # a non-central quotient: its multipliers come from the diagram table
    ok("quotient -g @a2 --nu i:2,j:1 --cyclotomic i:2",
       "deg   -2: 1\ndeg   -1: 2\ndeg    0: 4\ndeg    1: 4\ndeg    2: 4\n"
       "deg    3: 2\ndeg    4: 1\ntotal (q=1): 18\ncomplete: top degree 4"),
    ok("quotient -g @a2 --nu i:2,j:1 --cyclotomic i:2 --json", _report(4, [
        (-2, 1, 2, 8, 1, 1), (-1, 2, 4, 12, 2, 2), (0, 4, 12, 30, 9, 8),
        (1, 4, 16, 38, 14, 12), (2, 4, 32, 81, 31, 28),
        (3, 2, 36, 96, 40, 34), (4, 1, 62, 182, 66, 61)])),
    # a scan that reached the exact top is complete, whatever its last
    # degrees hold
    ok("quotient -g @a1 --nu i:2 --cyclotomic i:3 --cutoff 7",
       "deg   -2: 1\ndeg    0: 3\ndeg    2: 4\ndeg    4: 3\ndeg    6: 1\n"
       "total (q=1): 12\ncomplete: top degree 6"),
    # over F_p: dead products are skipped but still counted, so the
    # per-degree counts of the report are fixed
    ok("quotient -g @a2 --nu i:2,j:2 --cyclotomic i:1,j:1 "
       "--field Fp:2147483629 --json", _report(2, [
           (-4, 0, 2, 28, 2, 2), (-3, 0, 4, 48, 4, 4), (-2, 4, 26, 230, 30, 22),
           (-1, 8, 44, 368, 74, 36), (0, 12, 132, 1212, 272, 120),
           (1, 8, 180, 1732, 408, 172), (2, 4, 398, 4290, 649, 394)],
           field="F_2147483629")),
    ok("quotient -g @a1 --json --nu i:1 --cyclotomic i:2 --field Fp:7",
       _report(2, [(0, 1, 1, 0, 0, 0), (1, 0, 0, 0, 0, 0),
                   (2, 1, 1, 0, 0, 0)], field="F_7")),
    ok("quotient -g @a1 --nu i:1 --cyclotomic i:3",
       "deg    0: 1\ndeg    2: 1\ndeg    4: 1\ntotal (q=1): 3\n"
       "complete: top degree 4"),
    ok("quotient -g @a2 --nu i:1,j:1 --symplus",
       "deg    0: 2\ndeg    1: 2\ntotal (q=1): 4\ncomplete: top degree 1"),
    bad("quotient -g @a2 --nu i:1", ONE_KIND),
    ok("quotient -g @a2 --nu i:1,j:1 --cyclotomic i:1",
       "deg    0: 1\ntotal (q=1): 1\ncomplete: top degree 0"),
    ok("quotient -g @a1 --nu i:1 --cyclotomic i:0",
       "all degrees zero\ntotal (q=1): 0\ncomplete: top degree -1"),
    # d // 2 = -1 lies below the lowest degree 0, so the quotient is zero
    # and its top is known at any cutoff
    *(ok(f"quotient -g @a1 --nu i:1 --cyclotomic i:0 --cutoff {c}",
         f"all degrees zero\ntotal (q=1): 0\n{end}")
      for c, end in ((-3, "truncated at cutoff -3; top degree -1"),
                     (-2, "truncated at cutoff -2; top degree -1"),
                     (-1, "complete: top degree -1"))),
    # a cutoff below the top truncates the report, which names the top
    ok("quotient -g @a1 --nu i:2 --symplus --cutoff 1",
       "deg   -2: 1\ndeg    0: 2\ntotal (q=1): 3\n"
       "truncated at cutoff 1; top degree 2"),
    ok("quotient -g @a1 --nu i:3 --symplus --cutoff 2",
       "deg   -6: 1\ndeg   -4: 4\ndeg   -2: 8\ndeg    0: 10\ndeg    2: 8\n"
       "total (q=1): 31\ntruncated at cutoff 2; top degree 6"),
    ok("quotient -g @a1 --nu i:1 --cyclotomic i:1 --cutoff 1",
       "deg    0: 1\ntotal (q=1): 1\ncomplete: top degree 0"),
    # quotient takes no stabilization window, valid or not: the exact top
    # decides how a report ends
    usage("quotient -g @a1 --nu i:1 --cyclotomic i:1 --cutoff 1 --window 3",
          "unrecognized arguments: --window 3"),
    usage("quotient -g @a1 --nu i:3 --symplus --cutoff 2 --window 0",
          "unrecognized arguments: --window 0"),
    bad("quotient -g @a1 --nu i:1", ONE_KIND),
    bad("quotient -g @a1 --nu i:1 --cyclotomic i:1 --symplus", ONE_KIND),
    bad("quotient -g @a1 --nu i:1 --cyclotomic i:1 --field GF(4)",
        "--field must be Q or Fp:<p>"),
    # the one check of a prime field is the library's
    *(bad(f"quotient -g @a1 --nu i:2 --symplus --field Fp:{p}",
          f"field characteristic {p} is not a prime below 2^64")
      for p in (1, 4, 0, 2 ** 64 + 13)),
    ok("quotient -g @a1 --nu i:2 --symplus --field Fp:2",
       "deg   -2: 1\ndeg    0: 2\ndeg    2: 1\ntotal (q=1): 4\n"
       "complete: top degree 2"),
    bad("quotient -g @a2 --nu k:1 --symplus", UNKNOWN_K),
    bad("quotient -g @a2 --nu i:1 --cyclotomic k:1", UNKNOWN_K),
    # the graph's one vertex check names every unknown label
    bad("quotient -g @a2 --nu k:1,l:1 --symplus", "unknown vertex 'k' or 'l'"),
    # the one weight check, for --nu and --cyclotomic alike
    bad("quotient -g @a2 --nu i:-1 --symplus", NEGATIVE),
    bad("quotient -g @a2 --nu i:-1,j:1 --cyclotomic i:1", NEGATIVE),
    bad("quotient -g @a2 --nu i:1,j:1 --cyclotomic i:-1", NEGATIVE),
    bad("quotient -g @a1 --nu i:2 --cyclotomic i:-1", NEGATIVE),
    # a repeated vertex is an error, not a silent overwrite
    bad("quotient -g @a2 --nu i:1,i:1 --symplus",
        "vertex 'i' appears twice in weight [('i', 1), ('i', 1)]"),
    bad("quotient -g @a2 --nu i:1,i:2 --symplus",
        "vertex 'i' appears twice in weight [('i', 1), ('i', 2)]"),
    bad("quotient -g @a1 --nu i:2 --cyclotomic i:1,i:3",
        "vertex 'i' appears twice in weight [('i', 1), ('i', 3)]"),
    # the parser's own errors
    bad("quotient -g @a1 --nu i --symplus",
        "weight entry 'i' is not vertex:count"),
    bad("quotient -g @a1 --nu i:x --symplus", "bad multiplicity in 'i:x'"),
]


def case_id(case):
    """A test id for a row: its command line with whitespace as ``_``."""
    return re.sub(r"\s+", "_", " ".join(shlex.split(case[0])))


def write_graphs(directory):
    """Write each graph of GRAPHS to ``<directory>/<name>.json``; returns
    a dict name -> path."""
    paths = {}
    for name, obj in GRAPHS.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w") as f:
            json.dump(obj, f)
    return paths


def resolve(case, paths):
    """The argv of a row, and its (exit code, stdout, stderr), with each
    ``@name`` replaced by ``paths[name]``."""
    command, code, out, err = case

    def sub(text):
        return re.sub(r"@(\w+)", lambda m: paths[m[1]], text)
    return [sub(a) for a in shlex.split(command)], (code, out, sub(err))


def main():
    with tempfile.TemporaryDirectory() as directory:
        paths = write_graphs(directory)
        failed = 0
        for case in CASES:
            argv, want = resolve(case, paths)
            try:
                proc = subprocess.run(["klr", *argv], capture_output=True,
                                      text=True, timeout=20,
                                      env={**os.environ, "COLUMNS": "80"})
                got = (proc.returncode, proc.stdout, proc.stderr)
            except subprocess.TimeoutExpired:
                got = "no answer within 20 s"
            if got != want:
                failed += 1
                print(f"MISMATCH klr {case[0]}\n  expected {want!r}\n"
                      f"  got      {got!r}")
    print(f"{len(CASES) - failed} of {len(CASES)} command lines as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
