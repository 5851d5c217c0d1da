import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import klr
from klr import KLRRing, a2, cycle
from klr.cli import EXIT_BROKEN_PIPE, build_parser, main, parse_word
from klr.quotients import is_prime
from klr.sequences import parse_divided, parse_seq, parse_weight


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_seq():
    assert parse_seq("iji", a2()) == ("i", "j", "i")
    assert parse_seq("v1 v2 v1", a2()) == ("v1", "v2", "v1")
    assert parse_seq("", a2()) == ()


def test_parse_divided():
    assert parse_divided("i^(2)j", a2()) == (("i", 2), ("j", 1))
    assert parse_divided("i^(2) j i^(3)", a2()) == (("i", 2), ("j", 1),
                                                    ("i", 3))
    assert parse_divided("iji", a2()) == (("i", 1), ("j", 1), ("i", 1))
    assert parse_divided("", a2()) == parse_divided("  ", a2()) == ()


def test_parse_weight():
    assert parse_weight("j:1,i:2") == (("i", 2), ("j", 1))
    assert parse_weight("i:2, j:0") == (("i", 2),)


def test_parse_word():
    assert parse_word("iji: C1 D2", a2()) == (("i", "j", "i"),
                                              [("C", 1), ("D", 2)])


def test_multi_character_vertex_is_one_name(capsys, tmp_path):
    """Over a graph with a vertex name longer than one character, text
    without whitespace is one vertex, and spaced text is one per name: on
    cycle(12), 11 is one strand and 1 1 two, and each is written as it is
    read."""
    paths = {}
    for name, graph in (("cycle12", cycle(12).to_json()),
                        ("ab", {"vertices": ["ab", "c"],
                                "edges": [["ab", "c"]]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(graph))
    c12, ab = str(paths["cycle12"]), str(paths["ab"])
    for argv, out in (
            (["char", "-g", c12, "11"], "11: 1 / (1-q^2)\n"),
            (["char", "-g", c12, "1 1"], "1 1: (q^-2 + 1) / ((1-q^2)^2)\n"),
            (["char", "-g", c12, "12"], "12: 1 / (1-q^2)\n"),
            (["char", "-g", c12, "1^(2)"],
             "1 1: (q^-1 + q) / ((1-q^2)(1-q^4))\n"),
            (["pair", "-g", c12, "1 12", "12 1"], "q / ((1-q^2)^2)\n"),
            (["gdim", "-g", ab, "ab", "ab"], "1 / (1-q^2)\n"),
            (["gdim", "-g", ab, "ab c", "c ab"], "q / ((1-q^2)^2)\n"),
            (["shuffle", "-g", ab, "ab", "c"], "ab c: 1, c ab: q\n"),
            (["multiply", "-g", ab, "--word", "ab c: C1", "--word",
              "c ab: C1"], "x1[c ab] + x2[c ab]\n")):
        assert run(capsys, argv) == (0, out, ""), argv
    assert run(capsys, ["gdim", "-g", ab, "cab", "cab"]) == (
        2, "", "error: unknown vertex 'cab'\n")


def test_multiply_examples(capsys, graph_files):
    code, out, _ = run(capsys, ["multiply", "-g", graph_files["a2"],
                                "--word", "ii: C1 C1"])
    assert code == 0 and out.strip() == "0"
    code, out, _ = run(capsys, ["multiply", "-g", graph_files["a2"],
                                "--word", "ji: C1", "--word", "ij: C1"])
    assert code == 0 and out.strip() == "x1[ij] + x2[ij]"
    code, out, _ = run(capsys, ["multiply", "-g", graph_files["a1"],
                                "--word", "i: D1"])
    assert code == 0 and out.strip() == "x1[i]"


def test_multiply_json_and_elem_files(capsys, graph_files, tmp_path):
    code, out, _ = run(capsys, ["multiply", "-g", graph_files["a2"], "--json",
                                "--word", "ij: C1"])
    assert code == 0
    obj = json.loads(out)
    ring = KLRRing(a2())
    elem = ring.element_from_json(obj)
    assert elem == ring.evaluate_word(("i", "j"), [("C", 1)])
    path = tmp_path / "elem.json"
    path.write_text(out)
    code, out2, _ = run(capsys, ["multiply", "-g", graph_files["a2"],
                                 "--elem", str(path), "--word", "ji: C1"])
    assert code == 0 and out2.strip() == "x1[ij] + x2[ij]"


def test_gdim(capsys, graph_files):
    code, out, _ = run(capsys, ["gdim", "-g", graph_files["a1"], "i", "i"])
    assert code == 0 and out.strip() == "1 / (1-q^2)"
    code, out, _ = run(capsys, ["gdim", "-g", graph_files["a1"],
                                "ii", "ii", "--expand", "4"])
    assert code == 0
    assert "series up to q^4" in out


def test_expand_zero_appends_the_series(capsys, graph_files):
    # --expand 0 is a cutoff like any other, not the absent option
    g = graph_files["a1"]
    code, out, _ = run(capsys, ["gdim", "-g", g, "--expand", "0", "i", "i"])
    assert code == 0 and out == "1 / (1-q^2)\nseries up to q^0: 1\n"
    code, out, _ = run(capsys, ["gdim", "-g", g, "--json", "--expand", "0",
                                "i", "i"])
    assert code == 0 and json.loads(out) == {
        "num": {"0": 1}, "den": [1], "series": {"0": 1}}
    code, out, _ = run(capsys, ["gdim", "-g", g, "--json", "i", "i"])
    assert code == 0 and "series" not in json.loads(out)


def test_pair_examples(capsys, graph_files):
    code, out, _ = run(capsys, ["pair", "-g", graph_files["a1"], "i", "i"])
    assert code == 0 and out.strip() == "1 / (1-q^2)"
    code, out, _ = run(capsys, ["pair", "-g", graph_files["a1"],
                                "i^(2)", "i^(2)"])
    assert code == 0 and out.strip() == "1 / ((1-q^2)(1-q^4))"
    code, out, _ = run(capsys, ["pair", "-g", graph_files["a2"], "--json",
                                "--expand", "4", "i^(2) j", "i j i"])
    assert code == 0 and out == (
        '{"num": {"0": 1, "2": 1}, "den": [1, 1, 2], '
        '"series": {"0": 1, "2": 3, "4": 6}}\n')


def test_pair_merged_runs(capsys, graph_files):
    # adjacent blocks on one vertex merge into one run of the hom route
    code, out, _ = run(capsys, ["pair", "-g", graph_files["a2"],
                                "i^(2) i", "i i^(2)"])
    assert code == 0 and out == "(q^-4 + q^-2 + 1) / ((1-q^2)^2(1-q^4))\n"
    code, out, _ = run(capsys, ["pair", "-g", graph_files["a2"],
                                "--expand", "5", "i^(2) i", "i i^(2)"])
    assert code == 0 and out == (
        "(q^-4 + q^-2 + 1) / ((1-q^2)^2(1-q^4))\n"
        "series up to q^5: q^-4 + 3*q^-2 + 7 + 12*q^2 + 19*q^4\n")
    code, out, _ = run(capsys, ["tight", "-g", graph_files["a2"],
                                "i^(2) i^(3)"])
    assert code == 0 and out == (
        "NOT TIGHT: lowest term q^-12 has coefficient 1\n")


def test_parser_is_built_once_and_keeps_no_state(capsys, graph_files):
    """One parser serves every call in a process; an option given to one
    call is not seen by the next."""
    g = graph_files["a2"]
    assert build_parser() is build_parser()
    pair_json = ('{"num": {"0": 1, "2": 1}, "den": [1, 1, 2], '
                 '"series": {"0": 1, "2": 3, "4": 6}}\n')
    pair_text = "(1 + q^2) / ((1-q^2)^2(1-q^4))\n"
    gdim_text = "(q^-1 + q) / ((1-q^2)^3)\n"
    bad = (2, "", "error: specify exactly one of --cyclotomic or --symplus\n")
    calls = [
        (["pair", "-g", g, "--json", "--expand", "4", "i^(2) j", "i j i"],
         (0, pair_json, "")),
        (["pair", "-g", g, "i^(2) j", "i j i"], (0, pair_text, "")),
        (["quotient", "-g", g, "--nu", "i:1"], bad),
        (["gdim", "-g", g, "--expand", "3", "iji", "iij"],
         (0, gdim_text + "series up to q^3: q^-1 + 4*q + 9*q^3\n", "")),
        (["gdim", "-g", g, "iji", "iij"], (0, gdim_text, "")),
        (["quotient", "-g", g, "--nu", "i:1,j:1", "--symplus"],
         (0, "deg    0: 2\ndeg    1: 2\ntotal (q=1): 4\nstabilized\n", "")),
        (["quotient", "-g", g, "--nu", "i:1,j:1", "--cyclotomic", "i:1"],
         (0, "deg    0: 1\ntotal (q=1): 1\nstabilized\n", "")),
        (["quotient", "-g", g, "--nu", "i:1"], bad),
        (["pair", "-g", g, "i^(2) j", "i j i"], (0, pair_text, "")),
    ]
    for argv, want in calls:
        assert run(capsys, argv) == want, argv
    # an argparse error in between leaves the parser as it was
    with pytest.raises(SystemExit):
        main(["gdim", "-g", g, "--expand", "x", "i", "i"])
    capsys.readouterr()
    for argv, want in calls:
        assert run(capsys, argv) == want, argv


def test_shuffle_example(capsys, graph_files):
    code, out, _ = run(capsys, ["shuffle", "-g", graph_files["a2"],
                                "i", "j"])
    assert code == 0 and out.strip() == "ij: 1, ji: q"
    code, out, _ = run(capsys, ["shuffle", "-g", graph_files["a2"], "--json",
                                "i", "j"])
    assert code == 0 and out == '{"ij": {"0": 1}, "ji": {"1": 1}}\n'
    # an unknown vertex is an error even where nothing crosses it
    for argv in (["k", ""], ["", "k"], ["i", "k"]):
        code, out, err = run(capsys, ["shuffle", "-g", graph_files["a2"],
                                      *argv])
        assert (code, out, err) == (2, "", "error: unknown vertex 'k'\n")


def test_char(capsys, graph_files):
    code, out, _ = run(capsys, ["char", "-g", graph_files["a1"], "i^(2)"])
    assert code == 0
    label, _, value = out.strip().partition(": ")
    assert label == "ii"
    from klr import GradedDim, LaurentPoly
    got = GradedDim(LaurentPoly({-1: 1, 1: 1}), (1, 2))
    assert value == str(got)
    assert got == GradedDim(LaurentPoly.q_power(-1), (1, 1))
    # one line per sequence
    code, out, _ = run(capsys, ["char", "-g", graph_files["a2"], "ij"])
    assert code == 0
    assert out == "ij: 1 / ((1-q^2)^2)\nji: q / ((1-q^2)^2)\n"
    code, out, _ = run(capsys, ["char", "-g", graph_files["a2"], "--json",
                                "ij"])
    assert code == 0 and out == ('{"ij": {"num": {"0": 1}, "den": [1, 1]}, '
                                 '"ji": {"num": {"1": 1}, "den": [1, 1]}}\n')


def test_comul(capsys, graph_files):
    code, out, _ = run(capsys, ["comul", "-g", graph_files["a2"], "ij",
                                "--json"])
    assert code == 0
    terms = json.loads(out)
    lookup = {(t["left"], t["right"]): t["coeff"] for t in terms}
    assert lookup[("j", "i")] == {"1": 1}
    assert lookup[("i", "j")] == {"0": 1}
    assert out == (
        '[{"left": "1", "right": "i j", "coeff": {"0": 1}}, '
        '{"left": "j", "right": "i", "coeff": {"1": 1}}, '
        '{"left": "i", "right": "j", "coeff": {"0": 1}}, '
        '{"left": "i j", "right": "1", "coeff": {"0": 1}}]\n')
    code, out, _ = run(capsys, ["comul", "-g", graph_files["a2"], "ij"])
    assert code == 0 and out == ("(1) * 1 (x) i j\n(q) * j (x) i\n"
                                 "(1) * i (x) j\n(1) * i j (x) 1\n")


def test_tight_examples(capsys, graph_files):
    code, out, _ = run(capsys, ["tight", "-g", graph_files["a2"],
                                "i j^(2) i"])
    assert code == 0 and out.startswith("TIGHT")
    code, out, _ = run(capsys, ["tight", "-g", graph_files["a2"], "iji"])
    assert code == 0 and out.strip() == "NOT TIGHT: constant term 2"
    code, out, _ = run(capsys, ["tight", "-g", graph_files["a1"], "i^(3)"])
    assert code == 0 and out.startswith("TIGHT")
    # self-pairings with negative powers of q are valid, and not tight
    for monomial, lowest in (("i i", [-2, 1]), ("i^(2) j i^(2)", [-4, 2])):
        code, out, err = run(capsys, ["tight", "-g", graph_files["a2"],
                                      monomial])
        assert code == 0 and err == ""
        assert out.strip() == (f"NOT TIGHT: lowest term q^{lowest[0]} "
                               f"has coefficient {lowest[1]}")
        code, out, _ = run(capsys, ["tight", "-g", graph_files["a2"],
                                    "--json", monomial])
        assert code == 0
        obj = json.loads(out)
        assert obj["tight"] is False and obj["first_bad"] == lowest


def test_check_suites(capsys, graph_files):
    code, out, _ = run(capsys, ["check", "-g", graph_files["cycle3"],
                                "cycle:3"])
    assert code == 0 and out.strip() == "alpha^2 = 0 PASS"
    code, out, _ = run(capsys, ["check", "-g", graph_files["cycle4"],
                                "cycle:4"])
    assert code == 0 and out.strip() == "alpha^2 = -2*alpha PASS"
    code, out, _ = run(capsys, ["check", "-g", graph_files["a2"], "serre"])
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, ["check", "-g", graph_files["a2"],
                                "idempotents"])
    assert code == 0 and "FAIL" not in out
    code, out, _ = run(capsys, ["check", "-g", graph_files["a2"],
                                "relations"])
    assert code == 0 and "PASS" in out


def test_quotient_examples(capsys, graph_files):
    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a1"],
                                "--nu", "i:1", "--cyclotomic", "i:3"])
    assert code == 0
    assert "deg    0: 1" in out and "deg    2: 1" in out and "deg    4: 1" in out
    assert "total (q=1): 3" in out
    assert "stabilized" in out and "NOT stabilized" not in out

    # a scan that reached the exact top (6) is complete, though its last
    # degrees fill the stabilization window
    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a1"],
                                "--nu", "i:2", "--cyclotomic", "i:3",
                                "--cutoff", "7"])
    assert (code, out) == (0, "deg   -2: 1\ndeg    0: 3\ndeg    2: 4\n"
                              "deg    4: 3\ndeg    6: 1\ntotal (q=1): 12\n"
                              "complete: top degree 6\n")

    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a2"],
                                "--nu", "i:1,j:1", "--symplus"])
    assert code == 0 and "total (q=1): 4" in out

    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a1"],
                                "--nu", "i:1", "--cyclotomic", "i:0"])
    assert code == 0 and "all degrees zero" in out

    # a window wider than the cutoff is fine while it stays above the
    # lowest degree (-2 here); the library checks the window itself
    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a1"],
                                "--nu", "i:2", "--symplus",
                                "--cutoff", "1", "--window", "3"])
    assert code == 0
    assert "deg   -2: 1" in out and "deg    0: 2" in out

    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a1"], "--json",
                                "--nu", "i:1", "--cyclotomic", "i:2",
                                "--field", "Fp:7"])
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == "F_7" and obj["stabilized"]
    assert obj["top"] == 2 and list(obj["degrees"]) == ["0", "1", "2"]

    # no degree above the exact top is computed, so a cutoff of 10^9
    # answers as the cutoff at top + 3 does
    argv = ["quotient", "-g", graph_files["a1"], "--nu", "i:3", "--symplus",
            "--window", "1"]
    code, out, _ = run(capsys, argv + ["--cutoff", "1000000000"])
    assert code == 0 and "total (q=1): 36\nstabilized\n" in out
    assert run(capsys, argv + ["--cutoff", "9"]) == (0, out, "")
    code, out, _ = run(capsys, argv + ["--cutoff", "1000000000", "--json"])
    obj = json.loads(out)
    assert obj["top"] == 6 and list(obj["degrees"]) == [
        str(d) for d in range(-6, 7)]


def test_quotient_json_stats(capsys, graph_files):
    # per-degree counts: basis size minus the rank of the spanning rows is
    # the quotient dimension, and no row is counted that no product gave
    for argv in (["-g", graph_files["a2"], "--nu", "i:2,j:1", "--symplus"],
                 ["-g", graph_files["a2"], "--nu", "i:1,j:2",
                  "--cyclotomic", "i:1,j:1", "--field", "Fp:5"]):
        code, out, _ = run(capsys, ["quotient", "--json", *argv])
        assert code == 0
        obj = json.loads(out)
        assert obj["stats"].keys() == obj["degrees"].keys()
        for d, stats in obj["stats"].items():
            assert set(stats) == {"basis", "products", "rows", "rank"}
            assert stats["basis"] - stats["rank"] == obj["degrees"][d]
            assert stats["rank"] <= stats["rows"] <= stats["products"]
        # the counts are part of the answer: a second run prints the same
        assert run(capsys, ["quotient", "--json", *argv])[1] == out


def test_exit_code_2_on_bad_usage(capsys, graph_files, tmp_path):
    term = {"source": ["i", "j"], "permutation": [1, 2], "dots": [0, 0],
            "coeff": 1}
    elems = {
        "short": [{**term, "permutation": [1], "dots": [0, 0, 0]}],
        "letters": [{**term, "permutation": ["a", "b"]}],
        "object": term,
        "vertex": [{**term, "source": ["i", "k"]}],
        "nokey": [{}],
    }
    for name, data in elems.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(data))
    cases = [
        ["multiply", "-g", graph_files["a2"]],
        ["multiply", "-g", graph_files["a2"], "--word", "ij: Z9"],
        ["multiply", "-g", graph_files["a2"],
         "--word", "ij: C1", "--word", "ii: C1"],
        ["multiply", "-g", "/nonexistent.json", "--word", "i: D1"],
        ["multiply", "-g", graph_files["a2"], "--word", "ij: C5"],
        ["multiply", "-g", graph_files["a2"], "--word", "ij: D3"],
        ["multiply", "-g", graph_files["a2"], "--word", "ik: C1"],
        *(["multiply", "-g", graph_files["a2"],
           "--elem", str(tmp_path / f"{name}.json")] for name in elems),
        ["quotient", "-g", graph_files["a2"], "--nu", "k:1", "--symplus"],
        ["quotient", "-g", graph_files["a2"], "--nu", "i:1",
         "--cyclotomic", "k:1"],
        ["quotient", "-g", graph_files["a2"], "--nu", "i:-1", "--symplus"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i:2",
         "--cyclotomic", "i:-1"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i:1"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i:1",
         "--cyclotomic", "i:1", "--symplus"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i:1",
         "--cyclotomic", "i:1", "--field", "GF(4)"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i:1",
         "--cyclotomic", "i:1", "--cutoff", "1", "--window", "3"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i:3", "--symplus",
         "--cutoff", "2", "--window", "0"],
        # a repeated vertex is an error, not a silent overwrite
        ["quotient", "-g", graph_files["a2"], "--nu", "i:1,i:1",
         "--symplus"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i:2",
         "--cyclotomic", "i:1,i:3"],
        ["check", "-g", graph_files["a2"], "nonsense"],
        ["check", "-g", graph_files["a2"], "cycle:x"],
        ["check", "-g", graph_files["a1"], "idempotents"],
        # one vertex has no Serre pair to check
        ["check", "-g", graph_files["a1"], "serre"],
        ["check", "-g", graph_files["cycle4"], "cycle:3"],
        # no vertex to draw a random word from, or to label strands with
        ["check", "-g", graph_files["empty"], "oracle"],
        ["check", "-g", graph_files["empty"], "relations"],
        # a vertex must be a string
        ["check", "-g", graph_files["ints"], "relations"],
        # a vertex listed twice
        ["check", "-g", graph_files["twice"], "relations"],
        # an unknown vertex on the pairing routes
        ["pair", "-g", graph_files["a2"], "i", "k"],
        ["comul", "-g", graph_files["a2"], "k"],
        # parse errors of a divided sequence, a weight and a word
        ["tight", "-g", graph_files["a2"], "i^x"],
        ["shuffle", "-g", graph_files["a2"], "i^(0)", "j"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i", "--symplus"],
        ["quotient", "-g", graph_files["a1"], "--nu", "i:x", "--symplus"],
        ["multiply", "-g", graph_files["a2"], "--word", "ij C1"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:"), argv
        assert len(err.splitlines()) == 1, argv


def test_bad_input_messages(capsys, graph_files, tmp_path):
    # the library's checks, reported as they are raised
    nokey = tmp_path / "nokey.json"
    nokey.write_text("[{}]")
    cases = [
        (["check", "-g", graph_files["empty"], "oracle"],
         "graph has no vertices; oracle suite needs one"),
        (["check", "-g", graph_files["empty"], "relations"],
         "graph has no vertices; relations suite needs one"),
        (["check", "-g", graph_files["ints"], "relations"],
         f"cannot load graph {graph_files['ints']}: vertex 1 is not a "
         f"string"),
        (["check", "-g", graph_files["twice"], "relations"],
         f"cannot load graph {graph_files['twice']}: duplicate vertex 'i'"),
        # a vertex name that the text form cannot carry
        (["gdim", "-g", graph_files["spaced"], "c", "c"],
         f"cannot load graph {graph_files['spaced']}: vertex 'a b' is empty "
         f"or holds whitespace, '^', ':' or ','"),
        # a string of vertices is not a list of them
        (["gdim", "-g", graph_files["string"], "i", "i"],
         f"cannot load graph {graph_files['string']}: malformed graph "
         f"object: vertices and edges must be lists, each edge [a, b]"),
        (["multiply", "-g", graph_files["a2"], "--elem", str(nokey)],
         f"cannot load element {nokey}: term is missing key 'source'"),
        (["quotient", "-g", graph_files["a2"], "--nu", "i:-1", "--symplus"],
         "vertex count -1 is not an integer >= 0"),
        (["quotient", "-g", graph_files["a2"], "--nu", "i:-1,j:1",
          "--cyclotomic", "i:1"],
         "vertex count -1 is not an integer >= 0"),
        # the one weight check, for --nu and --cyclotomic alike
        (["quotient", "-g", graph_files["a2"], "--nu", "i:1,i:2",
          "--symplus"],
         "vertex 'i' appears twice in weight [('i', 1), ('i', 2)]"),
        (["quotient", "-g", graph_files["a2"], "--nu", "i:1,j:1",
          "--cyclotomic", "i:-1"],
         "vertex count -1 is not an integer >= 0"),
        # the graph's one vertex check names every unknown label
        (["quotient", "-g", graph_files["a2"], "--nu", "k:1,l:1",
          "--symplus"],
         "unknown vertex 'k' or 'l'"),
        (["check", "-g", graph_files["cycle3"], "cycle:4"],
         "unknown vertex '4'"),
        (["check", "-g", graph_files["cycle4"], "cycle:3"],
         "ring is not over the n-cycle"),
        # the one token check, shared by the kernel and the oracle
        (["multiply", "-g", graph_files["a2"], "--word", "ij: C2"],
         "crossing 2 out of range for 2 strands"),
        (["multiply", "-g", graph_files["a2"], "--word", "ij: D3"],
         "dot position 3 out of range for 2 strands"),
        # the one check of divided powers, also for shuffle, which expands
        # its sequences without checking them
        (["shuffle", "-g", graph_files["a2"], "i^(0)", "j"],
         "divided-power block size 0 is not an integer >= 1"),
        # the parser's own errors
        (["tight", "-g", graph_files["a2"], "i^x"],
         "cannot parse divided-power block '^'"),
        (["quotient", "-g", graph_files["a1"], "--nu", "i", "--symplus"],
         "weight entry 'i' is not vertex:count"),
        (["quotient", "-g", graph_files["a1"], "--nu", "i:x", "--symplus"],
         "bad multiplicity in 'i:x'"),
        (["multiply", "-g", graph_files["a2"], "--word", "ij C1"],
         "word 'ij C1' must be '<seq>: <tokens>'"),
    ]
    for argv, message in cases:
        assert run(capsys, argv) == (2, "", f"error: {message}\n"), argv


def test_field_must_be_prime(capsys, graph_files):
    for field in ("Fp:1", "Fp:4", "Fp:0", f"Fp:{2 ** 64 + 13}"):
        code, out, err = run(capsys, ["quotient", "-g", graph_files["a1"],
                                      "--nu", "i:2", "--symplus",
                                      "--field", field])
        assert code == 2, field
        assert out == "" and err.startswith("error:"), field
        assert "Traceback" not in err, field
        # the one check is the library's
        assert err == (f"error: field characteristic {field[3:]} is not a "
                       f"prime below 2^64\n"), field
    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a1"],
                                "--nu", "i:2", "--symplus", "--field", "Fp:2"])
    assert code == 0 and "total (q=1): 4" in out


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % k for k in range(2, int(n ** 0.5) + 1))
    assert [n for n in range(5000) if is_prime(n)] == [
        n for n in range(5000) if trial(n)]
    # strong pseudoprimes to the first 4 and the first 9 prime bases
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 64 - 59)


def _klr_env(**extra):
    """The environment of a fresh interpreter that imports this klr."""
    src = str(Path(klr.__file__).resolve().parent.parent)
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_check_output_does_not_depend_on_hash_seed(graph_files):
    # the suite walks the graph's edges, a frozenset whose order follows
    # the string hash; run in fresh interpreters with different seeds
    outs = []
    for hash_seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "klr.cli", "check",
             "-g", graph_files["cycle3"], "idempotents"],
            env=_klr_env(PYTHONHASHSEED=hash_seed), capture_output=True,
            check=True, timeout=120)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].decode().splitlines()[:2] == [
        "idempotents on 121: PASS", "idempotents on 212: PASS"]


def test_exit_code_1_on_failed_check(capsys, graph_files, monkeypatch):
    import klr.verify as verify
    monkeypatch.setattr(verify, "serre_check", lambda *a: False)
    code, out, _ = run(capsys, ["check", "-g", graph_files["a2"], "serre"])
    assert code == 1 and "FAIL" in out

    def nonzero_square(ring, n):
        x = ring.idempotent(ring.graph.vertices[:1])
        return x, x

    # a zero idempotent breaks the a2 braid relation on iji and the dot
    # slides on equal labels; a failed idempotent check and a nonzero
    # alpha^2 fail their suites
    faults = [
        (KLRRing, "idempotent", lambda self, seq: self.zero(), "a2",
         "relations"),
        (verify, "orthogonal_idempotents_check", lambda *a: False, "a2",
         "idempotents"),
        (verify, "cycle_alpha", nonzero_square, "cycle3", "cycle:3"),
    ]
    for target, name, fault, graph, suite in faults:
        with monkeypatch.context() as patch:
            patch.setattr(target, name, fault)
            code, out, err = run(capsys, ["check", "-g", graph_files[graph],
                                          suite])
        assert code == 1 and "FAIL" in out, suite
        assert "counterexample:" in err, suite


def test_cycle_precondition_is_a_verdict(capsys, graph_files, monkeypatch):
    """A ring whose hom route misreads alpha's degree-0 sector fails the
    cycle suite with a verdict line and exit 1, not a traceback."""
    import klr.verify as verify
    gdim_hom = KLRRing.gdim_hom
    ring = KLRRing(cycle(3))
    ring.gdim_hom = lambda *a: gdim_hom(ring, *a) * 2
    lines, failures = verify.run(ring, "cycle:3")
    assert lines == ["alpha spans the degree-0 endomorphisms with 1: FAIL"]
    assert failures == [("cycle:3", "alpha of degree 0, degree-0 "
                                    "dimension 4")]
    monkeypatch.setattr(KLRRing, "gdim_hom",
                        lambda self, *a: gdim_hom(self, *a) * 2)
    code, out, err = run(capsys, ["check", "-g", graph_files["cycle3"],
                                  "cycle:3"])
    assert code == 1
    assert out == "alpha spans the degree-0 endomorphisms with 1: FAIL\n"
    assert "counterexample: cycle:3" in err


def test_argparse_errors_exit_2(graph_files):
    g = graph_files["a2"]
    for argv in (["frobnicate", "-g", g],
                 ["check", "-g", g, "relations", "--orientation", "x"],
                 ["check", "-g", g, "relations", "--json"],
                 ["multiply", "-g", g, "--word", "i: D1", "--expand", "3"],
                 ["tight", "-g", g, "iji", "--cutoff", "-3"],
                 ["tight", "-g", g, "i j^(2) i", "--cutoff", "-1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv


def test_closed_stdout_exits_quietly(graph_files):
    # a reader that closes stdout early, as `klr ... | head -c 20` does:
    # no traceback and not exit 1, which means a counterexample.  The read
    # end is closed before klr starts, so every write fails.
    for argv in (["quotient", "-g", graph_files["a2"], "--nu", "i:2,j:2",
                  "--symplus", "--json"],
                 ["gdim", "-g", graph_files["a1"], "i", "i"],
                 ["check", "-g", graph_files["a2"], "relations"]):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "klr.cli", *argv],
                                  env=_klr_env(), stdout=write,
                                  stderr=subprocess.PIPE, timeout=120)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (
            EXIT_BROKEN_PIPE, b""), argv
    assert EXIT_BROKEN_PIPE not in (0, 1, 2)



_FUZZ_VERTICES = {"a1": "i", "a2": "ij", "a1xa1": "ij", "cycle3": "123",
                  "cycle4": "1234", "empty": "", "ints": "12", "string": "ij"}


def _fuzz_argv(rng, graph_files):
    """One random command line that argparse accepts, over small inputs:
    at most four strands, divided powers up to 3 and weights of at most
    four strands.  Labels are mostly vertices of the graph, and indices
    mostly in range; a label that is not a vertex, an index out of range,
    a zero power and a malformed field are mixed in."""
    name = rng.choice(["a1", "a2", "a1xa1", "cycle3", "cycle4"] * 5
                      + ["empty", "ints", "string"])
    labels = list(_FUZZ_VERTICES[name]) * 12 + ["k"]

    def seq():
        return [rng.choice(labels) for _ in range(rng.randint(0, 4))]

    def text(s):
        return " ".join(s) if rng.random() < 0.3 else "".join(s)

    def divided():
        return " ".join(rng.choice(labels) + rng.choice(
            ["", "", "", "", "^(2)", "^(2)", "^(3)", "^(0)", "^(x)"])
            for _ in range(rng.randint(0, 3)))

    def weight():
        return ",".join(f"{v}:{rng.choice([0, 1, 1, 2, 2, -1])}" for v in
                        dict.fromkeys(rng.choice(labels)
                                      for _ in range(rng.randint(0, 2))))

    def word(s):
        tokens = [f"C{rng.randint(1, len(s) - 1)}" if len(s) > 1
                  and rng.random() < 0.6 else f"D{rng.randint(1, len(s) or 1)}"
                  for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.1:
            tokens.append(rng.choice(["Z1", f"C{len(s)}", f"D{len(s) + 1}"]))
        return f"{text(s)}: {' '.join(tokens)}"

    graph = ["-g", graph_files[name]]
    json_flag = ["--json"] if rng.random() < 0.3 else []
    expand = ["--expand", str(rng.randint(0, 4))] if rng.random() < 0.3 else []
    command = rng.choice(["multiply", "gdim", "pair", "char", "shuffle",
                          "comul", "tight", "check", "quotient"])
    if command == "multiply":
        s = seq()
        words = [a for _ in range(rng.choice([0, 1, 2, 2, 3, 3]))
                 for a in ("--word", word(rng.sample(s, len(s))))]
        return [command, *graph, *json_flag, *words]
    if command == "gdim":
        source = seq()
        target = rng.sample(source, len(source))
        if rng.random() < 0.2:
            target = seq()
        return [command, *graph, *json_flag, *expand, text(target),
                text(source)]
    if command == "pair":
        return [command, *graph, *json_flag, *expand, divided(), divided()]
    if command == "shuffle":
        return [command, *graph, *json_flag, divided(), divided()]
    if command in ("char", "comul", "tight"):
        return [command, *graph, *json_flag, divided()]
    if command == "check":
        suite = rng.choice(["relations", "serre", "idempotents", "oracle",
                            "cycle:3", "cycle:4", "cycle:2", "cycle:x",
                            "nonsense"])
        return [command, *graph, suite]
    kind = (["--symplus"] if rng.random() < 0.5
            else ["--cyclotomic", weight()])
    return [command, *graph, *json_flag, "--nu", weight(), *kind,
            "--cutoff", str(rng.randint(-4, 6)),
            "--window", str(rng.choice([0, 1, 1, 2, 3])),
            "--field", rng.choice(["Q", "Q", "Fp:2", "Fp:3", "Fp:4", "F"])]


def test_random_command_lines_keep_the_exit_contract(capsys, graph_files):
    """Random command lines, run in process: every one exits 0, 1 or 2,
    and every exit 2 writes exactly one line, an error: line, to stderr."""
    rng = random.Random(2601)
    codes = set()
    for _ in range(400):
        argv = _fuzz_argv(rng, graph_files)
        code, out, err = run(capsys, argv)
        codes.add(code)
        assert code in (0, 1, 2), argv
        if code == 2:
            assert out == "" and err.startswith("error: "), argv
            assert len(err.splitlines()) == 1, argv
    assert codes == {0, 2}
