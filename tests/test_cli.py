import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import klr
from klr import KLRRing, a2
from klr.cli import (
    is_prime,
    main,
    parse_divided,
    parse_seq,
    parse_weight,
    parse_word,
)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_seq():
    assert parse_seq("iji") == ("i", "j", "i")
    assert parse_seq("v1 v2 v1") == ("v1", "v2", "v1")
    assert parse_seq("") == ()


def test_parse_divided():
    assert parse_divided("i^(2)j") == (("i", 2), ("j", 1))
    assert parse_divided("i^(2) j i^(3)") == (("i", 2), ("j", 1), ("i", 3))
    assert parse_divided("iji") == (("i", 1), ("j", 1), ("i", 1))


def test_parse_weight():
    assert parse_weight("j:1,i:2") == (("i", 2), ("j", 1))
    assert parse_weight("i:2, j:0") == (("i", 2),)


def test_parse_word():
    assert parse_word("iji: C1 D2") == (("i", "j", "i"),
                                        [("C", 1), ("D", 2)])


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


def test_pair_examples(capsys, graph_files):
    code, out, _ = run(capsys, ["pair", "-g", graph_files["a1"], "i", "i"])
    assert code == 0 and out.strip() == "1 / (1-q^2)"
    code, out, _ = run(capsys, ["pair", "-g", graph_files["a1"],
                                "i^(2)", "i^(2)"])
    assert code == 0 and out.strip() == "1 / ((1-q^2)(1-q^4))"


def test_shuffle_example(capsys, graph_files):
    code, out, _ = run(capsys, ["shuffle", "-g", graph_files["a2"],
                                "i", "j"])
    assert code == 0 and out.strip() == "ij: 1, ji: q"


def test_char(capsys, graph_files):
    code, out, _ = run(capsys, ["char", "-g", graph_files["a1"], "i^(2)"])
    assert code == 0
    label, _, value = out.strip().partition(": ")
    assert label == "ii"
    from klr import GradedDim, LaurentPoly
    got = GradedDim(LaurentPoly({-1: 1, 1: 1}), (1, 2))
    assert value == str(got)
    assert got == GradedDim(LaurentPoly.q_power(-1), (1, 1))


def test_comul(capsys, graph_files):
    code, out, _ = run(capsys, ["comul", "-g", graph_files["a2"], "ij",
                                "--json"])
    assert code == 0
    terms = json.loads(out)
    lookup = {(t["left"], t["right"]): t["coeff"] for t in terms}
    assert lookup[("j", "i")] == {"1": 1}
    assert lookup[("i", "j")] == {"0": 1}


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

    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a2"],
                                "--nu", "i:1,j:1", "--symplus"])
    assert code == 0 and "total (q=1): 4" in out

    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a1"],
                                "--nu", "i:1", "--cyclotomic", "i:0"])
    assert code == 0 and "all degrees zero" in out

    code, out, _ = run(capsys, ["quotient", "-g", graph_files["a1"], "--json",
                                "--nu", "i:1", "--cyclotomic", "i:2",
                                "--field", "Fp:7"])
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == "F_7" and obj["stabilized"]


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
        ["check", "-g", graph_files["cycle4"], "cycle:3"],
        # an unknown vertex on the pairing routes
        ["pair", "-g", graph_files["a2"], "i", "k"],
        ["comul", "-g", graph_files["a2"], "k"],
    ]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code == 2, argv
        assert out == "" and err.startswith("error:"), argv
        assert len(err.splitlines()) == 1, argv


def test_field_must_be_prime(capsys, graph_files):
    for field in ("Fp:1", "Fp:4", "Fp:0", f"Fp:{2 ** 64 + 13}"):
        code, out, err = run(capsys, ["quotient", "-g", graph_files["a1"],
                                      "--nu", "i:2", "--symplus",
                                      "--field", field])
        assert code == 2, field
        assert out == "" and err.startswith("error:"), field
        assert "Traceback" not in err, field
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


def test_check_output_does_not_depend_on_hash_seed(graph_files):
    # the suite walks the graph's edges, a frozenset whose order follows
    # the string hash; run in fresh interpreters with different seeds
    src = str(Path(klr.__file__).resolve().parent.parent)
    outs = []
    for hash_seed in ("1", "2"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "klr.cli", "check",
             "-g", graph_files["cycle3"], "idempotents"],
            env=env, capture_output=True, check=True, timeout=120)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0].decode().splitlines()[:2] == [
        "idempotents on 121: PASS", "idempotents on 212: PASS"]


def test_exit_code_1_on_failed_check(capsys, graph_files, monkeypatch):
    import klr.verify as verify
    monkeypatch.setattr(verify, "serre_check", lambda *a: False)
    code, out, _ = run(capsys, ["check", "-g", graph_files["a2"], "serre"])
    assert code == 1 and "FAIL" in out


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
