import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import klr
from cli_cases import CASES, GRAPHS, case_id, resolve
from klr import KLRRing, a2, cycle
from klr.cli import EXIT_BROKEN_PIPE, build_parser, main, parse_word
from klr.quotients import is_prime
from klr.sequences import parse_divided, parse_seq, parse_weight


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_cli_case(capsys, graph_files, case):
    """One row of ``cli_cases.CASES``, run in-process: its exit code, stdout
    and stderr, exact."""
    argv, want = resolve(case, graph_files)
    assert run(capsys, argv) == want


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


def test_parser_is_built_once_and_keeps_no_state(capsys, graph_files):
    """One parser serves every call in a process; an option given to one
    call is not seen by the next, and an argparse error leaves the parser
    as it was.  Run twice in order, the rows of ``cli_cases.CASES`` outside
    the check suites put calls with and without each option side by side."""
    assert build_parser() is build_parser()
    calls = [resolve(case, graph_files) for case in CASES
             if not case[0].startswith("check")]
    for _ in range(2):
        for argv, want in calls:
            assert run(capsys, argv) == want, argv
        with pytest.raises(SystemExit):
            main(["gdim", "-g", graph_files["a2"], "--expand", "x", "i", "i"])
        capsys.readouterr()


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


def test_bad_input_messages(capsys, graph_files, tmp_path):
    # an element file that --elem cannot read: exit 2 with the library's
    # check, reported as it is raised
    term = {"source": ["i", "j"], "permutation": [1, 2], "dots": [0, 0],
            "coeff": 1}
    elems = {
        "short": ([{**term, "permutation": [1], "dots": [0, 0, 0]}],
                  "basis key (('i', 'j'), (0,), (0, 0, 0)) is not three "
                  "tuples of one length"),
        "letters": ([{**term, "permutation": ["a", "b"]}],
                    "permutation entry 'a' is not an integer"),
        "object": (term, "an element is a JSON list of term objects"),
        "vertex": ([{**term, "source": ["i", "k"]}], "unknown vertex 'k'"),
        "nokey": ([{}], "term is missing key 'source'"),
    }
    for name, (data, message) in elems.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        assert run(capsys, ["multiply", "-g", graph_files["a2"], "--elem",
                            str(path)]) == (
            2, "", f"error: cannot load element {path}: {message}\n"), name


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


def _fuzz_argv(rng, graph_files):
    """One random command line that argparse accepts, over small inputs:
    at most four strands, divided powers up to 3 and weights of at most
    four strands.  Labels are mostly vertices of the graph, and indices
    mostly in range; a label that is not a vertex, an index out of range,
    a zero power and a malformed field are mixed in."""
    name = rng.choice(["a1", "a2", "a1xa1", "cycle3", "cycle4"] * 5
                      + ["empty", "ints", "string"])
    labels = [str(v) for v in GRAPHS[name]["vertices"]] * 12 + ["k"]

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
