"""Recorded faults of the package, each caught by a ``klr check`` suite.

Each row of ``FAULTS`` is (name, module, old string, new string, suites).
A row copies ``src/klr`` to a temporary directory, asserts that the old
string occurs exactly once in the module, replaces it, and runs each
suite as ``python -m klr.cli check -g <a2> <suite>`` in a fresh
interpreter whose ``PYTHONPATH`` holds only the copy.  Each suite listed
must exit 1, the counterexample code.  The unmutated copy must print the
exact verdict line of the suite's row of ``cli_cases.CASES`` and exit 0.
The graph file and the command lines come from those rows
(``cli_cases.write_graphs`` and ``resolve``).  Only the standard library is
used.

Known misses, which no row asserts:

* on a1 x a1 no braid move has a correction (the graph has no edge), so
  both braid faults pass ``oracle`` and ``relations`` there;
* the last-letter, dot-slide and divided-difference faults pass
  ``relations``, and so does the double-crossing fault: ``relations``
  reads the graph's table of Q_ab (``CartanGraph.double_crossing``), as
  the kernel does, so a fault in that table reaches both sides.

The two faults of the hom DP (``KLRRing._hom_numerators``) are caught by
``pairing:i:2,j:2``, which compares it with the coproduct route.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from cli_cases import CASES, resolve, write_graphs

SRC = Path(__file__).resolve().parent.parent / "src" / "klr"
# the a2 rows of cli_cases.CASES, by suite
SUITES = {case[0].split()[-1]: case for case in CASES
          if case[0] in ("check -g @a2 oracle", "check -g @a2 relations",
                         "check -g @a2 pairing:i:2,j:2")}

FAULTS = [
    ("braid sign flipped", "elements.py",
     "1 if a == mpos else -1", "-1 if a == mpos else 1",
     ("oracle", "relations")),
    ("braid correction dropped", "elements.py",
     "if i[mpos - 1] == i[mpos + 1]:", "if False:",
     ("oracle", "relations")),
    ("last letter read as first", "elements.py",
     "canonical_word(v)[-1] == c", "canonical_word(v)[0] == c",
     ("oracle",)),
    ("dot slide keeps only its first term", "elements.py",
     "range(hi - lo)", "range(min(1, hi - lo))",
     ("oracle",)),
    ("cached right step read with its coefficients negated", "elements.py",
     "n = get(key, 0) + k * t", "n = get(key, 0) - k * t",
     ("oracle", "relations")),
    ("double crossing loses x_{c+1}", "cartan.py",
     "((1, 0), (0, 1))", "((1, 0),)",
     ("oracle",)),
    ("divided difference returns {}", "polyrep.py",
     "    for e, c in p.items():\n        a, b = e[i], e[k]",
     "    for e, c in {}.items():\n        a, b = e[i], e[k]",
     ("oracle",)),
    ("hom DP shift counts the placed run itself", "elements.py",
     "range(r + 1, len(runs))", "range(r, len(runs))",
     ("pairing:i:2,j:2",)),
    ("hom DP shift off by one on every placement", "elements.py",
     "shift = 0", "shift = 1",
     ("pairing:i:2,j:2",)),
]


def _copy(tmp_path, module=None, old=None, new=None):
    """A copy of the package under tmp_path/src, with old replaced by new
    in module; returns the directory to put on PYTHONPATH."""
    root = tmp_path / "src"
    shutil.copytree(SRC, root / "klr",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if module is not None:
        path = root / "klr" / module
        text = path.read_text()
        assert text.count(old) == 1, (module, old)
        path.write_text(text.replace(old, new))
    return root


def _check(tmp_path, root, suite):
    """Run the a2 row of suite against the package at root: returns the
    row's expected (code, stdout, stderr) and what the copy gave."""
    argv, want = resolve(SUITES[suite], write_graphs(str(tmp_path)))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(root)
    proc = subprocess.run([sys.executable, "-m", "klr.cli", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    return want, (proc.returncode, proc.stdout, proc.stderr)


def test_unmutated_copy_passes(tmp_path):
    root = _copy(tmp_path)
    assert sorted(SUITES) == ["oracle", "pairing:i:2,j:2", "relations"]
    for suite in SUITES:
        want, got = _check(tmp_path, root, suite)
        assert got == want


@pytest.mark.parametrize("fault", FAULTS, ids=[f[0] for f in FAULTS])
def test_fault_fails_its_suites(tmp_path, fault):
    _, module, old, new, suites = fault
    root = _copy(tmp_path, module, old, new)
    for suite in suites:
        _, (code, out, err) = _check(tmp_path, root, suite)
        assert code == 1, (suite, out, err)
        assert "FAIL" in out, (suite, out)
