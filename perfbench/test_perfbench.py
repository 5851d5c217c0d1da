"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run
import speed
import tracer
import workloads

run.import_klr()
import klr  # noqa: E402
import klr.cli  # noqa: E402,F401

SMOKE_TASKS = 12


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name]
    assert make(5).tasks == make(5).tasks


@pytest.mark.parametrize("name", ["forms", "rewriting"])
def test_other_seed_other_inputs(name):
    make = workloads.WORKLOADS[name]
    assert make(5).tasks != make(6).tasks


def test_closed_form_matches_fixtures():
    assert workloads.nilhecke_closed_form(1, 1) == {0: 1}
    assert workloads.nilhecke_closed_form(1, 2) == {0: 1, 2: 1}
    assert workloads.nilhecke_closed_form(2, 2) == {-2: 1, 0: 2, 2: 1}
    assert workloads.nilhecke_closed_form(3, 3) == {
        -6: 1, -4: 4, -2: 8, 0: 10, 2: 8, 4: 4, 6: 1}
    assert workloads.nilhecke_closed_form(3, 2) == {}


def test_quotient_prime_is_large_prime():
    p = workloads.quotient_prime(1)
    assert p > 2 ** 30 and all(p % d for d in range(2, 2000))


def test_tight_rule_matches_library():
    ring = klr.KLRRing(klr.a2())
    for m in range(3, 8):
        for a, b, c in workloads.tight_candidates(m):
            rep = klr.tight(ring, (("i", a), ("j", b), ("i", c)))
            assert rep.tight is (b >= a + c)
            assert rep.tight or rep.constant_term == 2


def _snapshot():
    out = {}
    for mod in tracer.klr_modules():
        for key, value in vars(mod).items():
            out[(mod.__name__, key)] = value
            if isinstance(value, type):
                for attr, member in vars(value).items():
                    out[(mod.__name__, key, attr)] = member
    return out


def test_wrappers_removed_and_klr_unchanged():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    assert klr.elements.canonical_word is not before[("klr.elements",
                                                      "canonical_word")]
    assert klr.GradedDim.__rmul__ is not before[("klr.gdim", "GradedDim",
                                                 "__rmul__")]
    assert not t.missing
    t.uninstall()
    assert t.restored()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _smoke(name, traced):
    workload = workloads.WORKLOADS[name](1)
    cheap = {"forms": lambda t: t[0] != "tight" or sum(t[1]) <= 6,
             "quotients": lambda t: "i" not in dict(t[4]) or dict(t[4])["i"] < 3,
             "rewriting": lambda t: t[0] != "idempotent" or t[1] <= 4}[name]
    tasks = [t for t in workload.tasks if cheap(t)]
    first = list({t[0]: t for t in reversed(tasks)}.values())  # one per kind
    workload.tasks = (first + [t for t in tasks if t not in first])[:SMOKE_TASKS]
    with tempfile.TemporaryDirectory() as workdir:
        workload.setup(klr, workdir)
        if not traced:
            for task in workload.tasks:
                workload.run(task)
            return None
        t = tracer.Tracer()
        for ring in workload.rings():
            t.watch(ring)
        t.run(lambda: [workload.run(task) for task in workload.tasks])
    assert t.restored()
    total, run_s = t.accounted()
    assert total == pytest.approx(run_s, rel=1e-6)
    return t.metrics()


# A span each workload must reach, as a check that tracing sees the layers.
EXPECTED_SPANS = {
    "forms": ["characters.pair_plain", "laurent.mul", "cli.main"],
    "quotients": ["quotients.rank", "elements.multiply"],
    "rewriting": ["polyrep.act", "elements.cross", "elements.evaluate_word",
                  "polyrep.act_word"],
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run(name):
    _smoke(name, traced=False)
    metrics = _smoke(name, traced=True)
    names = {key for key, _ in tracer.metric_units()} - {"trace.overhead_ratio"}
    assert set(metrics) == names
    layers = sum(metrics[f"layer.{layer}.self_s"] for layer in tracer.LAYERS)
    assert layers + metrics["bench.self_s"] == pytest.approx(
        metrics["trace.run_s"], rel=1e-6)
    for span in EXPECTED_SPANS[name]:
        assert metrics[f"{span}.calls"] > 0, span


class _TwoTasks(workloads.Quotients):
    def __init__(self, seed):
        super().__init__(seed)
        self.tasks = self.tasks[:2]


def test_unresolved_target_makes_run_incorrect(monkeypatch, capsys):
    monkeypatch.setattr(tracer, "TARGETS", tracer.TARGETS + [
        ("laurent", "LaurentPoly.no_such_method", "laurent.nothing")])
    monkeypatch.setitem(workloads.WORKLOADS, "quotients", _TwoTasks)
    traced = run.repetition("quotients", 1, True)
    assert traced["failed"] == 0 and not traced["trace_ok"]
    plain = run.repetition("quotients", 1, False)
    run.report("quotients", {False: [plain], True: [traced]}, True)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False


def test_failed_observer_is_a_fault(monkeypatch):
    def broken(self, name, args, result):
        raise AttributeError("the library changed shape")

    monkeypatch.setattr(tracer.Tracer, "_observe", broken)
    ring = klr.KLRRing(klr.single_vertex())
    t = tracer.Tracer()
    t.run(lambda: ring.multiply(ring.idempotent("ii"), ring.idempotent("ii")))
    assert t.restored()
    assert "observer failed: elements.multiply" in t.faults()


def test_fails_without_the_library():
    with tempfile.TemporaryDirectory() as root:
        shutil.copytree(Path(run.HERE), Path(root) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "quotients",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_end_to_end_result_line():
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "rewriting",
         "--seed", "2", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {k for k, _ in run.END_TO_END}


def test_speed_scaling():
    probe = speed.SpeedProbe()
    ref = speed.REFERENCE_S
    probe.starts, probe.times = [0.0, 1.0], [2 * ref, 2 * ref]
    # Twice as slow as the reference: half the wall time, less the probe
    # that ran inside the interval.
    assert probe.scaled(0.0, 0.1) == pytest.approx((0.1 - 2 * ref) / 2)
    # No probe near the interval: the mean of all of them.
    assert probe.scaled(0.5, 0.6) == pytest.approx(0.05)
