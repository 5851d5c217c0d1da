"""The argument contract of the whole public API, as one fuzz.

The README's contract: an argument of the wrong Python type raises
TypeError, and an out-of-range value a ValueError subclass.  ``_calls``
is a table of valid calls over every callable in ``klr.__all__``, the
public methods of ``KLRRing``, ``GradedDim`` and ``LaurentPoly``, and the
text readers and writer of ``klr.sequences``.  Each argument of each call
is replaced in turn by each of the 13 ``bad_values``.  A call that raises anything
other than TypeError or ValueError (or their subclasses), or that runs
past ``LIMIT_S`` seconds, breaks the contract, unless ``ALLOWED`` lists
it as the correct answer, with its reason.  The per-call limit is a
``signal.setitimer`` alarm in this process: no thread or subprocess.
"""

import contextlib
import inspect
import signal

import klr
from klr import (
    CartanGraph,
    CharacterVector,
    DivisibilityError,
    GradedDim,
    GradedDimReport,
    IdealSpec,
    K0Vector,
    KLRElement,
    KLRRing,
    LaurentPoly,
    TightReport,
    a2,
    cycle,
    single_vertex,
    sym_plus_spec,
)
from klr.sequences import format_seq, parse_divided, parse_seq, parse_weight

LIMIT_S = 2.0

BAD_NAMES = ("None", "-1", "1.5", "True", "'x'", "[]", "{}", "object()",
             "cycle3_elem", "LaurentPoly", "GradedDim", "[[1]]", "(1,)")


def bad_values():
    """The 13 bad values, new each time, so no call sees another's."""
    ring3 = KLRRing(cycle(3))
    return dict(zip(BAD_NAMES, (
        None, -1, 1.5, True, "x", [], {}, object(),
        ring3.generator(("C", 1), ("1", "2")),
        LaurentPoly({1: 2}), GradedDim(LaurentPoly({0: 1}), (1,)),
        [[1]], (1,))))


def _calls():
    """label -> (callable, args, kwargs), each a valid call on small
    rings over a1 and a2."""
    g, g1 = a2(), single_vertex()
    ring, ring1, ring3 = KLRRing(g), KLRRing(g1), KLRRing(cycle(3))
    x = ring.generator(("C", 1), ("i", "j"))
    y = ring.idempotent(("i", "j"))
    ij = (("i", 1), ("j", 1))
    w = (("i", 1), ("j", 1))
    lp = LaurentPoly({0: 1, 2: -1})
    gd = GradedDim(LaurentPoly({0: 1}), (1,))
    cv = klr.char_projective(ring, ij)
    k0 = K0Vector.monomial(ij)
    spec = sym_plus_spec(ring1, (("i", 2),))
    o = klr.default_orientation(g)
    terms = {(("i", "j"), (1, 0), (0, 0)): 1}
    return {
        # cartan
        "CartanGraph": (CartanGraph, (["i", "j"], [("i", "j")]), {}),
        "GraphError": (klr.GraphError, ("message",), {}),
        "a1xa1": (klr.a1xa1, ("i", "j"), {}),
        "a2": (klr.a2, ("i", "j"), {}),
        "cycle": (klr.cycle, (3,), {}),
        "single_vertex": (klr.single_vertex, ("i",), {}),
        "weight_add": (klr.weight_add, (w, w), {}),
        "weight_from_dict": (klr.weight_from_dict, ({"i": 1},), {}),
        "weight_of_seq": (klr.weight_of_seq, (("i", "j"),), {}),
        "weight_size": (klr.weight_size, (w,), {}),
        # characters
        "CharacterVector": (CharacterVector, (g, w, {("i", "j"): gd}), {}),
        "K0Vector": (K0Vector, (w, {ij: lp}), {}),
        "TightReport": (TightReport, (ij, True, 1, None), {}),
        "bar_k0": (klr.bar_k0, (k0,), {}),
        "char_at_divided": (klr.char_at_divided, (cv, ij), {}),
        "char_projective": (klr.char_projective, (ring, ij), {}),
        "comultiply": (klr.comultiply, (g, ij), {}),
        "cycle_alpha": (klr.cycle_alpha, (ring3, 3), {}),
        "equal_in_f": (klr.equal_in_f, (ring, k0, k0), {}),
        "orthogonal_idempotents_check": (
            klr.orthogonal_idempotents_check, (ring, "i", "j"), {}),
        "pair_k0": (klr.pair_k0, (ring, k0, ij), {}),
        "pair_monomials": (klr.pair_monomials, (ring, ij, ij), {}),
        "pair_recursive": (klr.pair_recursive, (ring, ij, ij), {}),
        "serre_check": (klr.serre_check, (ring, "i", "j"), {}),
        "shuffle_product": (klr.shuffle_product, (cv, cv), {}),
        "sigma_k0": (klr.sigma_k0, (k0,), {}),
        "tight": (klr.tight, (ring, ij), {}),
        # elements
        "InhomogeneousError": (klr.InhomogeneousError, ("message",), {}),
        "KLRElement": (KLRElement, (ring, terms), {}),
        "KLRRing": (KLRRing, (g,), {}),
        "WeightMismatchError": (klr.WeightMismatchError, ("message",), {}),
        "diagram_degree": (klr.diagram_degree, (g, ("i", "j"), (1, 0)), {}),
        "KLRRing.stats": (ring.stats, (), {}),
        "KLRRing.element": (ring.element, (terms,), {}),
        "KLRRing.zero": (ring.zero, (), {}),
        "KLRRing.element_from_json": (ring.element_from_json,
                                      (x.to_json(),), {}),
        "KLRRing.idempotent": (ring.idempotent, (("i", "j"),), {}),
        "KLRRing.generator": (ring.generator, (("D", 1), ("i", "j")), {}),
        "KLRRing.evaluate_word": (ring.evaluate_word,
                                  (("i", "j"), [("C", 1)]), {}),
        "KLRRing.multiply": (ring.multiply, (y, x), {}),
        "KLRRing.multiply_terms": (ring.multiply_terms,
                                   (y.terms, x.terms), {}),
        "KLRRing.psi": (ring.psi, (x,), {}),
        "KLRRing.sigma": (ring.sigma, (x,), {}),
        "KLRRing.juxtapose": (ring.juxtapose, (x, y), {}),
        "KLRRing.gdim_hom": (ring.gdim_hom, (("i", "j"), ("j", "i")), {}),
        "KLRRing.gdim_hom_divided": (ring.gdim_hom_divided,
                                     (("i", "j"), ij), {}),
        "KLRRing.nilhecke_em": (ring.nilhecke_em, (2, "i"), {}),
        # gdim
        "GradedDim": (GradedDim, (lp, (1, 2)), {}),
        "GradedDim.zero": (GradedDim.zero, (), {}),
        "GradedDim.one": (GradedDim.one, (), {}),
        "GradedDim.is_zero": (gd.is_zero, (), {}),
        "GradedDim.reduced": (gd.reduced, (), {}),
        "GradedDim.divide_poly": (gd.divide_poly, (LaurentPoly({0: 1}),),
                                  {}),
        "GradedDim.bar": (gd.bar, (), {}),
        "GradedDim.series": (gd.series, (4,), {}),
        "GradedDim.to_json": (gd.to_json, (), {}),
        "GradedDim.from_json": (GradedDim.from_json, (gd.to_json(),), {}),
        # laurent
        "DivisibilityError": (DivisibilityError, ("message",), {}),
        "LaurentPoly": (LaurentPoly, ({0: 1, 1: 2},), {}),
        "qbinom": (klr.qbinom, (4, 2), {}),
        "qfact": (klr.qfact, (3,), {}),
        "qint": (klr.qint, (3,), {}),
        "LaurentPoly.zero": (LaurentPoly.zero, (), {}),
        "LaurentPoly.one": (LaurentPoly.one, (), {}),
        "LaurentPoly.const": (LaurentPoly.const, (3,), {}),
        "LaurentPoly.q_power": (LaurentPoly.q_power, (2, 3), {}),
        "LaurentPoly.is_zero": (lp.is_zero, (), {}),
        "LaurentPoly.min_exp": (lp.min_exp, (), {}),
        "LaurentPoly.to_json": (lp.to_json, (), {}),
        "LaurentPoly.bar": (lp.bar, (), {}),
        "LaurentPoly.shifted": (lp.shifted, (2,), {}),
        "LaurentPoly.exact_div": (lp.exact_div, (LaurentPoly({0: 1, 1: 1}),),
                                  {}),
        "LaurentPoly.truncate": (lp.truncate, (1,), {}),
        # permutations
        "GeneratorIndexError": (klr.GeneratorIndexError, ("message",), {}),
        # polyrep
        "act": (klr.act, (o, x, ("j", "i"), {(1, 0): 1}), {}),
        "act_many": (klr.act_many, (o, x, ("j", "i"), [{(1, 0): 1}]), {}),
        "act_word": (klr.act_word, (g, o, ("i", "j"), [("C", 1), ("D", 2)],
                                    {(1, 0): 1}), {}),
        "default_orientation": (klr.default_orientation, (g,), {}),
        "oracle_equal": (klr.oracle_equal, (x, x), {"orientation": o}),
        "reversed_orientation": (klr.reversed_orientation, (g,), {}),
        # quotients
        "GradedDimReport": (GradedDimReport,
                            ({0: 1}, True, 4, "Q", None, 0), {}),
        "IdealSpec": (IdealSpec, (w, [y]), {}),
        "cyclotomic_spec": (klr.cyclotomic_spec,
                            (ring1, (("i", 2),), {"i": 1}), {}),
        "degree_lower_bound": (klr.degree_lower_bound, (w,), {}),
        "graded_basis": (klr.graded_basis, (g, w, 1), {}),
        "ideal_degree_dim": (klr.ideal_degree_dim, (ring1, spec, 0, 7), {}),
        "quotient_gdim": (klr.quotient_gdim, (ring1, spec, 2, 1, 7), {}),
        "sym_plus_spec": (klr.sym_plus_spec, (ring1, (("i", 2),)), {}),
        # sequences
        "expand": (klr.expand, (ij,), {}),
        "factorial_poly": (klr.factorial_poly, ((("i", 2),),), {}),
        "seq_enumerate": (klr.seq_enumerate, (w,), {}),
        "shift": (klr.shift, ((("i", 2),),), {}),
        "shuffles": (klr.shuffles, (g, ("i",), ("j",)), {}),
        "parse_seq": (parse_seq, ("ij", g), {}),
        "parse_divided": (parse_divided, ("i^(2)j", g), {}),
        "parse_weight": (parse_weight, ("i:2,j:1",), {}),
        "format_seq": (format_seq, (("i", "j"), g), {}),
    }


# (call label, argument, bad value) -> (exception, reason): calls whose
# answer is an exception outside the contract, and correct
ALLOWED = {
    ("GradedDim.divide_poly", 0, "LaurentPoly"): (
        DivisibilityError, "2q does not divide the numerator 1"),
    ("LaurentPoly.exact_div", 0, "LaurentPoly"): (
        DivisibilityError, "2q does not divide 1 - q^2"),
}


class _Overtime(BaseException):
    """Raised by the alarm; a BaseException, so no handler in the package
    that catches an Exception can swallow it."""


def _alarm(signum, frame):
    raise _Overtime


@contextlib.contextmanager
def _alarms():
    """SIGALRM raises _Overtime inside the block."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        yield
    finally:
        signal.signal(signal.SIGALRM, previous)


def _call_within_limit(fn, args, kwargs):
    """fn(*args, **kwargs), stopped by _Overtime after LIMIT_S seconds."""
    signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
    try:
        return fn(*args, **kwargs)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _fuzz():
    """Every call of the table with one argument, positional (its index)
    or keyword (its name), replaced by one bad value: returns ((label,
    argument, bad value) -> the exception or "hang") for the calls that
    break the contract, and the number of calls made."""
    found, made = {}, 0
    with _alarms():
        for label, (fn, args, kwargs) in _calls().items():
            for where in [*range(len(args)), *kwargs]:
                for bad, value in bad_values().items():
                    a, kw = list(args), dict(kwargs)
                    if isinstance(where, int):
                        a[where] = value
                    else:
                        kw[where] = value
                    made += 1
                    try:
                        _call_within_limit(fn, a, kw)
                    except (TypeError, ValueError):
                        pass
                    except _Overtime:
                        found[label, where, bad] = "hang"
                    except Exception as exc:
                        found[label, where, bad] = exc
    return found, made


def test_table_covers_the_public_api():
    """Every callable of ``klr.__all__`` and every public method of the
    three classes has a valid call in the table, and every valid call of
    the table returns within the limit."""
    calls = _calls()
    names = {name for name in klr.__all__
             if callable(getattr(klr, name))}
    for cls in (KLRRing, GradedDim, LaurentPoly):
        names |= {f"{cls.__name__}.{name}"
                  for name, _ in inspect.getmembers(cls, callable)
                  if not name.startswith("_")}
    names |= {"parse_seq", "parse_divided", "parse_weight", "format_seq"}
    assert names == set(calls)
    with _alarms():
        for fn, args, kwargs in calls.values():
            _call_within_limit(fn, args, kwargs)


def test_bad_arguments_raise_type_or_value_errors():
    """No call with one bad argument raises an exception outside the
    contract or hangs, except the correct answers of ``ALLOWED``, each of
    which still happens."""
    found, made = _fuzz()
    assert made > 2000
    broken = {case: exc if exc == "hang" else f"{type(exc).__name__}: {exc}"
              for case, exc in found.items()
              if not (case in ALLOWED and type(exc) is ALLOWED[case][0])}
    assert broken == {}
    assert {case: type(found.get(case)) for case in ALLOWED} == {
        case: exc for case, (exc, _) in ALLOWED.items()}
