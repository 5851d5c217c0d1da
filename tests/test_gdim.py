import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klr import (
    GradedDim,
    KLRRing,
    LaurentPoly,
    a2,
    pair_monomials,
    pair_recursive,
)
from klr.laurent import qint


def geom(*factors):
    return GradedDim(LaurentPoly.one(), factors)


def test_series_geometric():
    assert geom(1).series(5).coeffs == {0: 1, 2: 1, 4: 1}
    assert geom(1, 1).series(4).coeffs == {0: 1, 2: 2, 4: 3}
    assert geom(2).series(6).coeffs == {0: 1, 4: 1}


def test_series_with_negative_numerator():
    gd = GradedDim(LaurentPoly({-2: 1, 0: 1}), (1, 1))
    s = gd.series(2)
    # (q^-2 + 1)/(1-q^2)^2 = q^-2 + 3 + 5q^2 + ...
    assert s.coeffs == {-2: 1, 0: 3, 2: 5}


def test_equality_cross_multiplication():
    # 1/(1-q^2) == (1+q^2)/(1-q^4)
    a = geom(1)
    b = GradedDim(LaurentPoly({0: 1, 2: 1}), (2,))
    assert a == b
    assert not (a == geom(2))
    # the character of i^(2) on one vertex, as `klr char` prints it, is
    # q^-1 / (1-q^2)^2
    assert GradedDim(LaurentPoly({-1: 1, 1: 1}), (1, 2)) == GradedDim(
        LaurentPoly.q_power(-1), (1, 1))


def test_add_common_denominator():
    a = geom(1)
    b = geom(1, 2)
    s = a + b
    # (1-q^4)/(...) + 1/(...) over common denominator (1-q^2)(1-q^4)
    assert s == GradedDim(LaurentPoly({0: 2, 4: -1}), (1, 2))
    assert (a - a).is_zero()


def test_mul_and_reduced():
    a = geom(1)
    p = LaurentPoly({0: 1, 2: -1})  # = 1 - q^2
    assert (a * p) == GradedDim.one()
    assert (a * 3) == GradedDim(LaurentPoly.const(3), (1,))
    assert (a * a) == geom(1, 1)


def test_products_cancel_nothing():
    """A product keeps every denominator factor, even one that divides its
    numerator; reduced() cancels it, and only when called."""
    p = LaurentPoly({0: 1, 2: -1})  # = 1 - q^2
    for prod in (geom(1) * p, p * geom(1),
                 geom(1) * GradedDim(p, ()), geom(1) * GradedDim(p, (2,))):
        assert 1 in prod.den and prod.num == p
    assert str(geom(1) * p) == "(1 - q^2) / (1-q^2)"
    assert geom(1) * p == 1
    assert (geom(1) * p).reduced().den == ()
    assert str((geom(1) * p).reduced()) == "1"


def test_bar():
    a = geom(1)
    # bar(1/(1-q^2)) = -q^2/(1-q^2)
    assert a.bar() == GradedDim(LaurentPoly({2: -1}), (1,))
    rng = random.Random(3)

    def draw():
        num = LaurentPoly({rng.randint(-3, 3): rng.randint(-5, 5)
                           for _ in range(3)})
        den = tuple(rng.randint(1, 3) for _ in range(rng.randint(0, 3)))
        return GradedDim(num, den)

    for _ in range(20):
        gd, other = draw(), draw()
        assert gd.bar().bar() == gd
        # bar is a ring involution: additive and multiplicative
        assert (gd + other).bar() == gd.bar() + other.bar()
        assert (gd - other).bar() == gd.bar() - other.bar()
        assert (gd * other).bar() == gd.bar() * other.bar()


def test_divide_poly():
    gd = GradedDim(qint(2) * qint(3), (1,))
    assert gd.divide_poly(qint(2)) == GradedDim(qint(3), (1,))
    from klr import DivisibilityError
    with pytest.raises(DivisibilityError):
        GradedDim(LaurentPoly({0: 1, 1: 1})).divide_poly(qint(2))


def test_unhashable():
    with pytest.raises(TypeError):
        hash(geom(1))


def test_json_round_trip():
    gd = GradedDim(LaurentPoly({-2: 1, 3: -4}), (1, 1, 2))
    assert GradedDim.from_json(gd.to_json()) == gd


def test_from_json_rejects_bad_objects():
    for obj, message in [({"num": {"0": 1}}, "missing key 'den'"),
                         ({"den": [1]}, "missing key 'num'"),
                         ({}, "missing key 'num'"),
                         ([{"0": 1}, [1]], "JSON object with keys num and den"),
                         ("1 / (1-q^2)", "JSON object with keys num and den")]:
        with pytest.raises(ValueError, match=message):
            GradedDim.from_json(obj)


def test_from_json_rejects_malformed_fields():
    for obj, message in [({"num": {"0": "a"}, "den": [1]},
                          "coefficient 'a' is not an integer"),
                         ({"num": {"0": 1.0}, "den": []},
                          "coefficient 1.0 is not an integer"),
                         ({"num": {"0": True}, "den": []},
                          "coefficient True is not an integer"),
                         ({"num": {1.5: 1}, "den": []},
                          "exponent 1.5 must be an int or a string"),
                         ({"num": {"x": 1}, "den": []}, "'x'"),
                         ({"num": [1], "den": []}, "num must be an object"),
                         ({"num": None, "den": []}, "num must be an object"),
                         ({"num": {}, "den": 5}, "den must be a list"),
                         ({"num": {}, "den": "12"}, "den must be a list"),
                         ({"num": {}, "den": {1: 1}}, "den must be a list")]:
        with pytest.raises(ValueError, match=message):
            GradedDim.from_json(obj)
    assert GradedDim.from_json({"num": {"-2": 3, 1: 1}, "den": [1]}) == (
        GradedDim(LaurentPoly({-2: 3, 1: 1}), (1,)))


def test_bad_denominator_factor():
    # 1/(1-q^0) is 1/0, and a negative factor would expand to garbage
    for den in ((0,), (-1,), (2, 0, 1), (1.0,), (True,), ("1",),
                ("a", 1)):
        with pytest.raises(ValueError):
            GradedDim(LaurentPoly.one(), den)
        with pytest.raises(ValueError):
            GradedDim.from_json({"num": {"0": 1}, "den": list(den)})
    assert GradedDim(LaurentPoly.one(), (2, 1)).den == (1, 2)
    for num in (1, {0: 1}, None):
        with pytest.raises(TypeError,
                           match=re.escape(f"{num!r} is not a LaurentPoly")):
            GradedDim(num, (1,))


def test_compare_with_laurent_poly():
    assert GradedDim.one() == LaurentPoly.one()
    assert LaurentPoly.one() == GradedDim.one()
    assert GradedDim(LaurentPoly({0: 1, 2: -1}), (1,)) == LaurentPoly.one()
    assert not (geom(1) == LaurentPoly.one())
    assert geom(1) != LaurentPoly.one()
    assert GradedDim.one() + LaurentPoly.one() == LaurentPoly.const(2)
    assert (geom(1) - LaurentPoly.one()) == GradedDim(
        LaurentPoly({2: 1}), (1,))


def test_operands_on_either_side():
    """An int or a LaurentPoly answers on either side of + - *: 1 + gd is
    gd + 1, and 1 - gd is -(gd - 1)."""
    gd, p = geom(1), LaurentPoly({1: 1})
    assert 1 + gd == gd + 1 == GradedDim(LaurentPoly({0: 2, 2: -1}), (1,))
    assert 1 - gd == -(gd - 1) == GradedDim(LaurentPoly({2: -1}), (1,))
    assert p + gd == gd + p and p - gd == -(gd - p) and p * gd == gd * p
    # nothing else is lifted, on the right of - either
    with pytest.raises(TypeError):
        "x" - GradedDim.one()


def test_distributivity_random():
    rng = random.Random(7)

    def rand_gd():
        num = LaurentPoly({rng.randint(-2, 2): rng.randint(-3, 3)
                           for _ in range(2)})
        den = tuple(rng.randint(1, 2) for _ in range(rng.randint(0, 2)))
        return GradedDim(num, den)

    for _ in range(25):
        x, y, z = rand_gd(), rand_gd(), rand_gd()
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        cut = 6
        assert (x * y).series(cut) == (
            x.series(cut + 8) * y.series(cut + 8)).truncate(cut)


_nums = st.dictionaries(st.integers(-6, 6), st.integers(-4, 4).filter(bool),
                        min_size=1, max_size=4).map(LaurentPoly)
_dens = st.lists(st.integers(1, 3), max_size=4)


@settings(max_examples=200, deadline=None)
@given(_nums, _dens, _dens, st.data())
def test_equality_cancels_shared_factors(num, den, extra, data):
    """Equal values over different denominators compare equal, and a
    changed numerator coefficient is seen over any denominators."""
    gd = GradedDim(num, den)
    factors = LaurentPoly.one()
    for a in extra:
        factors = factors * LaurentPoly({0: 1, 2 * a: -1})
    wide = GradedDim(num * factors, den + extra)
    assert gd == wide and wide == gd
    e = data.draw(st.integers(-6, 6))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    changed = GradedDim((num + LaurentPoly.q_power(e, delta)) * factors,
                        den + extra)
    assert not (gd == changed) and not (changed == gd)
    assert gd.bar().bar() == gd and wide.bar().bar() == gd


def _valid(gd):
    """A sorted tuple of ints >= 1 as denominator, over a numerator with
    no zero coefficient: what the checked constructors would build."""
    assert type(gd.den) is tuple and list(gd.den) == sorted(gd.den), gd
    assert all(type(a) is int and a >= 1 for a in gd.den), gd
    assert 0 not in gd.num.coeffs.values() and gd.num == LaurentPoly(
        gd.num.coeffs), gd
    return gd


_A2 = KLRRing(a2())
_monomials = st.lists(st.tuples(st.sampled_from("ij"), st.integers(1, 3)),
                      min_size=1, max_size=3).filter(
    lambda t: sum(n for _, n in t) <= 6).map(tuple)


@settings(max_examples=150, deadline=None)
@given(_nums, _dens, _nums, _dens, st.integers(-3, 3), _monomials, st.data())
def test_results_have_sorted_denominators(n1, d1, n2, d2, c, t1, data):
    """The arithmetic and both pairing routes build their results unchecked
    (``GradedDim._of``), so each must hold a valid sorted denominator."""
    x, y = GradedDim(n1, d1), GradedDim(n2, d2)
    t2 = tuple(data.draw(st.permutations(t1)))  # the weight of t1
    for result in (x + y, y + x, x - y, -x, x * y, x * c, x * n2, x + c,
                   x.bar(), x.reduced(), GradedDim(n1 * n2, d1).divide_poly(n2),
                   GradedDim.zero(), GradedDim.one(),
                   pair_monomials(_A2, t1, t2), pair_recursive(_A2, t1, t2)):
        _valid(result)
