import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from klr import DivisibilityError, LaurentPoly, qbinom, qfact, qint
from klr.laurent import format_sum, qmultinomial


def test_basic_arithmetic():
    p = LaurentPoly({-2: 1, 0: 1})
    q = LaurentPoly({0: 1, 3: 2})
    assert (p + q).coeffs == {-2: 1, 0: 2, 3: 2}
    assert (p - p).is_zero()
    assert (p * LaurentPoly.one()) == p
    assert (p * LaurentPoly.zero()).is_zero()


def test_no_zero_coefficients_stored():
    p = LaurentPoly({1: 1}) - LaurentPoly({1: 1})
    assert p.coeffs == {}


def test_str_ascending():
    p = LaurentPoly({-2: 1, 0: 1, 3: 2})
    assert str(p) == "q^-2 + 1 + 2*q^3"
    assert str(LaurentPoly.zero()) == "0"


def test_format_sum():
    assert format_sum([]) == "0"
    assert format_sum([(-1, "x"), (3, None), (-2, "y"), (1, "z")]) == (
        "-x + 3 - 2*y + z")
    assert format_sum([(-4, None), (-1, "x")]) == "-4 - x"


def test_bar():
    p = LaurentPoly({-1: 3, 2: 1})
    assert p.bar().coeffs == {1: 3, -2: 1}
    assert p.bar().bar() == p


def test_exact_div():
    p = qint(2) * qint(3)
    assert p.exact_div(qint(2)) == qint(3)
    with pytest.raises(DivisibilityError):
        (qint(2) + LaurentPoly.one()).exact_div(qint(2))
    # a leading coefficient that does not divide over the integers
    with pytest.raises(DivisibilityError):
        LaurentPoly.one().exact_div(LaurentPoly.const(2))
    with pytest.raises(ZeroDivisionError):
        p.exact_div(LaurentPoly.zero())
    assert LaurentPoly.zero().exact_div(qint(2)) == LaurentPoly.zero()


def test_truncate_and_accessors():
    p = LaurentPoly({-2: 1, 0: 2, 4: 5})
    assert p.truncate(0).coeffs == {-2: 1, 0: 2}
    assert p.min_exp() == -2
    assert p[4] == 5
    assert p[17] == 0


def test_quantum_integers():
    assert qint(1) == LaurentPoly.one()
    assert qint(2).coeffs == {1: 1, -1: 1}
    assert qint(3).coeffs == {2: 1, 0: 1, -2: 1}
    assert qfact(3) == qint(3) * qint(2) * qint(1)
    assert qfact(0) == LaurentPoly.one()
    with pytest.raises(ValueError):
        qint(-1)
    with pytest.raises(ValueError):
        qint(2) ** -1


def test_qbinom():
    assert qbinom(2, 1) == qint(2)
    # balanced q-binomial (4 choose 2) = [4]![2]!^-2... check by product
    assert qbinom(4, 2) * qfact(2) * qfact(2) == qfact(4)
    assert qbinom(3, 0) == LaurentPoly.one()
    with pytest.raises(ValueError):
        qbinom(2, 3)


def test_negative_factorial_is_rejected():
    for n in (-1, -3):
        with pytest.raises(ValueError, match=f"^quantum factorial n {n} is "
                                             f"not an integer >= 0$"):
            qfact(n)
    # the multinomial's own factorials raise before any division
    with pytest.raises(ValueError) as exc:
        qmultinomial((-1, 2))
    assert not isinstance(exc.value, DivisibilityError)
    assert qmultinomial((1, 2)) == qint(3)


def test_to_json():
    p = LaurentPoly({2: 3, -1: 1, 0: -2})
    assert list(p.to_json().items()) == [("-1", 1), ("0", -2), ("2", 3)]
    assert LaurentPoly.zero().to_json() == {}


def test_int_operands():
    """An int operand is the constant polynomial, on either side; so a
    constant, zero included, hashes as the int it equals."""
    p = LaurentPoly({-1: 1, 0: 2})
    assert LaurentPoly.const(1) == 1 and not p == 1 and p != 2
    assert (p + 1).coeffs == {-1: 1, 0: 3}
    assert (1 + p).coeffs == {-1: 1, 0: 3}
    assert (p - 1).coeffs == {-1: 1, 0: 1}
    assert (1 - p).coeffs == {-1: -1, 0: -1}
    assert len({LaurentPoly.const(5), 5}) == 1
    assert len({LaurentPoly.zero(), 0}) == 1
    assert len({LaurentPoly.q_power(1), LaurentPoly.q_power(1, 1)}) == 1


def test_bool_is_not_an_int_operand_of_eq():
    """== takes no bool, as + - * take none: True is not the constant 1."""
    assert not LaurentPoly.one() == True  # noqa: E712
    assert not LaurentPoly.zero() == False  # noqa: E712
    assert LaurentPoly.one() != True  # noqa: E712
    assert LaurentPoly.one() == 1 and LaurentPoly.zero() == 0


def test_not_iterable():
    """A LaurentPoly is not a sequence of its coefficients: iteration and
    membership raise TypeError, where the item protocol would read p[0],
    p[1], ... without end."""
    p = LaurentPoly({1: 1})
    for op in (iter, list, lambda p: 0 in p):
        with pytest.raises(TypeError):
            op(p)


def test_constructor_checks_outside_input():
    """The public constructor is where outside input enters: every exponent
    and coefficient is an int (a bool is not one), and zeros are dropped."""
    for coeffs, message in [({0.5: 1}, "exponent 0.5 is not an integer"),
                            ({True: 1}, "exponent True is not an integer"),
                            ({"1": 1}, "exponent '1' is not an integer"),
                            ({0: 1.5}, "coefficient 1.5 is not an integer"),
                            ({0: False}, "coefficient False is not an integer"),
                            ({2: None}, "coefficient None is not an integer")]:
        with pytest.raises(ValueError, match=message):
            LaurentPoly(coeffs)
    for coeffs in ([(0, 1)], 1, "q"):
        with pytest.raises(TypeError,
                           match=re.escape(f"{coeffs!r} is not a dict")):
            LaurentPoly(coeffs)
    assert LaurentPoly({-1: 2, 0: 0, 3: -1}).coeffs == {-1: 2, 3: -1}
    assert LaurentPoly().coeffs == LaurentPoly({}).coeffs == {}
    assert LaurentPoly.const(0).coeffs == LaurentPoly.q_power(3, 0).coeffs == {}


_polys = st.dictionaries(st.integers(-5, 5), st.integers(-3, 3),
                         max_size=5).map(LaurentPoly)


def _valid(p):
    """No zero coefficient, ints only, and the checked constructor builds
    the same polynomial from the same dict."""
    assert 0 not in p.coeffs.values(), p
    assert p == LaurentPoly(p.coeffs)
    return p


@settings(max_examples=300, deadline=None)
@given(_polys, _polys, st.integers(-4, 4), st.integers(-3, 3))
def test_arithmetic_results_are_valid(p, r, k, n):
    """The arithmetic builds its results unchecked (``LaurentPoly._of``),
    so each must already be what the checked constructor would build."""
    for result in (p + r, p - r, p * r, p + (-p), r - r, -p, p.bar(),
                   p.truncate(k), p.shifted(k), p + n, n + p, p - n, n - p,
                   p * n, n * p, p ** 2, qint(abs(k)), qfact(abs(k)),
                   LaurentPoly.zero(), LaurentPoly.one(), LaurentPoly.const(n),
                   LaurentPoly.q_power(k, n)):
        _valid(result)
    if r:
        _valid((p * r).exact_div(r))
        assert (p * r).exact_div(r) == p
    assert p.shifted(k) == p * LaurentPoly.q_power(k)
