"""Exact graded dimensions: Laurent numerator over factors (1 - q^{2a}).

A GradedDim is numerator / prod_a (1 - q^{2a}) with the denominator kept as
a multiset of positive integers a.  Equality cross-multiplies by the
multiset difference of the two denominators only: the shared factors cancel
exactly, since each 1 - q^{2a} is nonzero.  Addition uses the same
differences to reach the multiset maximum.  No factorization is ever
attempted.  bar (q -> 1/q) rewrites each factor via
1/(1 - q^{-2a}) = -q^{2a}/(1 - q^{2a}).

``GradedDim(num, den)`` is the checked constructor, the path for outside
input: every factor must be an int >= 1 (``cartan.check_int``), and the
factors are sorted.  ``GradedDim._of(num, den)`` is the raw constructor,
for a denominator already known to be a sorted tuple of ints >= 1, as the
arithmetic here and the form layer build it.

One operand rule serves ``+``, ``-``, ``*`` and ``==``, from either side
(``_lift``): an int or a LaurentPoly is a GradedDim with no denominator,
and any other type, a bool included (``cartan.check_int``), gives
NotImplemented, so Python raises TypeError.  A product multiplies the
numerators over the merged denominator and cancels nothing; ``reduced()``
cancels the factors that divide the numerator, and only when called.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import check_int, check_type
from .laurent import LaurentPoly, DivisibilityError

_new = object.__new__


def _factor_poly(a):
    return LaurentPoly._of({0: 1, 2 * a: -1})


def _den_minus(den, other):
    """The multiset difference den - other of two sorted factor tuples,
    as a sorted tuple."""
    out, t = [], 0
    for a in den:
        while t < len(other) and other[t] < a:
            t += 1
        if t < len(other) and other[t] == a:
            t += 1
        else:
            out.append(a)
    return tuple(out)


@lru_cache(maxsize=None)
def _den_poly(factors):
    """The product of the factors 1 - q^{2a} of a sorted tuple, memoized."""
    out = LaurentPoly.one()
    for a in factors:
        out = out * _factor_poly(a)
    return out


def _lift(other):
    """An operand of the arithmetic as a GradedDim: a GradedDim as it is,
    an int or a LaurentPoly with no denominator, and NotImplemented for
    any other type, a bool included."""
    if isinstance(other, GradedDim):
        return other
    if type(other) is int:
        other = LaurentPoly._of({0: other} if other else {})
    if isinstance(other, LaurentPoly):
        return GradedDim._of(other, ())
    return NotImplemented


class GradedDim:
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den=()):
        """Raises TypeError unless num is a LaurentPoly
        (``cartan.check_type``), and ValueError unless every factor of den
        is an int >= 1 (``cartan.check_int``)."""
        self.num = check_type(LaurentPoly, num)
        den = tuple(den)
        for a in den:
            check_int(a, "denominator factor", 1)
        self.den = tuple(sorted(den))

    @staticmethod
    def _of(num, den):
        """The raw constructor: den is a sorted tuple of ints >= 1."""
        g = _new(GradedDim)
        g.num = num
        g.den = den
        return g

    @staticmethod
    def zero():
        return GradedDim._of(LaurentPoly.zero(), ())

    @staticmethod
    def one():
        return GradedDim._of(LaurentPoly.one(), ())

    def is_zero(self):
        return self.num.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return other
        # common denominator: the multiset maximum of the two
        extra = _den_minus(other.den, self.den)
        n1 = self.num * _den_poly(extra)
        n2 = other.num * _den_poly(_den_minus(self.den, other.den))
        den = tuple(sorted(self.den + extra)) if extra else self.den
        return GradedDim._of(n1 + n2, den)

    __radd__ = __add__

    def __neg__(self):
        return GradedDim._of(-self.num, self.den)

    def __sub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return other
        return other + (-self)

    def __mul__(self, other):
        """The numerators multiplied over the merged denominator, with no
        factor cancelled."""
        other = _lift(other)
        if other is NotImplemented:
            return other
        return GradedDim._of(self.num * other.num,
                             tuple(sorted(self.den + other.den)))

    __rmul__ = __mul__

    def reduced(self):
        """Cancel denominator factors that divide the numerator exactly,
        one trial division per factor.  Explicit only: no product calls
        it.  A character or pairing value has no factor to cancel: its
        numerator has nonnegative coefficients, so it is nonzero at q = 1,
        where every factor 1 - q^{2a} vanishes."""
        num = self.num
        out = []
        for a in self.den:
            try:
                num = num.exact_div(_factor_poly(a))
            except DivisibilityError:
                out.append(a)
        return GradedDim._of(num, tuple(out))

    def divide_poly(self, p: LaurentPoly) -> "GradedDim":
        """Exact division of the numerator; raises DivisibilityError, and
        TypeError unless p is a LaurentPoly (``LaurentPoly.exact_div``)."""
        return GradedDim._of(self.num.exact_div(p), self.den)

    def bar(self):
        """q -> q^{-1}; each factor contributes a unit -q^{2a}."""
        num = self.num.bar().shifted(2 * sum(self.den))
        return GradedDim._of(-num if len(self.den) % 2 else num, self.den)

    # -- comparison and expansion -----------------------------------------

    def __eq__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return other
        if self.den == other.den:
            return self.num == other.num
        return (self.num * _den_poly(_den_minus(other.den, self.den))
                == other.num * _den_poly(_den_minus(self.den, other.den)))

    def __hash__(self):
        raise TypeError("GradedDim is unhashable (equality is cross-multiplication)")

    def series(self, cutoff) -> LaurentPoly:
        """Coefficients of the geometric-series expansion up to q^cutoff.
        Raises ValueError unless cutoff is an int (``cartan.check_int``)."""
        check_int(cutoff, "series cutoff")
        out = self.num
        if out.is_zero():
            return out
        low = out.min_exp()
        for a in self.den:
            # expand 1/(1 - q^{2a}) = sum q^{2at}, truncated
            terms = {2 * a * t: 1 for t in range((cutoff - low) // (2 * a) + 1)}
            out = (out * LaurentPoly._of(terms)).truncate(cutoff)
        return out.truncate(cutoff)

    # -- io ----------------------------------------------------------------

    def to_json(self):
        return {"num": self.num.to_json(), "den": list(self.den)}

    @staticmethod
    def from_json(obj):
        """Inverse of to_json.  Raises ValueError for an object that is not
        a dict, that lacks "num" or "den", whose "num" is not a dict from
        exponents (ints or their strings) to int coefficients, or whose
        "den" is not a list of ints >= 1."""
        if not isinstance(obj, dict):
            raise ValueError("a graded dimension is a JSON object with keys "
                             "num and den")
        try:
            num, den = obj["num"], obj["den"]
        except KeyError as exc:
            raise ValueError(f"graded dimension is missing key {exc}") from None
        if not isinstance(num, dict):
            raise ValueError(f"num must be an object, not {num!r}")
        if not isinstance(den, list):
            raise ValueError(f"den must be a list, not {den!r}")
        for e, c in num.items():
            if type(e) not in (int, str):
                raise ValueError(f"exponent {e!r} must be an int or a string")
        return GradedDim(LaurentPoly({int(e): c for e, c in num.items()}), den)

    def __str__(self):
        num = str(self.num)
        if not self.den:
            return num
        if len(self.num.coeffs) > 1:
            num = f"({num})"
        counts = {}
        for a in self.den:
            counts[a] = counts.get(a, 0) + 1
        den = "".join(
            f"(1-q^{2*a})" + (f"^{c}" if c > 1 else "")
            for a, c in sorted(counts.items()))
        if len(counts) > 1 or len(self.den) > 1:
            den = f"({den})"
        return f"{num} / {den}"

    def __repr__(self):
        return f"GradedDim({self.num!r}, {self.den!r})"
