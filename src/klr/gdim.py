"""Exact graded dimensions: Laurent numerator over factors (1 - q^{2a}).

A GradedDim is numerator / prod_a (1 - q^{2a}) with the denominator kept as
a multiset of positive integers a.  Equality cross-multiplies by the
multiset difference of the two denominators only: the shared factors cancel
exactly, since each 1 - q^{2a} is nonzero.  No factorization is ever
attempted.  bar (q -> 1/q) rewrites each factor via
1/(1 - q^{-2a}) = -q^{2a}/(1 - q^{2a}).
"""

from __future__ import annotations

from .laurent import LaurentPoly, DivisibilityError


def _factor_poly(a):
    return LaurentPoly({0: 1, 2 * a: -1})


def _den_minus(den, other):
    """The multiset difference den - other of two sorted factor tuples."""
    out, t = [], 0
    for a in den:
        while t < len(other) and other[t] < a:
            t += 1
        if t < len(other) and other[t] == a:
            t += 1
        else:
            out.append(a)
    return out


def _den_poly(factors):
    out = LaurentPoly.one()
    for a in factors:
        out = out * _factor_poly(a)
    return out


class GradedDim:
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den=()):
        self.num = num
        self.den = tuple(sorted(den))

    @staticmethod
    def zero():
        return GradedDim(LaurentPoly.zero())

    @staticmethod
    def one():
        return GradedDim(LaurentPoly.one())

    def is_zero(self):
        return self.num.is_zero()

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = GradedDim(LaurentPoly.const(other)
                              if isinstance(other, int) else other)
        # common denominator: multiset maximum of the factor multiplicities
        counts = {}
        for a in self.den:
            counts[a] = counts.get(a, 0) + 1
        other_counts = {}
        for a in other.den:
            other_counts[a] = other_counts.get(a, 0) + 1
        union = {a: max(counts.get(a, 0), other_counts.get(a, 0))
                 for a in set(counts) | set(other_counts)}
        den = [a for a, c in union.items() for _ in range(c)]
        n1 = self.num * _den_poly(
            a for a, c in union.items()
            for _ in range(c - counts.get(a, 0)))
        n2 = other.num * _den_poly(
            a for a, c in union.items()
            for _ in range(c - other_counts.get(a, 0)))
        return GradedDim(n1 + n2, den)

    def __neg__(self):
        return GradedDim(-self.num, self.den)

    def __sub__(self, other):
        if isinstance(other, (int, LaurentPoly)):
            other = GradedDim(LaurentPoly.const(other)
                              if isinstance(other, int) else other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return GradedDim(self.num * other, self.den)
        if isinstance(other, LaurentPoly):
            return GradedDim(self.num * other, self.den).reduced()
        return GradedDim(self.num * other.num, self.den + other.den).reduced()

    __rmul__ = __mul__

    def reduced(self):
        """Cancel denominator factors that divide the numerator exactly."""
        num, den = self.num, list(self.den)
        if num.is_zero():
            return GradedDim(num)
        out = []
        for a in den:
            try:
                num = num.exact_div(_factor_poly(a))
            except DivisibilityError:
                out.append(a)
        return GradedDim(num, out)

    def divide_poly(self, p: LaurentPoly) -> "GradedDim":
        """Exact division of the numerator; raises DivisibilityError."""
        return GradedDim(self.num.exact_div(p), self.den)

    def bar(self):
        """q -> q^{-1}; each factor contributes a unit -q^{2a}."""
        num = self.num.bar()
        for a in self.den:
            num = num * LaurentPoly.q_power(2 * a, -1)
        return GradedDim(num, self.den)

    # -- comparison and expansion -----------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = GradedDim(LaurentPoly.const(other))
        if not isinstance(other, GradedDim):
            return NotImplemented
        if self.den == other.den:
            return self.num == other.num
        return (self.num * _den_poly(_den_minus(other.den, self.den))
                == other.num * _den_poly(_den_minus(self.den, other.den)))

    def __hash__(self):
        raise TypeError("GradedDim is unhashable (equality is cross-multiplication)")

    def series(self, cutoff) -> LaurentPoly:
        """Coefficients of the geometric-series expansion up to q^cutoff."""
        out = self.num
        if out.is_zero():
            return out
        low = out.min_exp()
        for a in self.den:
            # expand 1/(1 - q^{2a}) = sum q^{2at}, truncated
            terms = {2 * a * t: 1 for t in range((cutoff - low) // (2 * a) + 1)}
            out = (out * LaurentPoly(terms)).truncate(cutoff)
        return out.truncate(cutoff)

    # -- io ----------------------------------------------------------------

    def to_json(self):
        return {"num": {str(e): c for e, c in sorted(self.num.coeffs.items())},
                "den": list(self.den)}

    @staticmethod
    def from_json(obj):
        return GradedDim(LaurentPoly({int(e): c for e, c in obj["num"].items()}),
                         obj["den"])

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
