"""Sparse Laurent polynomials in one variable q over the integers.

Coefficients are arbitrary-precision ints stored in a dict exponent -> coeff
with no zero values.  Includes the balanced quantum integers [n], factorials
[n]! and binomials used throughout.

``LaurentPoly(coeffs)`` is the checked constructor, the path for outside
input: every exponent and coefficient must be an int (``cartan.check_int``),
and zero coefficients are dropped.  ``LaurentPoly._of(coeffs)`` is the raw
constructor, for a dict already known to be valid, as the arithmetic here
and the form layer (``gdim``, ``characters``, ``elements``) build it: it
takes the dict as it is, without a copy or a check.

The arithmetic takes an int or a LaurentPoly operand; any other type, a
bool included (``cartan.check_int``), gives NotImplemented, so Python
raises TypeError.  A LaurentPoly is not iterable.
"""

from __future__ import annotations

from functools import lru_cache

from .cartan import check_int, check_type

_new = object.__new__


class LaurentPoly:
    """A Laurent polynomial in q with integer coefficients.

    Immutable by convention: methods return new instances and never mutate
    ``self.coeffs``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        """Raises TypeError unless coeffs is a dict or None
        (``cartan.check_type``), and ValueError unless every exponent and
        coefficient is an int (``cartan.check_int``); drops zeros."""
        out = {}
        if coeffs is not None:
            for e, c in check_type(dict, coeffs).items():
                check_int(e, "exponent")
                if check_int(c, "coefficient"):
                    out[e] = c
        self.coeffs = out

    @staticmethod
    def _of(coeffs):
        """The raw constructor: coeffs is a dict from ints to nonzero ints,
        kept as the new polynomial's own, so the caller must not change it
        afterwards."""
        p = _new(LaurentPoly)
        p.coeffs = coeffs
        return p

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero():
        return LaurentPoly._of({})

    @staticmethod
    def one():
        return LaurentPoly._of({0: 1})

    @staticmethod
    def const(n):
        """The constant n; raises ValueError unless n is an int."""
        check_int(n, "coefficient")
        return LaurentPoly._of({0: n} if n else {})

    @staticmethod
    def q_power(e, c=1):
        """c q^e; raises ValueError unless e and c are ints."""
        check_int(e, "exponent")
        check_int(c, "coefficient")
        return LaurentPoly._of({e: c} if c else {})

    # -- structure ---------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is int:
            other = _const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        # a constant equals, so hashes as, its int
        if self.coeffs.keys() <= {0}:
            return hash(self[0])
        return hash(frozenset(self.coeffs.items()))

    def min_exp(self):
        return min(self.coeffs) if self.coeffs else 0

    def __getitem__(self, e):
        return self.coeffs.get(e, 0)

    # not iterable: without this, iter() would call __getitem__(0), (1), ...
    # and never stop
    __iter__ = None

    def to_json(self):
        """{str(exponent): coefficient}, by increasing exponent."""
        return {str(e): c for e, c in sorted(self.coeffs.items())}

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if type(other) is int:  # a bool is not an int (check_int)
            other = _const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentPoly._of(out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentPoly._of({e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other):
        if type(other) is int:
            other = _const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        if type(other) is not int:
            return NotImplemented
        return _const(other) + (-self)

    def __mul__(self, other):
        if type(other) is int:
            other = _const(other)
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        return LaurentPoly._of(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        """self^n for an int n >= 0; raises ValueError for any other n
        (``cartan.check_int``)."""
        check_int(n, "exponent", 0)
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self):
        """Substitute q -> q^{-1}."""
        return LaurentPoly._of({-e: c for e, c in self.coeffs.items()})

    def shifted(self, k):
        """self * q^k; raises ValueError unless k is an int."""
        check_int(k, "exponent")
        return LaurentPoly._of({e + k: c for e, c in self.coeffs.items()})

    def exact_div(self, divisor: "LaurentPoly") -> "LaurentPoly":
        """Exact division; raises ``DivisibilityError`` on a remainder and
        TypeError unless the divisor is a LaurentPoly (``cartan.check_type``).

        Both operands are shifted to honest polynomials first, then ordinary
        univariate division by leading terms is performed over the integers.
        """
        if check_type(LaurentPoly, divisor).is_zero():
            raise ZeroDivisionError("division of LaurentPoly by zero")
        if self.is_zero():
            return LaurentPoly.zero()
        shift = self.min_exp() - divisor.min_exp()
        num = {e - self.min_exp(): c for e, c in self.coeffs.items()}
        den = {e - divisor.min_exp(): c for e, c in divisor.coeffs.items()}
        dlead = max(den)
        dc = den[dlead]
        quot = {}
        while num:
            nlead = max(num)
            if nlead < dlead:
                raise DivisibilityError(f"nonzero remainder {num}")
            nc = num[nlead]
            if nc % dc != 0:
                raise DivisibilityError(
                    f"leading coefficient {nc} not divisible by {dc}")
            qe, qc = nlead - dlead, nc // dc
            quot[qe] = qc
            for e, c in den.items():
                v = num.get(e + qe, 0) - qc * c
                if v:
                    num[e + qe] = v
                else:
                    num.pop(e + qe, None)
        return LaurentPoly._of({e + shift: c for e, c in quot.items()})

    def truncate(self, cutoff):
        """Drop all terms with exponent > cutoff.  Raises ValueError
        unless cutoff is an int (``cartan.check_int``)."""
        check_int(cutoff, "truncation cutoff")
        return LaurentPoly._of({e: c for e, c in self.coeffs.items()
                                if e <= cutoff})

    # -- formatting --------------------------------------------------------

    def __str__(self):
        return format_sum((self.coeffs[e],
                           None if e == 0 else "q" if e == 1 else f"q^{e}")
                          for e in sorted(self.coeffs))

    def __repr__(self):
        return f"LaurentPoly({self.coeffs!r})"


def _const(n):
    """An int operand of the arithmetic as a constant, unchecked."""
    return LaurentPoly._of({0: n} if n else {})


def format_sum(terms):
    """Write (coefficient, body) pairs as a signed sum like "2*q - q^3".

    A coefficient of 1 or -1 is written as a bare sign before the body, and
    a body of None stands for 1 (only the coefficient is written).  The
    empty sum is "0".
    """
    parts = []
    for c, body in terms:
        if body is None:
            parts.append(str(c))
        elif c == 1:
            parts.append(body)
        elif c == -1:
            parts.append(f"-{body}")
        else:
            parts.append(f"{c}*{body}")
    if not parts:
        return "0"
    return parts[0] + "".join(f" - {t[1:]}" if t.startswith("-") else f" + {t}"
                              for t in parts[1:])


class DivisibilityError(ArithmeticError):
    """Raised when an exact division leaves a remainder."""


def qint(n):
    """Balanced quantum integer [n] = q^{n-1} + q^{n-3} + ... + q^{1-n}.
    Raises ValueError unless n is an int >= 0 (``cartan.check_int``)."""
    check_int(n, "quantum integer n", 0)
    return LaurentPoly._of({n - 1 - 2 * k: 1 for k in range(n)})


@lru_cache(maxsize=None, typed=True)
def qfact(n):
    """Quantum factorial [n]! = [n][n-1]...[1], memoized.  Raises
    ValueError unless n is an int >= 0 (``cartan.check_int``); the memo is
    typed, so 2.0 and True never read the entries of 2 and 1."""
    check_int(n, "quantum factorial n", 0)
    out = LaurentPoly.one()
    for k in range(2, n + 1):
        out = out * qint(k)
    return out


def qmultinomial(parts):
    """Balanced quantum multinomial [sum parts]! / prod [n]! over the tuple
    parts; exact Laurent division, memoized.  Raises ValueError unless
    every part is an int >= 0 (``cartan.check_int``).  The memo is keyed
    on the checked tuple, so (1.0, 2) raises even once (1, 2) is cached."""
    for n in parts:
        check_int(n, "qmultinomial part", 0)
    return _qmultinomial(tuple(parts))


@lru_cache(maxsize=None)
def _qmultinomial(parts):
    den = LaurentPoly.one()
    for n in parts:
        den = den * qfact(n)
    return qfact(sum(parts)).exact_div(den)


def qbinom(n, k):
    """Balanced quantum binomial [n choose k].  Raises ValueError unless k
    and n are ints with 0 <= k <= n (``cartan.check_int``)."""
    check_int(n, "quantum binomial n", check_int(k, "quantum binomial k", 0))
    return qmultinomial((k, n - k))
