"""Multivariable Laurent polynomials and rational functions over the integers.

Terms are stored sparsely as a map from integer exponent vectors (entries may
be negative) to integer coefficients, so all ring arithmetic is exact.  Only
evaluation at complex points leaves the exact world.  The ``LaurentPoly``
constructor is the one reader of terms, for the library and link files alike:
it refuses a non-integral value and sums and sorts what every operation hands it.
"""

from itertools import chain
from operator import add

import numpy as np

from .errors import DenominatorVanishes, NotDivisible, SchemaError, ZeroCoordinate

# Relative to the largest monomial magnitude at the point, a denominator value
# within _DEN_EPS of 0 is a pole and any value within _ZERO_EPS is a zero;
# Conway data has small integer coefficients, so true zeros are structural.
_DEN_EPS = 1e-12
_ZERO_EPS = 1e-10


# Values that are all exactly int (so no bool) need no as_integer call.
_INT_ONLY = frozenset((int,))


def as_integer(value, what, *args):
    """An int (not a bool) or integral float as int; else SchemaError naming ``what % args``.

    The one reading of an integer: link document fields and Seifert entries,
    color counts and signs, linking numbers, Laurent terms and variable
    counts, family parameters, profile orders, suite sample counts and the
    entries of an exact inertia.  An all-int scan may stand in for it.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise SchemaError((what % args) + " is not an integer")


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables with integer coefficients.

    ``terms`` is a mapping or an iterable of (exponents, coefficient) pairs,
    each value read with :func:`as_integer` unless it is exactly int.  Pairs
    on one exponent vector are summed and zero sums dropped, so two
    polynomials are equal exactly when their term maps are equal, and the
    terms are kept in the sorted order :meth:`to_records` writes: evaluation
    sums them in one order however the polynomial was built or read.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        nvars = as_integer(nvars, "variable count %r", nvars)
        if nvars < 1:
            raise ValueError("a Laurent polynomial needs at least one variable")
        self.nvars = nvars
        sums = {}
        for exp, coeff in terms.items() if hasattr(terms, "items") else terms:
            exp = tuple(exp)
            if not _INT_ONLY.issuperset(map(type, exp)):
                exp = tuple(as_integer(x, "exponent %r", x) for x in exp)
            if type(coeff) is not int:
                coeff = as_integer(coeff, "coefficient %r", coeff)
            if len(exp) != nvars:
                raise ValueError("exponent vector %r has length != %d" % (exp, nvars))
            sums[exp] = sums.get(exp, 0) + coeff
        self.terms = {exp: coeff for exp, coeff in sorted(sums.items()) if coeff}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def monomial(cls, nvars, exponents, coeff=1):
        return cls(nvars, {tuple(exponents): coeff})

    @classmethod
    def variable(cls, nvars, index, power=1):
        exps = [0] * nvars
        exps[index] = power
        return cls(nvars, {tuple(exps): 1})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __neg__(self):
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.constant(self.nvars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(self.nvars, chain(self.terms.items(), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else -LaurentPoly.constant(self.nvars, other))

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return LaurentPoly(self.nvars, ((tuple(map(add, e1, e2)), c1 * c2)
                                        for e1, c1 in self.terms.items()
                                        for e2, c2 in other.terms.items()))

    __rmul__ = __mul__

    def eval(self, point):
        """Evaluate at a tuple of nonzero complex numbers."""
        return self.eval_with_scale(point)[0]

    def eval_with_scale(self, point):
        """Evaluate, also returning the largest monomial magnitude.

        The scale is the natural yardstick for deciding whether the value is
        a true zero masked by rounding.
        """
        point = tuple(complex(z) for z in point)
        if len(point) != self.nvars:
            raise ValueError("expected %d coordinates, got %d" % (self.nvars, len(point)))
        for z in point:
            if z == 0:
                raise ZeroCoordinate("cannot evaluate a Laurent polynomial at a zero coordinate")
        total = 0.0 + 0.0j
        scale = 0.0
        for exps, coeff in self.terms.items():
            mono = complex(coeff)
            for z, e in zip(point, exps):
                mono *= z ** e
            total += mono
            scale = max(scale, abs(mono))
        return total, scale

    def eval_at_ones(self):
        """Exact integer value at the all-ones point (the coefficient sum)."""
        return sum(self.terms.values())

    def derivative(self, var):
        """Formal partial derivative with respect to variable ``var`` (0-based)."""
        return LaurentPoly(self.nvars, ((e[:var] + (e[var] - 1,) + e[var + 1:], c * e[var])
                                        for e, c in self.terms.items()))

    def to_records(self):
        return [{"coeff": c, "exp": list(e)} for e, c in self.terms.items()]

    @classmethod
    def from_records(cls, nvars, records):
        """The polynomial of :meth:`to_records` output, read by the constructor."""
        return cls(nvars, ((rec["exp"], rec["coeff"]) for rec in records))


def divide_exact(p, q):
    """Return ``r`` with ``p == q * r``, or raise :class:`NotDivisible`.

    Both arguments are first shifted by monomials so that every variable has
    minimum exponent zero; then ordinary multivariate division by leading
    terms under the lexicographic order runs to completion (the order is a
    well-order on nonnegative exponent vectors, so it terminates), and the
    quotient is shifted back.  Any failing step proves non-divisibility.
    """
    if not isinstance(p, LaurentPoly) or not isinstance(q, LaurentPoly):
        raise TypeError("divide_exact expects Laurent polynomials")
    if p.nvars != q.nvars:
        raise ValueError("variable counts differ")
    if q.is_zero:
        raise ValueError("division by the zero polynomial")
    if p.is_zero:
        return LaurentPoly.zero(p.nvars)

    nvars = p.nvars
    shift_p = [min(e[j] for e in p.terms) for j in range(nvars)]
    shift_q = [min(e[j] for e in q.terms) for j in range(nvars)]
    rem = {tuple(a - b for a, b in zip(e, shift_p)): c for e, c in p.terms.items()}
    den = {tuple(a - b for a, b in zip(e, shift_q)): c for e, c in q.terms.items()}
    den_lead = max(den)
    den_coeff = den[den_lead]

    quot = []
    while rem:
        lead = max(rem)
        mono = tuple(a - b for a, b in zip(lead, den_lead))
        if any(e < 0 for e in mono):
            raise NotDivisible("leading monomial %r is not divisible" % (lead,))
        coeff = rem[lead]
        if coeff % den_coeff:
            raise NotDivisible("leading coefficient %d is not divisible by %d" % (coeff, den_coeff))
        factor = coeff // den_coeff
        quot.append((mono, factor))
        for e, c in den.items():
            key = tuple(a + b for a, b in zip(mono, e))
            v = rem.get(key, 0) - factor * c
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)

    back = tuple(a - b for a, b in zip(shift_p, shift_q))
    return LaurentPoly(nvars, ((tuple(map(add, e, back)), c) for e, c in quot))


class RationalFunction:
    """A quotient of Laurent polynomials.

    Quotients are never reduced; equality is tested by cross-multiplication.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=None):
        if not isinstance(num, LaurentPoly):
            raise TypeError("numerator must be a LaurentPoly")
        if den is None:
            den = LaurentPoly.constant(num.nvars, 1)
        if not isinstance(den, LaurentPoly):
            raise TypeError("denominator must be a LaurentPoly")
        if den.is_zero:
            raise ValueError("zero denominator")
        if num.nvars != den.nvars:
            raise ValueError("variable counts differ")
        self.num = num
        self.den = den

    @property
    def nvars(self):
        return self.num.nvars

    @property
    def is_zero(self):
        return self.num.is_zero

    def eval(self, point):
        return self.eval_with_zero(point)[0]

    def eval_with_zero(self, point):
        """The value at a point and whether it is zero; the one pole rule.

        Where the denominator vanishes it is divided into the numerator
        exactly and the quotient is evaluated (a removable 0/0); where that
        division fails, DenominatorVanishes is raised.
        """
        dval, dscale = self.den.eval_with_scale(point)
        if abs(dval) <= _DEN_EPS * max(1.0, dscale):
            try:
                value, scale = divide_exact(self.num, self.den).eval_with_scale(point)
            except NotDivisible:
                raise DenominatorVanishes("denominator vanishes at %r" % (point,)) from None
            return value, abs(value) <= _ZERO_EPS * scale
        value, scale = self.num.eval_with_scale(point)
        return value / dval, abs(value) <= _ZERO_EPS * scale

    def derivative(self, var):
        """Formal partial derivative, by the quotient rule."""
        dn = self.num.derivative(var)
        dd = self.den.derivative(var)
        return RationalFunction(dn * self.den - self.num * dd, self.den * self.den)

    def __eq__(self, other):
        if isinstance(other, LaurentPoly):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def to_document(self):
        return {"num": self.num.to_records(), "den": self.den.to_records()}

    @classmethod
    def from_document(cls, nvars, doc):
        if isinstance(doc, list):
            return cls(LaurentPoly.from_records(nvars, doc))
        return cls(LaurentPoly.from_records(nvars, doc["num"]),
                   LaurentPoly.from_records(nvars, doc["den"]))


def as_rational(value):
    """Coerce a polynomial or rational function to a rational function."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, LaurentPoly):
        return RationalFunction(value)
    raise TypeError("expected LaurentPoly or RationalFunction, got %r" % type(value))
