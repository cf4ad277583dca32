"""Multivariable Laurent polynomials and rational functions over the integers.

Terms are stored sparsely as a map from integer exponent vectors (entries may
be negative) to integer coefficients, so all ring arithmetic is exact.  Only
evaluation at complex points leaves the exact world.
"""

import numpy as np

from .errors import DenominatorVanishes, NotDivisible, SchemaError, ZeroCoordinate

# A denominator value this close to zero (relative to the size of its largest
# monomial at the point) counts as a pole.
_DEN_EPS = 1e-12


# Values that are all exactly int (so no bool) need no as_integer call.
_INT_ONLY = frozenset((int,))


def as_integer(value, what, *args):
    """An int (not a bool) or integral float as int; else SchemaError naming ``what % args``.

    The one reading of an integer in a link document: Seifert entries,
    linking numbers, counts, and Conway coefficients and exponents.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    raise SchemaError((what % args) + " is not an integer")


class LaurentPoly:
    """A Laurent polynomial in ``nvars`` variables with integer coefficients.

    Zero-coefficient terms are never stored, so two polynomials are equal
    exactly when their term maps are equal.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        nvars = int(nvars)
        if nvars < 1:
            raise ValueError("a Laurent polynomial needs at least one variable")
        self.nvars = nvars
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(map(int, exp))
            if len(exp) != nvars:
                raise ValueError("exponent vector %r has length != %d" % (exp, nvars))
            coeff = int(coeff)
            if coeff:
                clean[exp] = coeff
        self.terms = clean

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
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentPoly(self.nvars, out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, LaurentPoly) else -LaurentPoly.constant(self.nvars, other))

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(key, 0) + c1 * c2
                if v:
                    out[key] = v
                else:
                    out.pop(key, None)
        return LaurentPoly(self.nvars, out)

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
        out = {}
        for exps, coeff in self.terms.items():
            e = exps[var]
            if e == 0:
                continue
            key = exps[:var] + (e - 1,) + exps[var + 1:]
            v = out.get(key, 0) + coeff * e
            if v:
                out[key] = v
            else:
                out.pop(key, None)
        return LaurentPoly(self.nvars, out)

    def to_records(self):
        return [{"coeff": c, "exp": list(e)} for e, c in sorted(self.terms.items())]

    @classmethod
    def from_records(cls, nvars, records):
        """The polynomial of :meth:`to_records` output; every coefficient and
        exponent must be an integer in the sense of :func:`as_integer`, which
        reads only the values that are not exactly int."""
        terms = {}
        for rec in records:
            key = tuple(rec["exp"])
            if not _INT_ONLY.issuperset(map(type, key)):
                key = tuple(as_integer(x, "exponent %r", x) for x in key)
            coeff = rec["coeff"]
            if type(coeff) is not int:
                coeff = as_integer(coeff, "coefficient %r", coeff)
            terms[key] = terms.get(key, 0) + coeff
        return cls(nvars, terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for exps, coeff in sorted(self.terms.items(), reverse=True):
            factors = []
            for j, e in enumerate(exps):
                if e == 1:
                    factors.append("t%d" % (j + 1))
                elif e != 0:
                    factors.append("t%d^%d" % (j + 1, e))
            body = "*".join(factors)
            if body:
                if coeff == 1:
                    bits.append(body)
                elif coeff == -1:
                    bits.append("-" + body)
                else:
                    bits.append("%d*%s" % (coeff, body))
            else:
                bits.append(str(coeff))
        out = bits[0]
        for b in bits[1:]:
            out += " - " + b[1:] if b.startswith("-") else " + " + b
        return out


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

    quot = {}
    while rem:
        lead = max(rem)
        mono = tuple(a - b for a, b in zip(lead, den_lead))
        if any(e < 0 for e in mono):
            raise NotDivisible("leading monomial %r is not divisible" % (lead,))
        coeff = rem[lead]
        if coeff % den_coeff:
            raise NotDivisible("leading coefficient %d is not divisible by %d" % (coeff, den_coeff))
        factor = coeff // den_coeff
        quot[mono] = quot.get(mono, 0) + factor
        for e, c in den.items():
            key = tuple(a + b for a, b in zip(mono, e))
            v = rem.get(key, 0) - factor * c
            if v:
                rem[key] = v
            else:
                rem.pop(key, None)

    back = tuple(a - b for a, b in zip(shift_p, shift_q))
    return LaurentPoly(nvars, {tuple(a + b for a, b in zip(e, back)): c
                               for e, c in quot.items()})


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
        dval, dscale = self.den.eval_with_scale(point)
        if abs(dval) <= _DEN_EPS * max(1.0, dscale):
            raise DenominatorVanishes("denominator vanishes at %r" % (point,))
        return self.num.eval(point) / dval

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

    def __repr__(self):
        if self.den == 1:
            return repr(self.num)
        return "(%r) / (%r)" % (self.num, self.den)


def as_rational(value):
    """Coerce a polynomial or rational function to a rational function."""
    if isinstance(value, RationalFunction):
        return value
    if isinstance(value, LaurentPoly):
        return RationalFunction(value)
    raise TypeError("expected LaurentPoly or RationalFunction, got %r" % type(value))
