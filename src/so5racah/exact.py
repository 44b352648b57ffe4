"""Exact arithmetic on single signed radicals (num/den)*sqrt(rad).

Every scalar in the coupling-coefficient pipeline is one such term with
rad squarefree: the SU(2) and SO(4) symbols, the generator reduced
matrix elements, every entry of the Racah system and every solved or
transformed coefficient.  Products and quotients of radicals are
radicals, and the linear algebra eliminates on the rational factor of
each matrix (see ``linalg``), so nothing divides by a sum.

One value type, ``Radical``.  A sum is a radical within one radical
class: zero added to anything gives the other operand, and two nonzero
terms with different radicands raise ``NotFactorable``, the rule
``ExactMatrix.rref`` applies to the system matrix.  So no value with
two terms is ever built, and nothing falls back to one.

Coefficients are stored as reduced pairs of plain ints: den > 0 and
gcd(num, den) = 1, zero being (0, 1, 1), and the radicand squarefree
>= 1.  ``Radical(c, q)``, the one constructor, stores c*sqrt(q) in that
form for an int or Fraction c and q >= 0: Radical(1, 45) is 3*sqrt(5).
The arithmetic reduces each pair with math.gcd where it is made, so no
Fraction is built per field operation, and equal values have equal
stores and hash alike.  Fractions appear only at the boundary:
``Radical.coeff``, ``rational()``, ``square()`` and ``decimal``;
scalar operands take ints or Fractions.

The canonical text form renders a value as a signed square root of a
single rational, e.g. -(2/5)*sqrt(5) prints as ``-sqrt(4/5)``.
``parse_value`` inverts ``render_value`` exactly.
"""

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt

from .errors import NotFactorable


def _square_split(n, bound=None):
    """Write n = sq**2 * rad with rad squarefree; returns (sq, rad).

    Plain trial division.  The radicands met in practice are products
    of small factorial ratios, so the leftover after dividing out every
    prime up to sqrt(n) is 1 or a single prime, which is squarefree.
    With a bound, division stops there: a leftover below bound**3 has at
    most two prime factors, so it is squarefree unless it is a square,
    and a larger one raises ValueError.
    """
    sq = 1
    rad = 1
    d = 2
    while d * d <= n and (bound is None or d < bound):
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            sq *= d ** (e // 2)
            if e % 2:
                rad *= d
        d += 1 if d == 2 else 2
    if d * d <= n and n >= bound ** 3:
        raise ValueError("radicand factor %d is too large to split" % n)
    r = isqrt(n)
    return (sq * r, rad) if r * r == n else (sq, rad * n)


def _pair(q):
    """Reduced (num, den) of an int or Fraction; None for other types."""
    if isinstance(q, int):
        return q, 1
    if isinstance(q, Fraction):
        return q.numerator, q.denominator
    return None


_new = object.__new__


def _radical(num, den, rad):
    """Radical from a reduced pair and a squarefree radicand."""
    x = _new(Radical)
    x.num = num
    x.den = den
    x.rad = rad
    return x


class Radical:
    """(num/den) * sqrt(rad) with rad squarefree; zero is (0, 1, 1)."""

    __slots__ = ("num", "den", "rad")

    def __init__(self, coeff, rad):
        c, q = _pair(coeff), _pair(rad)
        if c is None or q is None:
            raise TypeError("Radical takes ints and Fractions, not %r, %r" % (coeff, rad))
        if q[0] < 0:
            raise ValueError("negative radicand %s" % rad)
        # c*sqrt(qn/qd) = (c/qd)*sqrt(qn*qd)
        self.num, self.den, self.rad = _canonical(c[0], c[1] * q[1], q[0] * q[1])

    @property
    def coeff(self):
        return Fraction(self.num, self.den)

    def is_zero(self):
        return self.num == 0

    def is_rational(self):
        return self.rad == 1 or not self.num

    def rational(self):
        """The value as a Fraction; raises ValueError if irrational."""
        if not self.is_rational():
            raise ValueError("%s is not rational" % self)
        return Fraction(self.num, self.den)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.num:
            return self
        if not self.num:
            return other
        if self.rad != other.rad:
            raise NotFactorable("%s + %s: radical classes %d and %d"
                                % (self, other, self.rad, other.rad))
        d = self.den
        if d == other.den:
            n = self.num + other.num
        else:
            n = self.num * other.den + other.num * d
            d *= other.den
        if not n:
            return RS_ZERO
        k = gcd(n, d)
        return _radical(n // k, d // k, self.rad)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + -other

    def __neg__(self):
        return _radical(-self.num, self.den, self.rad)

    def __mul__(self, other):
        if isinstance(other, Radical):
            # sqrt(a)*sqrt(b) = g*sqrt((a/g)(b/g)) with g = gcd(a,b);
            # for squarefree a, b the remaining radicand is squarefree,
            # so no re-factorization is needed.
            g = gcd(self.rad, other.rad)
            n, d = other.num * g, other.den
            r = (self.rad // g) * (other.rad // g)
        else:
            p = _pair(other)
            if p is None:
                return NotImplemented
            (n, d), r = p, self.rad
        n *= self.num
        if not n:
            return RS_ZERO
        d *= self.den
        k = gcd(n, d)
        return _radical(n // k, d // k, r)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        n, d, r = other.num, other.den, other.rad
        if not n:
            raise ZeroDivisionError("division by zero")
        # x / ((n/d)*sqrt(r)) = x * (d/(n*r))*sqrt(r); the product
        # reduces the pair
        return self * (_radical(d, n * r, r) if n > 0 else _radical(-d, -n * r, r))

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and (self.num == 0 or self.rad == other.rad))

    def __hash__(self):
        # a rational value hashes as the int or Fraction it equals
        return hash(Fraction(self.num, self.den) if self.is_rational()
                    else (self.num, self.den, self.rad))

    def square(self):
        """The exact rational value of this radical squared, signed.

        Returns coeff**2 * rad with the sign of coeff, so the canonical
        text form is recoverable: value = sign * sqrt(|square|).
        """
        return Fraction(self.num * abs(self.num) * self.rad, self.den * self.den)

    def decimal(self, digits):
        """Decimal evaluation to the requested significant digits.

        Derived from the exact value with guard digits, never from
        binary floats.
        """
        if digits < 1 or digits > 30:
            raise ValueError("digits must be in 1..30")
        with localcontext() as ctx:
            ctx.prec = digits + 12
            total = Decimal(self.num) / Decimal(self.den) * Decimal(self.rad).sqrt()
            with localcontext() as out:
                out.prec = digits
                total = +total
        return total

    def __str__(self):
        return _render_term(self.num, self.den, self.rad)

    def __repr__(self):
        return "Radical(%s)" % self


RS_ZERO = _radical(0, 1, 1)
RS_ONE = _radical(1, 1, 1)


def _coerce(x):
    """x as a Radical if it is one, an int or a Fraction; else None."""
    if isinstance(x, Radical):
        return x
    p = _pair(x)
    if p is None:
        return None
    return _radical(*p, 1) if p[0] else RS_ZERO


def rs(x):
    """Public coercion of a Radical, int or Fraction to Radical."""
    out = _coerce(x)
    if out is None:
        raise TypeError("cannot coerce %r to Radical" % (x,))
    return out


def _canonical(num, den, r, bound=None):
    """Reduced (num, den, rad) of (num/den)*sqrt(r), den > 0, r >= 0."""
    if r == 0 or num == 0:
        return 0, 1, 1
    sq, rad = _square_split(r, bound)
    num *= sq
    k = gcd(num, den)
    return num // k, den // k, rad


# -- canonical text form ---------------------------------------------------

def _render_term(num, den, rad):
    """Signed sqrt-of-rational form: -(2/5)*sqrt(5) -> "-sqrt(4/5)"."""
    if num == 0:
        return "sqrt(0)"
    # gcd(num, den) = 1, so num**2*rad/den**2 reduces by gcd(rad, den**2)
    qn = num * num * rad
    qd = den * den
    k = gcd(rad, qd)
    sign = "-" if num < 0 else ""
    if qd == k:
        return "%ssqrt(%d)" % (sign, qn // k)
    return "%ssqrt(%d/%d)" % (sign, qn // k, qd // k)


def render_value(x):
    """Canonical text for a Radical, int or Fraction."""
    return str(rs(x))


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            sqrt\(\s*(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?\)
          | (?P<rnum>\d+)\s*(?:/\s*(?P<rden>\d+))?
        )\s*""",
    re.VERBOSE,
)


def parse_value(s):
    """Inverse of render_value: one signed square root of a rational, or
    a bare rational.  Any other string, a sum of terms included, raises
    ValueError, and so does a radicand that trial division up to 2**16
    cannot split: the text comes from outside the program."""
    m = _TERM_RE.fullmatch(s)
    if not m:
        raise ValueError("cannot parse value %r" % (s,))
    sign = -1 if m.group("sign") == "-" else 1
    root = m.group("num") is not None
    num = int(m.group("num" if root else "rnum"))
    den = int(m.group("den" if root else "rden") or 1)
    if not den:
        raise ValueError("zero denominator in %r" % s)
    if root:
        # sign*sqrt(num/den) = (sign/den)*sqrt(num*den)
        return _radical(*_canonical(sign, den, num * den, 2 ** 16))
    return _radical(*_canonical(sign * num, den, 1))
