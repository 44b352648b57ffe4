"""Exact arithmetic in the multiquadratic field Q(sqrt(2), sqrt(3), sqrt(5), ...).

Every scalar in the coupling-coefficient pipeline is a finite sum of
rationals times square roots of distinct squarefree positive integers.
That ring is closed under addition and multiplication, so the whole
computation runs without floats.  Division is by a rational or a single
radical only: the linear algebra eliminates on the rational factor of
each matrix, modulo a prime (see ``linalg``), so nothing needs the
inverse of a sum.

Two value types:

``Radical``
    a single term (num/den)*sqrt(rad).  This is what SU(2) coupling
    coefficients and 6j symbols are.

``RadicalSum``
    ``pairs``, a dict {squarefree radicand: (num, den)} with no zero
    term.  Empty dict means zero.  This is what matrix entries and
    normalized coupling coefficients are.

Coefficients are stored as reduced pairs of plain ints: den > 0 and
gcd(num, den) = 1, a zero Radical being (0, 1, 1), and every radicand
squarefree >= 1.  The arithmetic reduces each pair with math.gcd where
it is made, so no Fraction is built per field operation and equal
values have equal stores and hash alike.  Fractions appear only at the
boundary: ``Radical.coeff``, the read-only ``RadicalSum.terms`` view
{rad: Fraction}, ``rational()``, ``square()`` and ``decimal``;
constructors and scalar operands take ints or Fractions.

The canonical text form renders a term as a signed square root of a
single rational, e.g. -(2/5)*sqrt(5) prints as ``-sqrt(4/5)``, and
sums join such terms with explicit signs.  ``parse_value`` inverts
``render_value`` exactly.
"""

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd
from types import MappingProxyType


def _square_split(n):
    """Write n = sq**2 * rad with rad squarefree; returns (sq, rad).

    Plain trial division.  The radicands met in practice are products
    of small factorial ratios, so the leftover after dividing out every
    prime up to sqrt(n) is 1 or a single prime, which is squarefree.
    """
    sq = 1
    rad = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            sq *= d ** (e // 2)
            if e % 2:
                rad *= d
        d += 1 if d == 2 else 2
    return sq, rad * n


def _pair(q):
    """Reduced (num, den) of an int or Fraction; None for other types."""
    if isinstance(q, int):
        return q, 1
    if isinstance(q, Fraction):
        return q.numerator, q.denominator
    return None


def _rational_pair(q):
    """(num, den) of any value Fraction accepts."""
    return _pair(q) or _pair(Fraction(q))


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
        # Assumes canonical input; use canonicalize() on raw data.
        self.num, self.den = _rational_pair(coeff)
        self.rad = rad

    @property
    def coeff(self):
        return Fraction(self.num, self.den)

    def is_zero(self):
        return self.num == 0

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
            return RAD_ZERO
        d *= self.den
        k = gcd(n, d)
        return _radical(n // k, d // k, r)

    __rmul__ = __mul__

    def __neg__(self):
        return _radical(-self.num, self.den, self.rad)

    def __eq__(self, other):
        if isinstance(other, Radical):
            return (self.num == other.num and self.den == other.den
                    and (self.num == 0 or self.rad == other.rad))
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den, self.rad if self.num else 1))

    def square(self):
        """The exact rational value of this radical squared, signed.

        Returns coeff**2 * rad with the sign of coeff, so the canonical
        text form is recoverable: value = sign * sqrt(|square|).
        """
        return Fraction(self.num * abs(self.num) * self.rad, self.den * self.den)

    def as_sum(self):
        if not self.num:
            return RadicalSum({})
        return RadicalSum({self.rad: (self.num, self.den)})

    def __str__(self):
        return _render_term(self.num, self.den, self.rad)

    def __repr__(self):
        return "Radical(%s)" % self


RAD_ZERO = _radical(0, 1, 1)
RAD_ONE = _radical(1, 1, 1)


def _canonical(num, den, r):
    """Canonical Radical for (num/den)*sqrt(r), den > 0, r >= 0."""
    if r < 0:
        raise ValueError("negative radicand %s" % r)
    if r == 0 or num == 0:
        return RAD_ZERO
    sq, rad = _square_split(r)
    num *= sq
    k = gcd(num, den)
    return _radical(num // k, den // k, rad)


def canonicalize(c, r):
    """Canonical Radical for c*sqrt(r), c rational, r integer >= 0.

    Pulls the square part of r into the coefficient, e.g.
    canonicalize(1, 45) = 3*sqrt(5).  See root_of_rational for the
    rational-radicand front end.
    """
    num, den = _rational_pair(c)
    return _canonical(num, den, r)


def root_of_rational(c, q):
    """Canonical Radical for c*sqrt(q) with q rational >= 0."""
    qn, qd = _rational_pair(q)
    if qn < 0:
        raise ValueError("negative radicand %s" % Fraction(qn, qd))
    # c*sqrt(qn/qd) = (c/qd)*sqrt(qn*qd)
    num, den = _rational_pair(c)
    return _canonical(num, den * qd, qn * qd)


def _add_term(out, r, n, d):
    """Add (n/d)*sqrt(r) into the pair dict out, keeping it canonical."""
    prev = out.get(r)
    if prev is not None:
        pn, pd = prev
        if pd == d:
            n += pn
        else:
            n = n * pd + pn * d
            d *= pd
        if not n:
            del out[r]
            return
    k = gcd(n, d)
    out[r] = (n // k, d // k)


class RadicalSum:
    """Finite sum of rationals times square roots of squarefree ints."""

    __slots__ = ("pairs",)

    def __init__(self, pairs):
        # pairs: dict {rad: (num, den)}, already canonical, no zero terms
        self.pairs = pairs

    # -- constructors

    @staticmethod
    def of(*radicals):
        out = {}
        for x in radicals:
            if not isinstance(x, Radical):
                x = Radical(x, 1)
            if x.num:
                _add_term(out, x.rad, x.num, x.den)
        return RadicalSum(out)

    # -- predicates and views

    @property
    def terms(self):
        """Read-only view {rad: Fraction coefficient}."""
        return MappingProxyType({r: Fraction(n, d) for r, (n, d) in self.pairs.items()})

    def is_zero(self):
        return not self.pairs

    def is_rational(self):
        return all(r == 1 for r in self.pairs)

    def rational(self):
        """The value as a Fraction; raises ValueError if irrational."""
        if not self.pairs:
            return Fraction(0)
        if len(self.pairs) == 1 and 1 in self.pairs:
            return Fraction(*self.pairs[1])
        raise ValueError("%s is not rational" % self)

    # -- ring operations

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.pairs:
            return self
        out = dict(self.pairs)
        for r, (n, d) in other.pairs.items():
            _add_term(out, r, n, d)
        return RadicalSum(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __neg__(self):
        return RadicalSum({r: (-n, d) for r, (n, d) in self.pairs.items()})

    def __mul__(self, other):
        if isinstance(other, RadicalSum):
            factors = other.pairs.items()
        elif isinstance(other, Radical):
            factors = ((other.rad, (other.num, other.den)),) if other.num else ()
        else:
            p = _pair(other)
            if p is None:
                return NotImplemented
            factors = ((1, p),) if p[0] else ()
        out = {}
        for ra, (na, da) in self.pairs.items():
            for rb, (nb, db) in factors:
                # sqrt(ra)*sqrt(rb) = g*sqrt((ra/g)(rb/g)), g = gcd(ra, rb)
                g = gcd(ra, rb)
                _add_term(out, (ra // g) * (rb // g), na * nb * g, da * db)
        return RadicalSum(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if len(other.pairs) > 1:
            raise ValueError("division by the sum of radicals %s is not supported"
                             % other)
        if not other.pairs:
            raise ZeroDivisionError("division by zero")
        # x / ((n/d)*sqrt(r)) = x * (d/(n*r))*sqrt(r); r = 1 for a
        # rational.  The product reduces the pair.
        (r, (n, d)), = other.pairs.items()
        return self * RadicalSum({r: (d, n * r) if n > 0 else (-d, -n * r)})

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(tuple(sorted(self.pairs.items())))

    # -- numeric views

    def decimal(self, digits):
        """Decimal evaluation to the requested significant digits.

        Derived from the exact value with guard digits, never from
        binary floats.
        """
        if digits < 1 or digits > 30:
            raise ValueError("digits must be in 1..30")
        with localcontext() as ctx:
            ctx.prec = digits + 12
            total = Decimal(0)
            for r, (n, d) in sorted(self.pairs.items()):
                total += Decimal(n) / Decimal(d) * Decimal(r).sqrt()
            with localcontext() as out:
                out.prec = digits
                total = +total
        return total

    def __str__(self):
        return render_value(self)

    def __repr__(self):
        return "RadicalSum(%s)" % self


RS_ZERO = RadicalSum({})
RS_ONE = RadicalSum({1: (1, 1)})


def _coerce(x):
    if isinstance(x, RadicalSum):
        return x
    if isinstance(x, Radical):
        return x.as_sum()
    p = _pair(x)
    if p is None:
        return None
    return RadicalSum({1: p} if p[0] else {})


def rs(x):
    """Public coercion to RadicalSum."""
    out = _coerce(x)
    if out is None:
        raise TypeError("cannot coerce %r to RadicalSum" % (x,))
    return out


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
    """Canonical text for a Radical or RadicalSum."""
    x = rs(x)
    if not x.pairs:
        return "sqrt(0)"
    parts = []
    for r, (n, d) in sorted(x.pairs.items()):
        t = _render_term(abs(n), d, r)
        if not parts:
            parts.append(("-" if n < 0 else "") + t)
        else:
            parts.append(("- " if n < 0 else "+ ") + t)
    return " ".join(parts)


_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-])?\s*
        (?:
            sqrt\(\s*(?P<num>\d+)\s*(?:/\s*(?P<den>\d+)\s*)?\)
          | (?P<rnum>\d+)\s*(?:/\s*(?P<rden>\d+))?
        )\s*""",
    re.VERBOSE,
)


def parse_value(s):
    """Inverse of render_value; also accepts bare rational terms."""
    pos = 0
    total = RS_ZERO
    n = len(s)
    first = True
    while pos < n:
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError("cannot parse value %r at offset %d" % (s, pos))
        sign = -1 if m.group("sign") == "-" else 1
        if not first and m.group("sign") is None:
            raise ValueError("missing sign between terms in %r" % s)
        root = m.group("num") is not None
        num = int(m.group("num" if root else "rnum"))
        den = int(m.group("den" if root else "rden") or 1)
        if not den:
            raise ValueError("zero denominator in %r" % s)
        if root:
            # sign*sqrt(num/den) = (sign/den)*sqrt(num*den)
            term = _canonical(sign, den, num * den)
        else:
            term = _canonical(sign * num, den, 1)
        total = total + term
        pos = m.end()
        first = False
    if first:
        raise ValueError("empty value string %r" % s)
    return total
