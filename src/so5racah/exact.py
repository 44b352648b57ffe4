"""Exact arithmetic in the multiquadratic field Q(sqrt(2), sqrt(3), sqrt(5), ...).

Every scalar in the coupling-coefficient pipeline is a finite sum of
rationals times square roots of distinct squarefree positive integers.
That ring is closed under addition and multiplication, so the whole
computation runs without floats.  Division is by a rational or a single
radical only: the linear algebra eliminates over the rationals (see
``linalg``), so nothing needs the inverse of a sum.

Two value types:

``Radical``
    a single term c*sqrt(r), with c rational and r squarefree >= 1.
    This is what SU(2) coupling coefficients and 6j symbols are.

``RadicalSum``
    a dict {squarefree radicand: nonzero rational coefficient}.
    Empty dict means zero.  This is what matrix entries and normalized
    coupling coefficients are.

The canonical text form renders a term as a signed square root of a
single rational, e.g. -(2/5)*sqrt(5) prints as ``-sqrt(4/5)``, and
sums join such terms with explicit signs.  ``parse_value`` inverts
``render_value`` exactly.
"""

import re
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt


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


class Radical:
    """c * sqrt(rad) with rad squarefree; zero is (0, 1)."""

    __slots__ = ("coeff", "rad")

    def __init__(self, coeff, rad):
        # Assumes canonical input; use canonicalize() on raw data.
        self.coeff = coeff
        self.rad = rad

    def is_zero(self):
        return self.coeff == 0

    def __mul__(self, other):
        if isinstance(other, Radical):
            # sqrt(a)*sqrt(b) = d*sqrt((a/d)(b/d)) with d = gcd(a,b);
            # for squarefree a, b the remaining radicand is squarefree,
            # so no re-factorization is needed.
            d = gcd(self.rad, other.rad)
            return Radical(self.coeff * other.coeff * d,
                           (self.rad // d) * (other.rad // d))
        if isinstance(other, (int, Fraction)):
            return Radical(self.coeff * other, self.rad) if other else Radical(Fraction(0), 1)
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self):
        return Radical(-self.coeff, self.rad)

    def __eq__(self, other):
        if isinstance(other, Radical):
            return self.coeff == other.coeff and (self.coeff == 0 or self.rad == other.rad)
        return NotImplemented

    def __hash__(self):
        return hash((self.coeff, self.rad if self.coeff else 1))

    def square(self):
        """The exact rational value of this radical squared, signed.

        Returns coeff**2 * rad with the sign of coeff, so the canonical
        text form is recoverable: value = sign * sqrt(|square|).
        """
        q = self.coeff * self.coeff * self.rad
        return -q if self.coeff < 0 else q

    def as_sum(self):
        if self.coeff == 0:
            return RadicalSum({})
        return RadicalSum({self.rad: self.coeff})

    def __str__(self):
        return _render_term(self.coeff, self.rad)

    def __repr__(self):
        return "Radical(%s)" % self


RAD_ZERO = Radical(Fraction(0), 1)
RAD_ONE = Radical(Fraction(1), 1)


def canonicalize(c, r):
    """Canonical Radical for c*sqrt(r), c rational, r integer >= 0.

    Pulls the square part of r into the coefficient, e.g.
    canonicalize(1, 45) = 3*sqrt(5).  See root_of_rational for the
    rational-radicand front end.
    """
    if r < 0:
        raise ValueError("negative radicand %s" % r)
    c = Fraction(c)
    if r == 0 or c == 0:
        return Radical(Fraction(0), 1)
    sq, rad = _square_split(r)
    return Radical(c * sq, rad)


def root_of_rational(c, q):
    """Canonical Radical for c*sqrt(q) with q rational >= 0."""
    q = Fraction(q)
    if q < 0:
        raise ValueError("negative radicand %s" % q)
    return canonicalize(Fraction(c) / q.denominator, q.numerator * q.denominator)


class RadicalSum:
    """Finite sum of rationals times square roots of squarefree ints."""

    __slots__ = ("terms",)

    def __init__(self, terms):
        # terms: dict {rad: Fraction}, already canonical, no zero values
        self.terms = terms

    # -- constructors

    @staticmethod
    def from_rational(q):
        q = Fraction(q)
        return RadicalSum({1: q} if q else {})

    @staticmethod
    def of(*radicals):
        out = {}
        for x in radicals:
            if isinstance(x, (int, Fraction)):
                x = Radical(Fraction(x), 1)
            if x.coeff:
                c = out.get(x.rad, 0) + x.coeff
                if c:
                    out[x.rad] = c
                else:
                    del out[x.rad]
        return RadicalSum(out)

    # -- predicates and views

    def is_zero(self):
        return not self.terms

    def is_rational(self):
        return all(r == 1 for r in self.terms)

    def rational(self):
        """The value as a Fraction; raises ValueError if irrational."""
        if not self.terms:
            return Fraction(0)
        if len(self.terms) == 1 and 1 in self.terms:
            return self.terms[1]
        raise ValueError("%s is not rational" % self)

    def _key(self):
        return tuple(sorted(self.terms.items()))

    # -- ring operations

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if not other.terms:
            return self
        out = dict(self.terms)
        for r, c in other.terms.items():
            s = out.get(r, 0) + c
            if s:
                out[r] = s
            else:
                del out[r]
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
        return RadicalSum({r: -c for r, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return RadicalSum({})
            return RadicalSum({r: c * other for r, c in self.terms.items()})
        if isinstance(other, Radical):
            other = other.as_sum()
        if not isinstance(other, RadicalSum):
            return NotImplemented
        out = {}
        for ra, ca in self.terms.items():
            for rb, cb in other.terms.items():
                # sqrt(ra)*sqrt(rb) = d*sqrt((ra/d)(rb/d)), d = gcd(ra, rb)
                d = gcd(ra, rb)
                r = (ra // d) * (rb // d)
                c = ca * cb * d
                prev = out.get(r)
                if prev is None:
                    out[r] = c
                    continue
                c += prev
                if c:
                    out[r] = c
                else:
                    del out[r]
        return RadicalSum(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if len(other.terms) > 1:
            raise ValueError("division by the sum of radicals %s is not supported"
                             % other)
        if not other.terms:
            raise ZeroDivisionError("division by zero")
        # x / (c*sqrt(r)) = x * sqrt(r) / (c*r); r = 1 for a rational
        (r, c), = other.terms.items()
        return self * RadicalSum({r: 1 / (c * r)})

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(self._key())

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
            for r, c in sorted(self.terms.items()):
                total += (Decimal(c.numerator) / Decimal(c.denominator)
                          * Decimal(r).sqrt())
            with localcontext() as out:
                out.prec = digits
                total = +total
        return total

    def __str__(self):
        return render_value(self)

    def __repr__(self):
        return "RadicalSum(%s)" % self


RS_ZERO = RadicalSum({})
RS_ONE = RadicalSum({1: Fraction(1)})


def _coerce(x):
    if isinstance(x, RadicalSum):
        return x
    if isinstance(x, Radical):
        return x.as_sum()
    if isinstance(x, (int, Fraction)):
        return RadicalSum.from_rational(x)
    return None


def rs(x):
    """Public coercion to RadicalSum."""
    out = _coerce(x)
    if out is None:
        raise TypeError("cannot coerce %r to RadicalSum" % (x,))
    return out


def exact_sign(x):
    """Sign of a RadicalSum as -1, 0, or +1, determined exactly.

    Distinct squarefree radicals are linearly independent over Q, so a
    nonempty sum is nonzero and the rational interval refinement below
    always terminates.
    """
    x = rs(x)
    if not x.terms:
        return 0
    negs = [c < 0 for c in x.terms.values()]
    if all(negs):
        return -1
    if not any(negs):
        return 1
    k = 16
    while True:
        lo = Fraction(0)
        hi = Fraction(0)
        scale = 1 << k
        for r, c in x.terms.items():
            s = isqrt(r * scale * scale)
            if c >= 0:
                lo += c * Fraction(s, scale)
                hi += c * Fraction(s + 1, scale)
            else:
                lo += c * Fraction(s + 1, scale)
                hi += c * Fraction(s, scale)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        k *= 2


# -- canonical text form ---------------------------------------------------

def _render_term(coeff, rad):
    """Signed sqrt-of-rational form: -(2/5)*sqrt(5) -> "-sqrt(4/5)"."""
    if coeff == 0:
        return "sqrt(0)"
    q = coeff * coeff * rad
    sign = "-" if coeff < 0 else ""
    if q.denominator == 1:
        return "%ssqrt(%d)" % (sign, q.numerator)
    return "%ssqrt(%d/%d)" % (sign, q.numerator, q.denominator)


def render_value(x):
    """Canonical text for a Radical or RadicalSum."""
    if isinstance(x, Radical):
        x = x.as_sum()
    x = rs(x)
    if not x.terms:
        return "sqrt(0)"
    parts = []
    for r, c in sorted(x.terms.items()):
        t = _render_term(abs(c), r)
        if not parts:
            parts.append(("-" if c < 0 else "") + t)
        else:
            parts.append(("- " if c < 0 else "+ ") + t)
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
        if m.group("num") is not None:
            num = int(m.group("num"))
            den = int(m.group("den") or 1)
            term = root_of_rational(sign, Fraction(num, den))
        else:
            num = int(m.group("rnum"))
            den = int(m.group("rden") or 1)
            term = Radical(Fraction(sign * num, den), 1)
        total = total + term
        pos = m.end()
        first = False
    if first:
        raise ValueError("empty value string %r" % s)
    return total
