"""Half-integer quantum numbers stored as doubled ints.

Angular momentum labels are integers or half-odd integers.  Keeping
2j as a plain int (the usual "jdouble" trick in shell-model codes)
makes all label arithmetic exact and hashable without dragging
Fraction objects through the hot loops.
"""

import re
from fractions import Fraction
from functools import total_ordering


_FLOAT_EXACT = 2 ** 53


def _twice(x):
    """2x as an int for a HalfInt, a non-bool int or a Fraction with
    denominator 1 or 2; None for anything else."""
    if isinstance(x, HalfInt):
        return x.twice
    if isinstance(x, int) and not isinstance(x, bool):
        return 2 * x
    if isinstance(x, Fraction) and x.denominator <= 2:
        return x.numerator * (2 // x.denominator)
    return None


@total_ordering
class HalfInt:
    """A value j with 2j integer, stored as ``twice = 2j``."""

    __slots__ = ("twice",)

    def __init__(self, twice):
        if isinstance(twice, bool) or not isinstance(twice, int):
            raise TypeError("twice must be an int, got %r" % (twice,))
        self.twice = twice

    # -- construction helpers

    @staticmethod
    def make(x):
        """Coerce an int, Fraction, or HalfInt (returned as is) to a HalfInt."""
        if isinstance(x, HalfInt):
            return x
        t = _twice(x)
        if t is not None:
            return HalfInt(t)
        if isinstance(x, Fraction):
            raise ValueError("%s is not a half-integer" % x)
        raise TypeError("cannot make a HalfInt from %r" % (x,))

    @staticmethod
    def parse(s):
        """Parse "2", "-1/2", "3/2"."""
        s = s.strip()
        if "/" in s:
            num, den = (int(x) for x in s.split("/", 1))
            if not den:
                raise ValueError("zero denominator in %r" % s)
            return HalfInt.make(Fraction(num, den))
        return HalfInt.make(int(s))

    # -- arithmetic (results are HalfInt; other is anything _twice takes)

    def __add__(self, other):
        t = _twice(other)
        if t is None:
            return NotImplemented
        return HalfInt(self.twice + t)

    __radd__ = __add__

    def __sub__(self, other):
        t = _twice(other)
        if t is None:
            return NotImplemented
        return HalfInt(self.twice - t)

    def __rsub__(self, other):
        t = _twice(other)
        if t is None:
            return NotImplemented
        return HalfInt(t - self.twice)

    def __neg__(self):
        return HalfInt(-self.twice)

    def __abs__(self):
        return HalfInt(abs(self.twice))

    def __eq__(self, other):
        t = _twice(other)
        if t is None:
            return NotImplemented
        return self.twice == t

    def __lt__(self, other):
        t = _twice(other)
        if t is None:
            return NotImplemented
        return self.twice < t

    def __hash__(self):
        # Python's numeric hash of an exact float equals that of the equal
        # Fraction or int; twice / 2 is exact while |twice| <= 2**53, and
        # beyond that the Fraction gives the same hash without rounding
        t = self.twice
        if -_FLOAT_EXACT <= t <= _FLOAT_EXACT:
            return hash(t / 2)
        return hash(Fraction(t, 2))

    def __bool__(self):
        return self.twice != 0

    # -- views

    def as_fraction(self):
        return Fraction(self.twice, 2)

    def __str__(self):
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return "%d/2" % self.twice

    def __repr__(self):
        return "HalfInt(%s)" % self


_PAIR = re.compile(r"\s*\(\s*([0-9/+-]+)\s*,\s*([0-9/+-]+)\s*\)\s*")


@total_ordering
class PairLabel:
    """An irrep label "(a,b)" of two half-integers.  A subclass names its
    two HalfInt fields in __slots__, validates them in __init__(a, b) and
    defines key(), which equality, order and hash follow; labels of
    different classes never compare equal."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and self.key() == other.key()

    def __lt__(self, other):
        return self.key() < other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        a, b = self.__slots__
        return "(%s,%s)" % (getattr(self, a), getattr(self, b))

    def __repr__(self):
        a, b = self.__slots__
        return "%s(%s, %s)" % (type(self).__name__, getattr(self, a), getattr(self, b))

    @classmethod
    def parse(cls, s):
        m = _PAIR.fullmatch(s)
        if not m:
            raise ValueError("cannot parse irrep %r" % s)
        return cls(HalfInt.parse(m.group(1)), HalfInt.parse(m.group(2)))


def hi(x):
    """Shorthand coercion to HalfInt."""
    return HalfInt.make(x)


def jrange(lo, hi_):
    """HalfInts from lo to hi_ inclusive in steps of 1."""
    lo = HalfInt.make(lo)
    hi_ = HalfInt.make(hi_)
    return [HalfInt(t) for t in range(lo.twice, hi_.twice + 1, 2)]


def mrange(j):
    """Weights -j, -j+1, ..., +j."""
    return jrange(-j, j)


def twices(*xs):
    """The doubled ints 2x of values coercible to HalfInt."""
    return [HalfInt.make(x).twice for x in xs]


def _tri2(ta, tb, tc):
    """Triangle check on doubled ints, including parity."""
    return (ta + tb + tc) % 2 == 0 and abs(ta - tb) <= tc <= ta + tb


def triangle(j1, j2, j3):
    """Triangle condition, including the integer perimeter requirement."""
    return _tri2(*twices(j1, j2, j3))


def trirange(j1, j2):
    """All j3 coupling with j1 and j2."""
    j1 = HalfInt.make(j1)
    j2 = HalfInt.make(j2)
    return jrange(abs(j1 - j2), j1 + j2)


def sign_pow(n):
    """(-1)**n for integer n (negative n allowed)."""
    return -1 if n % 2 else 1

