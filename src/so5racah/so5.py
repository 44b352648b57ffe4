"""SO(5) irreps: labels, branching to SO(4), Kronecker series, generator
reduced matrix elements.

The working label is (R, S) with R >= S >= 0, each independently
integer or half-odd: the (X, Y) of the highest SO(4) irrep contained.
Conversions to the other labeling schemes found in the literature go
through the Cartan highest weight [l1, l2] = [R+S, R-S].
"""

import re
from collections import Counter
from fractions import Fraction
from functools import lru_cache, total_ordering

from .errors import BranchingViolation, InternalInconsistency, OutOfRange
from .exact import RAD_ZERO, root_of_rational
from .halfint import HalfInt, sign_pow
from .so4 import HALFHALF, So4Irrep, so4_kronecker


@total_ordering
class So5Irrep:
    """Irrep label (R, S), R >= S >= 0."""

    __slots__ = ("R", "S")

    def __init__(self, R, S):
        self.R = HalfInt.make(R)
        self.S = HalfInt.make(S)
        if not (self.R.twice >= self.S.twice >= 0):
            raise OutOfRange("need R >= S >= 0, got (%s,%s)" % (self.R, self.S))

    def key(self):
        return (self.R.twice, self.S.twice)

    @property
    def dim(self):
        """Weyl dimension formula in terms of [l1, l2]."""
        tl1 = self.R.twice + self.S.twice
        tl2 = self.R.twice - self.S.twice
        num = (tl1 + 3) * (tl2 + 1) * ((tl1 + tl2) // 2 + 2) * ((tl1 - tl2) // 2 + 1)
        assert num % 6 == 0
        return num // 6

    def __eq__(self, other):
        return isinstance(other, So5Irrep) and self.key() == other.key()

    def __lt__(self, other):
        return self.key() < other.key()

    def __hash__(self):
        return hash(self.key())

    def __str__(self):
        return "(%s,%s)" % (self.R, self.S)

    def __repr__(self):
        return "So5Irrep(%s, %s)" % (self.R, self.S)

    @staticmethod
    def parse(s):
        m = re.fullmatch(r"\s*\(\s*([0-9/+-]+)\s*,\s*([0-9/+-]+)\s*\)\s*", s)
        if not m:
            raise ValueError("cannot parse irrep %r" % s)
        return So5Irrep(HalfInt.parse(m.group(1)), HalfInt.parse(m.group(2)))


# -- labeling schemes ------------------------------------------------------

SCHEMES = ("hw", "cartan", "dynkin", "dynkin-modified", "sp4-cartan", "sp4-dynkin")


def _to_cartan(a, b, scheme):
    """(a, b) in the given scheme -> doubled Cartan labels (2*l1, 2*l2)."""
    a = Fraction(a)
    b = Fraction(b)

    def ints(*vals):
        if any(v.denominator != 1 for v in vals):
            raise OutOfRange("labels (%s,%s) must be integers for scheme %s"
                             % (a, b, scheme))

    def halves(*vals):
        if any((2 * v).denominator != 1 for v in vals):
            raise OutOfRange("labels (%s,%s) must be half-integers" % (a, b))

    if scheme == "cartan":
        halves(a, b)
        tl1, tl2 = int(2 * a), int(2 * b)
        if not (tl1 >= tl2 >= 0) or (tl1 - tl2) % 2:
            raise OutOfRange("bad cartan labels [%s,%s]" % (a, b))
    elif scheme == "hw":
        halves(a, b)
        if not (2 * a >= 2 * b >= 0):
            raise OutOfRange("bad hw labels (%s,%s)" % (a, b))
        tl1, tl2 = int(2 * (a + b)), int(2 * (a - b))
    elif scheme == "dynkin":
        ints(a, b)
        if a < 0 or b < 0:
            raise OutOfRange("bad dynkin labels (%s,%s)" % (a, b))
        tl2 = int(b)          # a2 = 2*l2
        tl1 = 2 * int(a) + tl2  # a1 = l1 - l2
    elif scheme == "dynkin-modified":
        halves(b)
        ints(a)
        if a < 0 or b < 0:
            raise OutOfRange("bad modified labels (%s,%s)" % (a, b))
        tl2 = int(2 * b)      # f = l2
        tl1 = 2 * int(a) + tl2  # v = l1 - l2
    elif scheme == "sp4-cartan":
        ints(a, b)
        if not (a >= b >= 0):
            raise OutOfRange("bad sp4-cartan labels <%s,%s>" % (a, b))
        # l1' = l1 + l2 = 2R and l2' = l1 - l2 = 2S, so any integer
        # pair with a >= b >= 0 is an irrep (spinor irreps of SO(5)
        # carry mixed-parity labels here)
        tl1 = int(a + b)
        tl2 = int(a - b)
    elif scheme == "sp4-dynkin":
        ints(a, b)
        if a < 0 or b < 0:
            raise OutOfRange("bad sp4-dynkin labels (%s,%s)" % (a, b))
        tl2 = int(a)          # a1' = 2*l2
        tl1 = 2 * int(b) + tl2  # a2' = l1 - l2
    else:
        raise OutOfRange("unknown scheme %r" % scheme)
    if not (tl1 >= tl2 >= 0):
        raise OutOfRange("labels (%s,%s) leave the dominant chamber" % (a, b))
    return tl1, tl2


def _from_cartan(tl1, tl2, scheme):
    if scheme == "cartan":
        return Fraction(tl1, 2), Fraction(tl2, 2)
    if scheme == "hw":
        return Fraction(tl1 + tl2, 4), Fraction(tl1 - tl2, 4)
    if scheme == "dynkin":
        return Fraction(tl1 - tl2, 2), Fraction(tl2)
    if scheme == "dynkin-modified":
        return Fraction(tl1 - tl2, 2), Fraction(tl2, 2)
    if scheme == "sp4-cartan":
        return Fraction(tl1 + tl2, 2), Fraction(tl1 - tl2, 2)
    if scheme == "sp4-dynkin":
        return Fraction(tl2), Fraction(tl1 - tl2, 2)
    raise OutOfRange("unknown scheme %r" % scheme)


def convert_label(a, b, scheme, target):
    """Convert an irrep label between schemes; values as Fractions."""
    tl1, tl2 = _to_cartan(a, b, scheme)
    out = _from_cartan(tl1, tl2, target)
    # every scheme must represent the result with its own integrality rules
    chk1, chk2 = _to_cartan(out[0], out[1], target)
    if (chk1, chk2) != (tl1, tl2):
        raise InternalInconsistency("round trip failed for %s" % ((a, b, scheme),))
    return out


# -- branching and Kronecker series ----------------------------------------

@lru_cache(maxsize=None)
def _branch_t(tR, tS):
    out = []
    for n in range(0, tR - tS + 1):
        for m in range(0, tS + 1):
            out.append(So4Irrep(HalfInt(tR - n - m), HalfInt(tS + n - m)))
    out.sort()
    return tuple(out)


def so5_branch_so4(g):
    """SO(4) irreps contained in g, canonical order (multiplicity-free)."""
    return list(_branch_t(g.R.twice, g.S.twice))


def so5_kronecker(g1, g2):
    """Kronecker series of g1 x g2 as {So5Irrep: multiplicity}.

    Reduced-weight peeling: aggregate the SO(4) content of the pairwise
    products of the branchings, then repeatedly strip the branching of
    the highest remaining label (in weight order).  The highest label
    always has X >= Y and is the (R, S) of a series member.
    """
    bag = Counter()
    for a in so5_branch_so4(g1):
        for b in so5_branch_so4(g2):
            for c in so4_kronecker(a, b):
                bag[c] += 1
    series = {}
    first = True
    while bag:
        top = max(bag, key=So4Irrep.weight_key)
        mult = bag[top]
        if top.X.twice < top.Y.twice:
            raise InternalInconsistency("peeled X < Y at %s" % top)
        g = So5Irrep(top.X, top.Y)
        if first:
            if g.key() != (g1.R.twice + g2.R.twice, g1.S.twice + g2.S.twice):
                raise InternalInconsistency("first peel is not (R1+R2, S1+S2)")
            first = False
        for c in so5_branch_so4(g):
            have = bag.get(c, 0)
            if have < mult:
                raise InternalInconsistency(
                    "peeling %s: content %s short (%d < %d)" % (g, c, have, mult))
            if have == mult:
                del bag[c]
            else:
                bag[c] = have - mult
        series[g] = series.get(g, 0) + mult
    return dict(sorted(series.items()))


# -- generator reduced matrix elements -------------------------------------

def generator_rme(g, bra, ket):
    """<g bra || T || g ket> for the bitensor generator of type (1/2,1/2).

    Nonzero only when bra - ket is (+-1/2, +-1/2).  The two raising
    forms are closed-form; the lowering ones follow from the adjoint
    symmetry.  Raises BranchingViolation if either label is not in the
    branching of g.
    """
    branch = set(so5_branch_so4(g))
    if bra not in branch or ket not in branch:
        raise BranchingViolation("(%s or %s) not in branching of %s" % (bra, ket, g))
    dx = bra.X.twice - ket.X.twice
    dy = bra.Y.twice - ket.Y.twice
    if (abs(dx), abs(dy)) != (1, 1):
        return RAD_ZERO
    if dx == 1:
        return _rme_up(g, ket, dy)
    # adjoint: <bra||T||ket> = hat(ket)/hat(bra) * (-1)^(dX+dY) <ket||T||bra>
    fwd = _rme_up(g, bra, -dy)
    if fwd.is_zero():
        return RAD_ZERO
    ratio = Fraction((ket.X.twice + 1) * (ket.Y.twice + 1),
                     (bra.X.twice + 1) * (bra.Y.twice + 1))
    sign = sign_pow((dx + dy) // 2)
    return sign * root_of_rational(1, ratio) * fwd


def _rme_up(g, ket, dy):
    """<(X+1/2, Y+dy/2) || T || (X,Y)> by the closed forms (doubled dy)."""
    tR, tS = g.R.twice, g.S.twice
    tX, tY = ket.X.twice, ket.Y.twice
    if dy == 1:
        num = ((tR + tS - tX - tY) * (tR + tS + tX + tY + 6)
               * (-tR + tS + tX + tY + 2) * (tR - tS + tX + tY + 4))
        den = 64 * (tX + 2) * (tY + 2)
    else:
        if tY == 0:
            return RAD_ZERO
        num = ((tR + tS - tX + tY + 2) * (tR + tS + tX - tY + 4)
               * (tR - tS - tX + tY) * (tR - tS + tX - tY + 2))
        den = 64 * (tX + 2) * tY
    if num < 0:
        raise InternalInconsistency(
            "negative radicand in rme at g=%s ket=%s dy=%d" % (g, ket, dy))
    return root_of_rational(1, Fraction(num, den))
