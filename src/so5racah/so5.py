"""SO(5) irreps: labels, branching to SO(4), Kronecker series, generator
reduced matrix elements.

The working label is (R, S) with R >= S >= 0, each independently
integer or half-odd: the (X, Y) of the highest SO(4) irrep contained.
Conversions to the other labeling schemes found in the literature go
through the Cartan highest weight [l1, l2] = [R+S, R-S].
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .errors import BranchingViolation, OutOfRange
from .exact import RS_ZERO, Radical
from .halfint import HalfInt, PairLabel, sign_pow
from .so4 import So4Irrep


class So5Irrep(PairLabel):
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


# -- labeling schemes ------------------------------------------------------

# Each scheme is a linear map of the doubled Cartan labels (tl1, tl2), in
# quarters: row ((p, q), (r, s)) gives a = (p*tl1 + q*tl2)/4 and
# b = (r*tl1 + s*tl2)/4.  The irreps are the integers tl1 >= tl2 >= 0 with
# tl1 - tl2 even (l1 - l2 an integer), so (a, b) names an irrep exactly
# when the inverse map sends it to one: that test is every scheme's rule.
_SCHEME_MAPS = {
    "hw": ((1, 1), (1, -1)),               # (R, S) = ((l1+l2)/2, (l1-l2)/2)
    "cartan": ((2, 0), (0, 2)),            # [l1, l2]
    "dynkin": ((2, -2), (0, 4)),           # (l1-l2, 2*l2)
    "dynkin-modified": ((2, -2), (0, 2)),  # (l1-l2, l2)
    "sp4-cartan": ((2, 2), (2, -2)),       # <l1+l2, l1-l2>
    "sp4-dynkin": ((0, 4), (2, -2)),       # (2*l2, l1-l2)
}

SCHEMES = tuple(_SCHEME_MAPS)


def _to_cartan(a, b, scheme):
    """(a, b) in the given scheme -> doubled Cartan labels (2*l1, 2*l2)."""
    (p, q), (r, s) = _SCHEME_MAPS[scheme]
    a, b = Fraction(a), Fraction(b)
    det = p * s - q * r
    tl1, tl2 = 4 * (s * a - q * b) / det, 4 * (p * b - r * a) / det
    if tl1.denominator != 1 or tl2.denominator != 1 \
            or not (tl1 >= tl2 >= 0) or (tl1 - tl2) % 2:
        raise OutOfRange("(%s,%s) is not an irrep label of scheme %s"
                         % (a, b, scheme))
    return int(tl1), int(tl2)


def _from_cartan(tl1, tl2, scheme):
    (p, q), (r, s) = _SCHEME_MAPS[scheme]
    return Fraction(p * tl1 + q * tl2, 4), Fraction(r * tl1 + s * tl2, 4)


def convert_label(a, b, scheme, target):
    """Convert an irrep label between schemes; values as Fractions."""
    for name in (scheme, target):
        if name not in _SCHEME_MAPS:
            raise OutOfRange("unknown scheme %r" % name)
    return _from_cartan(*_to_cartan(a, b, scheme), target)


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

    Brauer-Klimyk formula (the Racah-Speiser algorithm): each weight of
    g2 plus the highest weight of g1 plus rho, in doubled coordinates
    (a, b) = 2([l1, l2] + rho) with rho = (3/2, 1/2), is moved into the
    dominant chamber a > b > 0 by sign flips and the swap of a and b.
    It adds (-1)^(number of moves) to the irrep there, or nothing if it
    lies on a wall (a == b or b == 0).  The product is symmetric, so the
    sum runs over the weights of the smaller factor (g2 on a tie).
    """
    if g1.dim < g2.dim:
        g1, g2 = g2, g1
    a0 = g1.R.twice + g1.S.twice + 3
    b0 = g1.R.twice - g1.S.twice + 1
    series = Counter()
    for lam in so5_branch_so4(g2):
        for mx, my in lam.weights():
            a, b = a0 + mx.twice + my.twice, b0 + mx.twice - my.twice
            moves = (a < 0) + (b < 0) + (abs(a) < abs(b))
            a, b = sorted((abs(a), abs(b)), reverse=True)
            if a != b and b:
                series[(a + b - 4) // 2, (a - b - 2) // 2] += sign_pow(moves)
    return {So5Irrep(HalfInt(tR), HalfInt(tS)): d
            for (tR, tS), d in sorted(series.items()) if d}


# -- generator reduced matrix elements -------------------------------------

def generator_rme(g, bra, ket):
    """<g bra || T || g ket> for the bitensor generator of type (1/2,1/2).

    Read from generator_rmes(g).  Raises BranchingViolation if either
    label is not in the branching of g.
    """
    table = generator_rmes(g)
    if bra not in table or ket not in table:
        raise BranchingViolation("(%s or %s) not in branching of %s" % (bra, ket, g))
    return table[ket].get(bra, RS_ZERO)


@lru_cache(maxsize=None)
def generator_rmes(g):
    """{ket: {bra: <g bra || T || g ket>}} over the nonzero elements,
    kets and bras in branch order.  Built once per irrep; callers share
    the table and must not change it.

    An element is nonzero exactly when bra - ket is (+-1/2, +-1/2), as
    _rme_up shows for two labels of branch(g).  The two raising forms
    are closed-form; the lowering ones follow from the adjoint
    symmetry, so the nonzero pattern is symmetric and table[lam] also
    lists the kets that reach the bra lam.
    """
    branch = so5_branch_so4(g)
    table = {}
    for ket in branch:
        row = table[ket] = {}
        for bra in branch:
            dx = bra.X.twice - ket.X.twice
            dy = bra.Y.twice - ket.Y.twice
            if (abs(dx), abs(dy)) != (1, 1):
                continue
            if dx == 1:
                row[bra] = _rme_up(g, ket, dy)
            else:
                # <bra||T||ket> = hat(ket)/hat(bra) (-1)^(dX+dY) <ket||T||bra>
                ratio = Fraction((ket.X.twice + 1) * (ket.Y.twice + 1),
                                 (bra.X.twice + 1) * (bra.Y.twice + 1))
                row[bra] = sign_pow((dx + dy) // 2) * Radical(1, ratio) \
                    * _rme_up(g, bra, -dy)
    return table


def _rme_up(g, ket, dy):
    """<(X+1/2, Y+dy/2) || T || (X,Y)> by the closed forms (doubled dy);
    dy = -1 comes only with Y >= 1/2, as the bra's Y is Y - 1/2.  Every
    factor is positive when the ket and the bra are in branch(g)."""
    tR, tS = g.R.twice, g.S.twice
    tX, tY = ket.X.twice, ket.Y.twice
    if dy == 1:
        num = ((tR + tS - tX - tY) * (tR + tS + tX + tY + 6)
               * (-tR + tS + tX + tY + 2) * (tR - tS + tX + tY + 4))
        den = 64 * (tX + 2) * (tY + 2)
    else:
        num = ((tR + tS - tX + tY + 2) * (tR + tS + tX - tY + 4)
               * (tR - tS - tX + tY) * (tR - tS + tX - tY + 2))
        den = 64 * (tX + 2) * tY
    return Radical(1, Fraction(num, den))
