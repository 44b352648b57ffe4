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

from .errors import BranchingViolation, InternalInconsistency, OutOfRange
from .exact import RS_ZERO, root_of_rational
from .halfint import HalfInt, PairLabel, sign_pow
from .so4 import So4Irrep, so4_kronecker


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
    tl1, tl2 = _to_cartan(a, b, scheme)
    out = _from_cartan(tl1, tl2, target)
    # the inverse map must lead back: a self-check of the table
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

    An element is nonzero only when bra - ket is (+-1/2, +-1/2).  The two
    raising forms are closed-form; the lowering ones follow from the
    adjoint symmetry, so the nonzero pattern is symmetric and
    table[lam] also lists the kets that reach the bra lam.
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
                rme = _rme_up(g, ket, dy)
            else:
                # <bra||T||ket> = hat(ket)/hat(bra) (-1)^(dX+dY) <ket||T||bra>
                ratio = Fraction((ket.X.twice + 1) * (ket.Y.twice + 1),
                                 (bra.X.twice + 1) * (bra.Y.twice + 1))
                rme = sign_pow((dx + dy) // 2) * root_of_rational(1, ratio) \
                    * _rme_up(g, bra, -dy)
            if not rme.is_zero():
                row[bra] = rme
    return table


def _rme_up(g, ket, dy):
    """<(X+1/2, Y+dy/2) || T || (X,Y)> by the closed forms (doubled dy);
    dy = -1 comes only with Y >= 1/2, as the bra's Y is Y - 1/2."""
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
    if num < 0:
        raise InternalInconsistency(
            "negative radicand in rme at g=%s ket=%s dy=%d" % (g, ket, dy))
    return root_of_rational(1, Fraction(num, den))
