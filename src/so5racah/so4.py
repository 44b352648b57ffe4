"""SO(4) ~ SO(3) x SO(3) irreps, coupling, and recoupling.

An SO(4) irrep is a pair (X, Y) of half-integers; everything factors
into independent SU(2) operations on the X and Y chains.  Kronecker
products are multiplicity-free (a double triangle rule).

Two total orders matter and they differ:

* canonical order: lex ascending on (2X, 2Y); used everywhere a list
  of irreps or a matrix column order is built.
* weight order: lex on (2X+2Y, 2X); "highest" in the branching sense
  always means maximal in this order.
"""

from .halfint import HalfInt, PairLabel, mrange, trirange
from .su2 import _phi_t, _usixj_t, su2_cg


class So4Irrep(PairLabel):
    """Irrep label (X, Y)."""

    __slots__ = ("X", "Y")

    def __init__(self, X, Y):
        self.X = HalfInt.make(X)
        self.Y = HalfInt.make(Y)
        if self.X.twice < 0 or self.Y.twice < 0:
            raise ValueError("negative irrep label (%s,%s)" % (self.X, self.Y))

    def key(self):
        return (self.X.twice, self.Y.twice)

    def weight_key(self):
        return (self.X.twice + self.Y.twice, self.X.twice)

    @property
    def dim(self):
        return (self.X.twice + 1) * (self.Y.twice + 1)

    def weights(self):
        """All (M_X, M_Y) pairs."""
        mys = mrange(self.Y)
        return [(mx, my) for mx in mrange(self.X) for my in mys]


HALFHALF = So4Irrep(HalfInt(1), HalfInt(1))
SCALAR = So4Irrep(0, 0)


def so4_kronecker(g1, g2):
    """Kronecker series, multiplicity-free, in canonical order."""
    return [So4Irrep(x, y) for x in trirange(g1.X, g2.X) for y in trirange(g1.Y, g2.Y)]


def so4_cg(g1, w1, g2, w2, g, w):
    """Full SO(4) Clebsch-Gordan as a product of two SU(2) ones."""
    return (su2_cg(g1.X, w1[0], g2.X, w2[0], g.X, w[0])
            * su2_cg(g1.Y, w1[1], g2.Y, w2[1], g.Y, w[1]))


def so4_usixj(g1, g2, g12, g3, g, g23):
    """Unitary 6-label recoupling symbol, factorized over the chains."""
    return (_usixj_t(g1.X.twice, g2.X.twice, g12.X.twice,
                     g3.X.twice, g.X.twice, g23.X.twice)
            * _usixj_t(g1.Y.twice, g2.Y.twice, g12.Y.twice,
                       g3.Y.twice, g.Y.twice, g23.Y.twice))


def so4_phi(g1, g2, g):
    """Interchange phase of the SO(4) coupling g1 x g2 -> g."""
    return (_phi_t(g1.X.twice, g2.X.twice, g.X.twice)
            * _phi_t(g1.Y.twice, g2.Y.twice, g.Y.twice))
