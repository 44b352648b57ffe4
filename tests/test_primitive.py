"""chains.primitive against the symbols it is built from, element by element.

The engine reads each bitensor component T_{mu nu} from the cached SO(4)
CG tables over weight-basis positions.  Here every element of all ten
components is rebuilt on HalfInt weights: T from so4_cg times the
reduced matrix element, the SU(2) ladders from sqrt((j -+ m)(j +- m + 1))
and the diagonals from m.
"""

import pytest

from so5racah.chains import primitive, weight_basis
from so5racah.exact import RS_ZERO, Radical, rs
from so5racah.halfint import HalfInt
from so5racah.so4 import HALFHALF, so4_cg
from so5racah.so5 import So5Irrep, generator_rmes

NAMES = ("X+", "X-", "Y+", "Y-", "X0", "Y0", "T++", "T+-", "T-+", "T--")
IRREPS = [So5Irrep(HalfInt(tr), HalfInt(ts)) for tr in range(4) for ts in range(tr + 1)]


def _expected(g, name, state, target):
    """<target | name | state> from so4_cg, the RMEs and closed forms."""
    (lam, mx, my), (lamp, mxp, myp) = state, target
    kind, signs = name[0], name[1:]
    if kind == "T":
        rme = generator_rmes(g)[lam].get(lamp)
        if rme is None:
            return RS_ZERO
        step = tuple(HalfInt(1 if c == "+" else -1) for c in signs)
        return so4_cg(lam, (mx, my), HALFHALF, step, lamp, (mxp, myp)) * rme
    if kind == "X":
        j, m, mp, fixed = lam.X, mx, mxp, my == myp
    else:
        j, m, mp, fixed = lam.Y, my, myp, mx == mxp
    if lamp != lam or not fixed:
        return RS_ZERO
    if signs == "0":
        return rs(m.as_fraction()) if mp == m else RS_ZERO
    d = 1 if signs == "+" else -1
    if mp != m + d:
        return RS_ZERO
    jf, mf = j.as_fraction(), m.as_fraction()
    return Radical(1, (jf - d * mf) * (jf + d * mf + 1))


@pytest.mark.parametrize("g", IRREPS, ids=str)
def test_primitive_matches_symbols(g):
    basis = weight_basis(g)
    for name in NAMES:
        mat = primitive(g, basis, name)
        assert all(not v.is_zero() for col in mat.values() for v in col.values())
        for j, state in enumerate(basis):
            col = mat.get(j, {})
            for i, target in enumerate(basis):
                assert col.get(i, RS_ZERO) == _expected(g, name, state, target), \
                    (name, state, target)
