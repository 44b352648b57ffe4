"""Series identities as exact oracles that the solve and the transforms
never use.

Wigner-Eckart.  The SO(5) generators span the adjoint (1,0), whose SO(4)
content is (1,0) (the X generators), (0,1) (the Y generators) and
(1/2,1/2) (the bitensor T).  Their matrix elements in g are therefore a
combination sum_rho a_rho of the vectors of the block g x (1,0) -> g.
Over the columns (lam1, kappa, lam) of that block let w hold the
SO(4)-reduced elements of the generators:

    generator_rmes(g)[lam1][lam]   where kappa = (1/2,1/2),
    sqrt(X(X+1))                   where kappa = (1,0) and lam = lam1,
    sqrt(Y(Y+1))                   where kappa = (0,1) and lam = lam1,
    0                              elsewhere,

the square roots being the reduced elements of the spherical X^(1) and
Y^(1).  Then a_rho = <v_rho, w> over the columns of one product label,
w = sum_rho a_rho v_rho on every column, and the squared norm of w over
one product label, sum_rho a_rho^2 by the bra sums, is C2(g)/2 with
C2 = l1(l1+3) + l2(l2+1), [l1, l2] = [R+S, R-S].

The same a_rho contract the chain tables of g x (1,0) -> g into the
reduced elements of the subalgebra generators; see
test_physical_wigner_eckart for the two constants.

Completeness.  Over the whole Kronecker series of g1 x g2, the rows of a
chain table with one product label less its multiplicity index,
(M_S, T) or (L), form a square orthogonal matrix, rows (g, label, rho)
against columns (label1, label2).  A sign error confined to one block
of multiplicity 1 keeps its bra sums and shows here.
"""

from fractions import Fraction
from functools import lru_cache

import pytest

from so5racah.angmom import chain3_transform
from so5racah.exact import RS_ZERO, Radical
from so5racah.halfint import HalfInt
from so5racah.isospin import chain2_transform
from so5racah.linalg import off_identity, vec_dot
from so5racah.racah import solve_isoscalars
from so5racah.so4 import So4Irrep
from so5racah.so5 import So5Irrep, generator_rmes, so5_kronecker

ADJOINT = So5Irrep(1, 0)
X_GEN, T_GEN = So4Irrep(1, 0), So4Irrep(HalfInt(1), HalfInt(1))


def _irreps(tr_lo, tr_hi):
    """Every So5Irrep with tr_lo <= 2R <= tr_hi."""
    return [So5Irrep(HalfInt(tr), HalfInt(ts))
            for tr in range(tr_lo, tr_hi + 1) for ts in range(tr + 1)]


def _casimir(g):
    l1 = (g.R + g.S).as_fraction()
    l2 = (g.R - g.S).as_fraction()
    return l1 * (l1 + 3) + l2 * (l2 + 1)


def _generator_vector(g, columns):
    """w over the columns (lam1, kappa, lam) of g x (1,0) -> g."""
    rmes = generator_rmes(g)
    w = []
    for lam1, kappa, lam in columns:
        if kappa == T_GEN:
            w.append(rmes[lam1].get(lam, RS_ZERO))
        elif lam != lam1:
            w.append(RS_ZERO)
        else:
            j = lam.X if kappa == X_GEN else lam.Y
            w.append(Radical(1, j.as_fraction() * (j.as_fraction() + 1)))
    return w


@lru_cache(maxsize=None)
def _adjoint_coupling(g):
    """The block of g x (1,0) -> g and its a_rho, read off the columns of
    the first product label."""
    blk = solve_isoscalars(g, ADJOINT, g)
    w = _generator_vector(g, blk.columns)
    idxs = [i for i, col in enumerate(blk.columns) if col[2] == blk.columns[0][2]]
    return blk, w, [vec_dot(v, w, idxs) for v in blk.vectors]


def _contract(a, values):
    """sum_rho a_rho * values[rho]."""
    total = RS_ZERO
    for a_rho, value in zip(a, values):
        total = total + a_rho * value
    return total


def _check_canonical(g):
    blk, w, a = _adjoint_coupling(g)
    for i, col in enumerate(blk.columns):
        assert _contract(a, [v[i] for v in blk.vectors]) == w[i], (g, col)
    assert _contract(a, a).rational() == _casimir(g) / 2, g


@pytest.mark.parametrize("g", _irreps(1, 4), ids=str)
def test_canonical_wigner_eckart(g):
    _check_canonical(g)


@pytest.mark.slow
@pytest.mark.parametrize("g", _irreps(5, 8), ids=str)
def test_canonical_wigner_eckart_to_r4(g):
    _check_canonical(g)


@pytest.mark.parametrize("g", _irreps(1, 4), ids=str)
def test_physical_wigner_eckart(g):
    """Each chain table of g x (1,0) -> g, contracted with a_rho on the
    adjoint's multiplet of the subalgebra generators, is diagonal in
    (label1, label) with a reduced element proportional to sqrt(j(j+1)).

    Isospin: T_- = 2 T_{-+}, and primitive(g, "T+-") is the transpose of
    primitive(g, "T-+"), so the spherical T^(1)_{+1} = -T_+/sqrt(2) is
    -sqrt(2) T_{+-}.  The adjoint's multiplet (M_S, k, T) = (0, 1, 1)
    starts at M_T = 1 with coefficient +1 on the one state there, the
    (1/2,1/2) state at (M_X, M_Y) = (1/2, -1/2), which is T_{+-} =
    -T^(1)_{+1}/sqrt(2).  Lowering keeps the ratio, so the multiplet is
    -T^(1)/sqrt(2), with reduced element -sqrt(1/2) sqrt(T(T+1)).

    Angular momentum: L_- = 2 X_- + 2 sqrt(3) T_{+-} = sqrt(2) L^(1)_{-1},
    so L^(1)_{+1} = -sqrt(2) X_+ - sqrt(6) T_{-+}.  In the adjoint, the
    (1,0) state at M_X = 1 is X^(1)_{+1} = -X_+/sqrt(2) and the
    (1/2,1/2) state at (-1/2, 1/2) is T_{-+}, so L^(1)_{+1} is
    2 X^(1)_{+1} - sqrt(6) T_{-+}, of norm sqrt(10).  At M_L = 1 the
    laddering completes the L = 3 state with T_{-+}, the first state of
    the level in basis order, whose coefficient stays positive; the
    multiplet (alpha, L) = (1, 1) is thus -L^(1)/sqrt(10), with reduced
    element -sqrt(1/10) sqrt(L(L+1)).
    """
    blk, _, a = _adjoint_coupling(g)
    half, tenth = Fraction(1, 2), Fraction(1, 10)
    n = 0
    for r in chain2_transform(blk):
        if (r.ms2, r.k2, r.t2) == (0, 1, 1):
            n += 1
            t = r.t.as_fraction()
            want = (Radical(-1, half * t * (t + 1))
                    if (r.ms1, r.k1, r.t1) == (r.ms, r.k, r.t) else RS_ZERO)
            assert _contract(a, r.values) == want, r
    for r in chain3_transform(blk):
        if (r.a2, r.l2) == (1, 1):
            n += 1
            l = r.l.as_fraction()
            want = (Radical(-1, tenth * l * (l + 1))
                    if (r.a1, r.l1) == (r.a, r.l) else RS_ZERO)
            assert _contract(a, r.values) == want, r
    assert n


def _series_groups(g1, g2):
    """{(chain, product label less k): {(g, label, rho): {(label1, label2):
    value}}} over the Kronecker series of g1 x g2."""
    groups = {}
    for g in so5_kronecker(g1, g2):
        blk = solve_isoscalars(g1, g2, g)
        for r in chain2_transform(blk):
            group = groups.setdefault(("isospin", r.ms, r.t), {})
            for rho, value in enumerate(r.values):
                group.setdefault((g, r.k, rho), {})[
                    r.ms1, r.k1, r.t1, r.ms2, r.k2, r.t2] = value
        for r in chain3_transform(blk):
            group = groups.setdefault(("angmom", r.l), {})
            for rho, value in enumerate(r.values):
                group.setdefault((g, r.a, rho), {})[r.a1, r.l1, r.a2, r.l2] = value
    return groups


def _complete_groups(tr_max):
    """Check every group of every g1 x g2 with 2R1, 2R2 <= tr_max and
    return how many there were."""
    n = 0
    for g1 in _irreps(0, tr_max):
        for g2 in _irreps(0, tr_max):
            for key, rows in _series_groups(g1, g2).items():
                cols = sorted({c for row in rows.values() for c in row})
                assert len(rows) == len(cols), (g1, g2, key)
                assert off_identity([[row.get(c, RS_ZERO) for c in cols]
                                     for row in rows.values()]) == [], (g1, g2, key)
                n += 1
    return n


def test_chain_tables_are_complete_over_the_series():
    assert _complete_groups(2) == 548


@pytest.mark.slow
def test_chain_tables_are_complete_to_r3_2():
    assert _complete_groups(3) == 2748
