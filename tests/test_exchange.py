"""Exchange symmetry: the coupling g2 x g1 -> g against g1 x g2 -> g.

Swapping the two factors of a coupled state multiplies each SO(4)
reduced coefficient by (-1)^(X1+X2-X+Y1+Y2-Y) and changes the
multiplicity frame by an orthogonal D x D matrix U:

    B_rho(lam2, lam1, lam) = sum_sigma U[rho][sigma]
                             (-1)^(X1+X2-X+Y1+Y2-Y) A_sigma(lam1, lam2, lam)

with A the block of g1 x g2 -> g and B that of g2 x g1 -> g.  U is read
off each product label lam, by the bra-sum orthonormality of A, and must
be the same for all of them; it is +-1 when D = 1.  The chain tables of
the two couplings obey the same relation with the same U and the phase
(-1)^(T1+T2-T) (isospin) or (-1)^(L1+L2-L) (angular momentum).

The two couplings are separate solves and separate transforms, so a
phase or frame error in either shows.  The phase of the 2-3 symmetry
is not derived yet and is not checked here.
"""

import pytest

from so5racah.angmom import chain3_transform
from so5racah.exact import RS_ZERO
from so5racah.halfint import HalfInt, sign_pow
from so5racah.isospin import chain2_transform
from so5racah.linalg import off_identity
from so5racah.racah import solve_isoscalars
from so5racah.so5 import So5Irrep, so5_kronecker


def _couplings(tr_max):
    """(g1, g2, g) for every g1 <= g2 with 2R1, 2R2 <= tr_max."""
    labels = [So5Irrep(HalfInt(tr), HalfInt(ts))
              for tr in range(tr_max + 1) for ts in range(tr + 1)]
    return [(g1, g2, g) for g1 in labels for g2 in labels if g1 <= g2
            for g in so5_kronecker(g1, g2)]


def _phase(*twice):
    """(-1)^(j1 + j2 - j) for each (2 j1, 2 j2, 2 j) triple given."""
    return sign_pow(sum(t1 + t2 - t for t1, t2, t in twice) // 2)


def _frame(a, b):
    """U of the relation above, checked to be one orthogonal matrix for
    every product label."""
    assert sorted((l2, l1, lam) for l1, l2, lam in a.columns) == sorted(b.columns)
    index = {col: i for i, col in enumerate(a.columns)}
    frames = {}
    for j, (lam2, lam1, lam) in enumerate(b.columns):
        i = index[lam1, lam2, lam]
        p = _phase((lam1.X.twice, lam2.X.twice, lam.X.twice),
                   (lam1.Y.twice, lam2.Y.twice, lam.Y.twice))
        u = frames.setdefault(lam, [[RS_ZERO] * a.D for _ in range(b.D)])
        for rho, vb in enumerate(b.vectors):
            for sigma, va in enumerate(a.vectors):
                u[rho][sigma] = u[rho][sigma] + p * vb[j] * va[i]
    first, *rest = frames.values()
    assert all(u == first for u in rest)
    assert off_identity(first) == []
    if a.D == 1:
        assert first[0][0] in (1, -1)
    return first


def _check_tables(transform, u, a, b):
    """The table of b is U times the swapped, phased table of a."""
    rows_a = {tuple(r[:-1]): r.values for r in transform(a)}
    rows_b = transform(b)
    assert len(rows_b) == len(rows_a)
    n = (len(rows_b[0]) - 1) // 3
    for r in rows_b:
        lab2, lab1, lab = r[:n], r[n:2 * n], r[2 * n:3 * n]
        values_a = rows_a[(*lab1, *lab2, *lab)]
        p = _phase((lab1[-1].twice, lab2[-1].twice, lab[-1].twice))
        for rho, value in enumerate(r.values):
            want = RS_ZERO
            for sigma, va in enumerate(values_a):
                want = want + p * u[rho][sigma] * va
            assert value == want, (a.g1, a.g2, a.g, r)


def _check_exchange(g1, g2, g):
    a = solve_isoscalars(g1, g2, g)
    b = solve_isoscalars(g2, g1, g)
    assert a.D == b.D
    u = _frame(a, b)
    for transform in (chain2_transform, chain3_transform):
        _check_tables(transform, u, a, b)
    return a.D


def test_exchange_symmetry_up_to_r1():
    ds = [_check_exchange(*c) for c in _couplings(2)]
    assert (len(ds), sum(d > 1 for d in ds)) == (68, 3)


@pytest.mark.slow
def test_exchange_symmetry_up_to_r3_2():
    ds = [_check_exchange(*c) for c in _couplings(3)]
    assert (len(ds), sum(d > 1 for d in ds)) == (288, 37)
