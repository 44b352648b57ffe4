from fractions import Fraction

import pytest

from so5racah.exact import RS_ZERO, Radical, rs
from so5racah.halfint import hi, jrange, mrange, trirange
from so5racah.su2 import su2_cg, su2_phi, su2_sixj, su2_usixj

H = Fraction(1, 2)


def test_cg_frozen_values():
    assert su2_cg(H, H, H, -H, 0, 0) == Radical(Fraction(1, 2), 2)
    assert su2_cg(H, -H, H, H, 0, 0) == Radical(Fraction(-1, 2), 2)
    assert su2_cg(H, H, H, -H, 1, 0) == Radical(Fraction(1, 2), 2)
    assert su2_cg(H, H, H, H, 1, 1) == Radical(Fraction(1), 1)
    assert su2_cg(1, 0, 1, 0, 2, 0) == Radical(Fraction(1, 3), 6)
    assert su2_cg(1, 0, 1, 0, 1, 0) == RS_ZERO
    assert su2_cg(1, 1, 1, -1, 0, 0) == Radical(Fraction(1, 3), 3)
    assert su2_cg(1, 1, H, -H, H, H) == Radical(Fraction(1, 3), 6)
    # stretched weight, m1+m2 != m, and non-triangular all vanish
    assert su2_cg(1, 1, 1, 1, 2, 1) == RS_ZERO
    assert su2_cg(2, 0, H, H, 1, H) == RS_ZERO


def test_cg_highest_weight_sign_convention():
    # <j1 j1; j2 (j-j1) | j j> > 0 for every allowed triple
    for j1 in jrange(0, 2):
        for j2 in jrange(0, 2):
            for j in trirange(j1, j2):
                if abs(j - j1) <= j2:
                    c = su2_cg(j1, j1, j2, j - j1, j, j)
                    assert c.coeff > 0


def test_cg_orthonormality():
    js = jrange(0, 3)
    for j1 in js:
        for j2 in js:
            if (j1 + j2).twice > 6:
                continue
            for j in trirange(j1, j2):
                for jp in trirange(j1, j2):
                    for m in mrange(j):
                        if jp < abs(m):
                            continue
                        acc = RS_ZERO
                        for m1 in mrange(j1):
                            m2 = m - m1
                            if abs(m2) > j2:
                                continue
                            acc = acc + rs(su2_cg(j1, m1, j2, m2, j, m)) \
                                * su2_cg(j1, m1, j2, m2, jp, m)
                        want = rs(1) if (j == jp) else RS_ZERO
                        assert acc == want


def test_cg_interchange_symmetry():
    for j1 in jrange(0, 2):
        for j2 in jrange(0, 2):
            for j in trirange(j1, j2):
                for m1 in mrange(j1):
                    for m2 in mrange(j2):
                        m = m1 + m2
                        if abs(m) > j:
                            continue
                        a = su2_cg(j1, m1, j2, m2, j, m)
                        b = su2_cg(j2, m2, j1, m1, j, m)
                        assert a == b * su2_phi(j1, j2, j)


def test_sixj_frozen_values():
    assert su2_sixj(1, 1, 1, 1, 1, 1) == Radical(Fraction(1, 6), 1)
    assert su2_sixj(H, H, 1, H, H, 1) == Radical(Fraction(1, 6), 1)
    assert su2_sixj(H, H, 1, H, H, 0) == Radical(Fraction(1, 2), 1)
    assert su2_sixj(1, 1, 2, 1, 1, 2) == Radical(Fraction(1, 30), 1)
    assert su2_sixj(1, 2, 1, 1, 2, 1) == Radical(Fraction(1, 30), 1)
    assert su2_sixj(1, 1, 1, 1, 1, 3) == RS_ZERO


def test_sixj_column_symmetry():
    for js in [(H, H, 1, H, H, 1), (1, H, H, H, 1, H), (1, 1, 2, 1, 1, 1),
               (Fraction(3, 2), H, 1, H, Fraction(3, 2), 1)]:
        j1, j2, j3, j4, j5, j6 = js
        assert su2_sixj(j1, j2, j3, j4, j5, j6) \
            == su2_sixj(j2, j1, j3, j5, j4, j6)
        assert su2_sixj(j1, j2, j3, j4, j5, j6) \
            == su2_sixj(j1, j5, j6, j4, j2, j3)


def test_usixj_frozen_value():
    # U = (-1)^(j1+j2+j3+j) * hat(j12) * hat(j23) * {6j}
    #   = (+1) * 3 * (1/6) here
    assert su2_usixj(H, H, 1, H, H, 1) == Radical(Fraction(1, 2), 1)
    assert su2_usixj(H, H, 0, H, H, 1) == Radical(Fraction(1, 2), 3)


def _usixj_by_recoupling(j1, j2, j12, j3, j, j23):
    """Quadruple CG sum at the highest weight m = j."""
    m = j
    total = RS_ZERO
    for m1 in mrange(j1):
        for m2 in mrange(j2):
            m12 = m1 + m2
            if abs(m12) > j12:
                continue
            m3 = m - m12
            if abs(m3) > j3:
                continue
            m23 = m2 + m3
            if abs(m23) > j23:
                continue
            total = total + rs(su2_cg(j1, m1, j2, m2, j12, m12)) \
                * su2_cg(j12, m12, j3, m3, j, m) \
                * su2_cg(j2, m2, j3, m3, j23, m23) \
                * su2_cg(j1, m1, j23, m23, j, m)
    return total


def test_usixj_matches_recoupling_sum():
    js = jrange(0, 2)
    checked = 0
    for j1 in js:
        for j2 in js:
            for j3 in js:
                for j12 in trirange(j1, j2):
                    for j23 in trirange(j2, j3):
                        for j in trirange(j12, j3):
                            if j not in trirange(j1, j23):
                                continue
                            got = su2_usixj(j1, j2, j12, j3, j, j23)
                            assert rs(got) == _usixj_by_recoupling(
                                j1, j2, j12, j3, j, j23)
                            checked += 1
    assert checked > 200


def test_usixj_orthogonality():
    j1, j2, j3, j = hi(1), hi(H), hi(1), hi(Fraction(3, 2))
    for j12 in trirange(j1, j2):
        for j12p in trirange(j1, j2):
            acc = RS_ZERO
            for j23 in trirange(j2, j3):
                acc = acc + rs(su2_usixj(j1, j2, j12, j3, j, j23)) \
                    * su2_usixj(j1, j2, j12p, j3, j, j23)
            want = rs(1) if j12 == j12p else RS_ZERO
            assert acc == want


def test_phi():
    assert su2_phi(H, H, 1) == 1
    assert su2_phi(H, H, 0) == -1
    assert su2_phi(1, 1, 1) == -1
    with pytest.raises(ValueError):
        su2_phi(H, 0, 0)
