from fractions import Fraction

import pytest

from so5racah.exact import RS_ZERO, Radical, rs
from so5racah.halfint import HalfInt, _tri2, hi, jrange
from so5racah.so4 import HALFHALF, SCALAR, So4Irrep, so4_cg, so4_kronecker, \
    so4_phi, so4_usixj
from so5racah.so5 import So5Irrep

H = Fraction(1, 2)


def test_labels():
    g = So4Irrep(H, 1)
    assert g.dim == 6
    assert str(g) == "(1/2,1)"
    assert So4Irrep.parse(" ( 1/2 , 1 ) ") == g
    assert len(g.weights()) == 6
    assert HALFHALF.dim == 4 and SCALAR.dim == 1
    with pytest.raises(ValueError):
        So4Irrep(-1, 0)
    with pytest.raises(ValueError):
        So4Irrep.parse("1/2,1")


@pytest.mark.parametrize("cls, other", [(So4Irrep, So5Irrep), (So5Irrep, So4Irrep)],
                         ids=["so4", "so5"])
def test_label_contract(cls, other):
    # So4Irrep and So5Irrep share one label base: equality, order, hash,
    # text form and parser
    forms = [cls(1, H), cls(Fraction(2, 2), H), cls(HalfInt(2), HalfInt(1))]
    assert all(g == forms[0] and hash(g) == hash(forms[0]) for g in forms)
    g = forms[0]
    assert g != other(1, H) and g != (1, H) and g != g.key()
    labels = [cls(1, 1), cls(H, 0), cls(Fraction(3, 2), H), cls(1, 0), cls(0, 0)]
    assert [x.key() for x in sorted(labels)] == sorted(x.key() for x in labels)
    assert str(g) == "(1,1/2)"
    assert repr(g) == "%s(1, 1/2)" % cls.__name__
    for x in labels:
        assert type(cls.parse(str(x))) is cls and cls.parse(str(x)) == x
    for bad in ["1/2,1", "(1/2;1)", "(a,b)", ""]:
        with pytest.raises(ValueError) as e:
            cls.parse(bad)
        assert str(e.value) == "cannot parse irrep %r" % bad


def test_orders_differ():
    a, b = So4Irrep(0, 1), So4Irrep(H, H)
    assert a < b
    assert a.weight_key() < b.weight_key()
    # canonical puts (0,2) first, weight order puts (1,0) first
    c, d = So4Irrep(0, 2), So4Irrep(1, 0)
    assert c < d
    assert d.weight_key() < c.weight_key()


def test_kronecker_dim_conservation():
    labels = [So4Irrep(x, y) for x in jrange(0, 2) for y in jrange(0, 2)]
    for g1 in labels:
        for g2 in labels:
            series = so4_kronecker(g1, g2)
            assert sorted(series) == series
            assert sum(g.dim for g in series) == g1.dim * g2.dim
            for g in series:
                assert _tri2(g1.X.twice, g2.X.twice, g.X.twice)
                assert _tri2(g1.Y.twice, g2.Y.twice, g.Y.twice)


def test_cg_factorizes():
    g1 = So4Irrep(H, H)
    g2 = So4Irrep(H, H)
    g = So4Irrep(1, 0)
    got = so4_cg(g1, (hi(H), hi(H)), g2, (hi(H), hi(-H)), g, (hi(1), hi(0)))
    # <1/2 1/2;1/2 1/2|1 1> * <1/2 1/2;1/2 -1/2|0 0>
    assert got == Radical(Fraction(1, 2), 2)


def test_cg_orthonormality_small():
    g1 = So4Irrep(H, 0)
    g2 = So4Irrep(H, H)
    series = so4_kronecker(g1, g2)
    for g in series:
        for gp in series:
            for w in g.weights():
                if abs(w[0]) > gp.X or abs(w[1]) > gp.Y:
                    continue
                acc = RS_ZERO
                for w1 in g1.weights():
                    w2 = (w[0] - w1[0], w[1] - w1[1])
                    if abs(w2[0]) > g2.X or abs(w2[1]) > g2.Y:
                        continue
                    acc = acc + rs(so4_cg(g1, w1, g2, w2, g, w)) \
                        * so4_cg(g1, w1, g2, w2, gp, w)
                assert acc == (rs(1) if g == gp else RS_ZERO)


def test_usixj_factorizes():
    hh = HALFHALF
    one = So4Irrep(1, 1)
    got = so4_usixj(hh, hh, one, hh, hh, SCALAR)
    # product of U(1/2 1/2 1/2 1/2; 1 0) = sqrt(3)/2 on each chain
    assert got == Radical(Fraction(3, 4), 1)


def test_phi():
    assert so4_phi(HALFHALF, HALFHALF, So4Irrep(1, 0)) == -1
    assert so4_phi(HALFHALF, HALFHALF, So4Irrep(1, 1)) == 1
    assert so4_phi(HALFHALF, HALFHALF, SCALAR) == 1
    with pytest.raises(ValueError):
        so4_phi(HALFHALF, SCALAR, So4Irrep(0, 0))
