from fractions import Fraction

import pytest

from so5racah.halfint import HalfInt, _tri2, hi, jrange, mrange, sign_pow, trirange, \
    twices


def triangle(j1, j2, j3):
    # the engine checks the rule on doubled ints only (_tri2)
    return _tri2(*twices(j1, j2, j3))


def test_construction_takes_doubled_value():
    assert HalfInt(3).as_fraction() == Fraction(3, 2)
    assert HalfInt(4) == 2
    assert str(HalfInt(3)) == "3/2"
    assert str(HalfInt(4)) == "2"
    assert str(HalfInt(-1)) == "-1/2"


def test_make_and_parse():
    assert hi(2).twice == 4
    assert hi(Fraction(5, 2)).twice == 5
    assert HalfInt.parse("-3/2").twice == -3
    assert HalfInt.parse("2").twice == 4
    with pytest.raises(ValueError):
        hi(Fraction(1, 3))
    with pytest.raises(TypeError):
        hi(0.5)



def test_make_returns_a_halfint_as_is():
    # labels built from HalfInts share them rather than copy each one
    h = HalfInt(3)
    assert HalfInt.make(h) is h and hi(h) is h

def test_parse_rejects_zero_denominator():
    # a ValueError, which the CLI reports as a usage error
    with pytest.raises(ValueError, match="zero denominator"):
        HalfInt.parse("1/0")


def test_arithmetic_and_ordering():
    a = hi(Fraction(3, 2))
    b = hi(1)
    assert a + b == hi(Fraction(5, 2))
    assert a - b == hi(Fraction(1, 2))
    assert -a == hi(Fraction(-3, 2))
    assert abs(hi(Fraction(-1, 2))) == hi(Fraction(1, 2))
    assert b < a
    assert a + a == 3
    assert 2 - a == hi(Fraction(1, 2))
    assert sorted([a, b, hi(0)]) == [hi(0), b, a]


def test_hash_agrees_with_fraction():
    assert hash(hi(2)) == hash(Fraction(2))
    assert {hi(1): "x"}[hi(1)] == "x"
    # half-odd values too: set and dict behaviour must not depend on
    # whether a label is held as HalfInt or Fraction
    for t in range(-41, 42):
        assert hash(HalfInt(t)) == hash(Fraction(t, 2))


@pytest.mark.parametrize("twice", [2 * (2**53 + 1), 2 * (2**53 + 1) + 1,
                                   -2 * (2**60 + 3), -(2**61) - 1])
def test_hash_agrees_above_float_precision(twice):
    # twice / 2 rounds as a float here; equal values must still hash alike
    assert hash(HalfInt(twice)) == hash(Fraction(twice, 2))
    if twice % 2 == 0:
        assert HalfInt(twice) == twice // 2
        assert hash(HalfInt(twice)) == hash(twice // 2)
        assert {twice // 2: "x"}[HalfInt(twice)] == "x"


def test_views():
    assert hi(Fraction(1, 2)).as_fraction() == Fraction(1, 2)


def test_ranges():
    assert [x.twice for x in jrange(Fraction(1, 2), Fraction(5, 2))] == [1, 3, 5]
    assert [x.twice for x in mrange(1)] == [-2, 0, 2]
    assert [x.twice for x in trirange(1, Fraction(1, 2))] == [1, 3]
    assert trirange(0, Fraction(3, 2)) == [hi(Fraction(3, 2))]


def test_triangle():
    assert triangle(1, 1, 2)
    assert not triangle(1, 1, 3)
    assert triangle(Fraction(1, 2), Fraction(1, 2), 1)
    # integer perimeter: (1/2, 1/2, 1/2) is never a triangle
    assert not triangle(Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))


def test_phase_and_dim():
    assert sign_pow(-3) == -1


def test_half_integer_fractions_are_the_same_values():
    # equality, order and arithmetic agree with the hash, which already
    # equals that of the Fraction
    assert HalfInt(2) == Fraction(1)
    assert Fraction(3, 2) == HalfInt(3)
    assert HalfInt(3) in {Fraction(3, 2)}
    assert Fraction(3, 2) in {HalfInt(3)}
    assert HalfInt(4) > Fraction(3, 2) > HalfInt(1)
    assert HalfInt(-3) < Fraction(-1)
    assert HalfInt(3) + Fraction(1, 2) == HalfInt(4)
    assert Fraction(1, 2) - HalfInt(3) == HalfInt(-2)
    assert type(Fraction(1, 2) + HalfInt(3)) is HalfInt
    # a Fraction that is not a half-integer is another value
    assert HalfInt(1) != Fraction(1, 3)
    assert Fraction(1, 3) != HalfInt(1)
    assert HalfInt(1) not in {Fraction(1, 3)}
