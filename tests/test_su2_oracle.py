"""SU(2) symbols against an independent implementation: sympy's
Racah-formula `clebsch_gordan` and `wigner_6j`.  CG coefficients are
checked for every j1, j2 <= 3, 6j symbols for every label <= 2, and the
unitary 6j for every label <= 3/2.

Every value is c*sqrt(r) with c and r rational, so its signed square
sign(v)*v**2 is rational; the two sides are compared as exact
fractions, never as floats.
"""

from fractions import Fraction
from itertools import product

import pytest

sympy = pytest.importorskip("sympy")
from sympy.physics.wigner import clebsch_gordan, wigner_6j  # noqa: E402

from so5racah.halfint import HalfInt, mrange, trirange  # noqa: E402
from so5racah.su2 import su2_cg, su2_sixj, su2_usixj  # noqa: E402


def _labels(top_twice):
    """Every j = 0, 1/2, ..., top_twice/2."""
    return [HalfInt(t) for t in range(top_twice + 1)]


def _sym(j):
    return sympy.Rational(HalfInt.make(j).twice, 2)


def _signed_square(v):
    """sign(v)*v**2 of a sympy value, as a Fraction."""
    q = sympy.sign(v) * v ** 2
    if not q.is_Rational:
        raise AssertionError("signed square %s of %s is not rational" % (q, v))
    return Fraction(int(q.p), int(q.q))


def test_cg_matches_sympy():
    checked = 0
    for j1 in _labels(6):
        for j2 in _labels(6):
            for j in trirange(j1, j2):
                for m1 in mrange(j1):
                    for m2 in mrange(j2):
                        m = m1 + m2
                        if abs(m) > j:
                            continue
                        ref = clebsch_gordan(_sym(j1), _sym(j2), _sym(j),
                                             _sym(m1), _sym(m2), _sym(m))
                        got = su2_cg(j1, m1, j2, m2, j, m)
                        assert got.square() == _signed_square(ref), \
                            (j1, m1, j2, m2, j, m)
                        checked += 1
    assert checked == 2408


def test_sixj_matches_sympy():
    labels = _labels(4)
    nonzero = 0
    for js in product(labels, repeat=6):
        try:
            ref = wigner_6j(*(_sym(j) for j in js))
        except ValueError:
            # sympy refuses a triad with a half-odd perimeter
            ref = sympy.Integer(0)
        got = su2_sixj(*js)
        assert got.square() == _signed_square(ref), js
        nonzero += not got.is_zero()
    assert nonzero == 566


def test_usixj_matches_sympy():
    # U(j1 j2 j j3; j12 j23) = (-1)**(j1+j2+j3+j)
    #   * sqrt((2 j12 + 1)(2 j23 + 1)) * {j1 j2 j12; j3 j j23};
    # the labels are not symmetric in this order, so a permuted cache
    # key would show
    nonzero = 0
    for js in product(_labels(3), repeat=6):
        j1, j2, j12, j3, j, j23 = (_sym(x) for x in js)
        try:
            six = wigner_6j(j1, j2, j12, j3, j, j23)
        except ValueError:
            six = sympy.Integer(0)
        ref = (sympy.Integer(-1) ** (j1 + j2 + j3 + j)
               * sympy.sqrt((2 * j12 + 1) * (2 * j23 + 1)) * six)
        got = su2_usixj(*js)
        assert got.square() == _signed_square(ref), js
        nonzero += not got.is_zero()
    assert nonzero == 181
