"""SU(2) coupling and recoupling symbols, exact.

Clebsch-Gordan coefficients by the closed-form Racah sum in the
Condon-Shortley convention, 6j symbols by the single-sum Racah
formula, and the unitary 6j (normalized recoupling) symbol on top.
Everything returns a single Radical, which is exact and cheap.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd, lcm

from .exact import RS_ZERO, Radical, _canonical, _radical
from .halfint import _tri2, sign_pow, twices


def _fac2(t):
    """(t/2)! for an even nonnegative doubled int."""
    if t < 0 or t % 2:
        raise ValueError("factorial of %s/2" % t)
    return factorial(t // 2)


def _delta2(ta, tb, tc):
    """Squared triangle coefficient as a Fraction, on doubled ints."""
    return Fraction(
        _fac2(ta + tb - tc) * _fac2(ta - tb + tc) * _fac2(-ta + tb + tc),
        _fac2(ta + tb + tc + 2),
    )


@lru_cache(maxsize=None)
def _cg_t(tj1, tm1, tj2, tm2, tj, tm):
    if tm1 + tm2 != tm:
        return RS_ZERO
    if not _tri2(tj1, tj2, tj):
        return RS_ZERO
    if abs(tm1) > tj1 or abs(tm2) > tj2 or abs(tm) > tj:
        return RS_ZERO
    if (tj1 + tm1) % 2 or (tj2 + tm2) % 2 or (tj + tm) % 2:
        return RS_ZERO
    # the squared prefactor pn/pd and the Racah series over one common
    # denominator, all in ints
    pn = ((tj + 1) * _fac2(tj1 + tj2 - tj) * _fac2(tj1 - tj2 + tj) * _fac2(-tj1 + tj2 + tj)
          * _fac2(tj1 + tm1) * _fac2(tj1 - tm1) * _fac2(tj2 + tm2) * _fac2(tj2 - tm2)
          * _fac2(tj + tm) * _fac2(tj - tm))
    pd = _fac2(tj1 + tj2 + tj + 2)
    g = gcd(pn, pd)
    pn, pd = pn // g, pd // g
    k_lo = max(0, -(tj - tj2 + tm1) // 2, -(tj - tj1 - tm2) // 2)
    k_hi = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    dens = [
        factorial(k)
        * _fac2(tj1 + tj2 - tj - 2 * k)
        * _fac2(tj1 - tm1 - 2 * k)
        * _fac2(tj2 + tm2 - 2 * k)
        * _fac2(tj - tj2 + tm1 + 2 * k)
        * _fac2(tj - tj1 - tm2 + 2 * k)
        for k in range(k_lo, k_hi + 1)
    ]
    common = lcm(*dens)
    num = sum(sign_pow(k) * (common // den) for k, den in enumerate(dens, k_lo))
    # (num/common)*sqrt(pn/pd) = (num/(common*pd))*sqrt(pn*pd)
    return _radical(*_canonical(num, common * pd, pn * pd))


def su2_cg(j1, m1, j2, m2, j, m):
    """<j1 m1; j2 m2 | j m> in the Condon-Shortley convention."""
    return _cg_t(*twices(j1, m1, j2, m2, j, m))


def _sixj_t(tj1, tj2, tj3, tj4, tj5, tj6):
    for (ta, tb, tc) in (
        (tj1, tj2, tj3), (tj1, tj5, tj6), (tj4, tj2, tj6), (tj4, tj5, tj3),
    ):
        if not _tri2(ta, tb, tc):
            return RS_ZERO
    pref2 = (
        _delta2(tj1, tj2, tj3) * _delta2(tj1, tj5, tj6)
        * _delta2(tj4, tj2, tj6) * _delta2(tj4, tj5, tj3)
    )
    t_lo = max(tj1 + tj2 + tj3, tj1 + tj5 + tj6, tj4 + tj2 + tj6, tj4 + tj5 + tj3)
    t_hi = min(tj1 + tj2 + tj4 + tj5, tj2 + tj3 + tj5 + tj6, tj3 + tj1 + tj6 + tj4)
    total = Fraction(0)
    for tt in range(t_lo, t_hi + 1, 2):
        num = sign_pow(tt // 2) * _fac2(tt + 2)
        den = (
            _fac2(tt - tj1 - tj2 - tj3)
            * _fac2(tt - tj1 - tj5 - tj6)
            * _fac2(tt - tj4 - tj2 - tj6)
            * _fac2(tt - tj4 - tj5 - tj3)
            * _fac2(tj1 + tj2 + tj4 + tj5 - tt)
            * _fac2(tj2 + tj3 + tj5 + tj6 - tt)
            * _fac2(tj3 + tj1 + tj6 + tj4 - tt)
        )
        total += Fraction(num, den)
    return Radical(total, pref2)


def su2_sixj(j1, j2, j3, j4, j5, j6):
    """Wigner 6j symbol {j1 j2 j3; j4 j5 j6}."""
    return _sixj_t(*twices(j1, j2, j3, j4, j5, j6))


@lru_cache(maxsize=None)
def _usixj_t(tj1, tj2, tj12, tj3, tj, tj23):
    six = _sixj_t(tj1, tj2, tj12, tj3, tj, tj23)
    if six.is_zero():
        return RS_ZERO
    sign = sign_pow((tj1 + tj2 + tj3 + tj) // 2)
    hat = Radical(sign, (tj12 + 1) * (tj23 + 1))
    return hat * six


def su2_usixj(j1, j2, j12, j3, j, j23):
    """Unitary recoupling symbol U(j1 j2 j j3; j12 j23).

    <(j1 j2)j12, j3; j | j1, (j2 j3)j23; j>, i.e. the orthogonal
    change of coupling order, related to the 6j by phases and hat
    factors.
    """
    return _usixj_t(*twices(j1, j2, j12, j3, j, j23))


def _phi_t(t1, t2, t):
    if (t1 + t2 - t) % 2:
        raise ValueError("non-integral phase exponent")
    return sign_pow((t1 + t2 - t) // 2)


def su2_phi(j1, j2, j):
    """Interchange phase (-1)**(j1+j2-j) of the SU(2) coupling."""
    return _phi_t(*twices(j1, j2, j))
