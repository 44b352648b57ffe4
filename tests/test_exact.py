from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from so5racah.exact import RAD_ONE, RAD_ZERO, RS_ONE, RS_ZERO, Radical, \
    RadicalSum, canonicalize, parse_value, render_value, \
    root_of_rational, rs


def test_canonicalize_pulls_square_part():
    assert canonicalize(1, 45) == Radical(Fraction(3), 5)
    assert canonicalize(1, 8) == Radical(Fraction(2), 2)
    assert canonicalize(Fraction(1, 2), 12) == Radical(Fraction(1), 3)
    assert canonicalize(5, 1) == Radical(Fraction(5), 1)
    assert canonicalize(0, 7) == RAD_ZERO
    assert canonicalize(3, 0) == RAD_ZERO
    with pytest.raises(ValueError):
        canonicalize(1, -4)


def test_root_of_rational():
    # sqrt(8/9) = (2/3) sqrt(2)
    assert root_of_rational(1, Fraction(8, 9)) == Radical(Fraction(2, 3), 2)
    # sqrt(45/32) = (3/8) sqrt(10)
    assert root_of_rational(1, Fraction(45, 32)) == Radical(Fraction(3, 8), 10)
    assert root_of_rational(2, Fraction(1, 4)) == Radical(Fraction(1), 1)
    assert root_of_rational(1, 0) == RAD_ZERO


def test_radical_product_collapses_common_factor():
    a = Radical(Fraction(1), 6)
    b = Radical(Fraction(1), 10)
    assert a * b == Radical(Fraction(2), 15)
    assert a * a == Radical(Fraction(6), 1)


def test_radical_square_is_signed():
    # square() keeps the sign of the coefficient: it is the signed
    # rational c*|c|*r, so callers squaring a true length use abs().
    assert Radical(Fraction(-1, 2), 3).square() == Fraction(-3, 4)
    assert Radical(Fraction(1, 2), 3).square() == Fraction(3, 4)


def test_sum_arithmetic():
    x = rs(Radical(Fraction(1), 2)) + 1
    y = rs(Radical(Fraction(1), 2)) - 1
    assert x * y == RS_ONE  # (sqrt2+1)(sqrt2-1) = 1
    assert (x - x).is_zero()
    assert x - 1 == rs(Radical(Fraction(1), 2))
    assert rs(Fraction(2, 3)).rational() == Fraction(2, 3)
    assert rs(5).is_rational()
    assert not x.is_rational()


def test_products_cancel_exactly():
    r2 = rs(Radical(Fraction(1), 2))
    r3 = rs(Radical(Fraction(1), 3))
    # (sqrt2 + sqrt3)(sqrt2 - sqrt3) = 2 - 3: the sqrt6 cross terms cancel
    assert ((r2 + r3) * (r2 - r3)).terms == {1: Fraction(-1)}
    x = r2 + r3 + Fraction(1, 7)
    assert (x + (-x)).terms == {}


def test_inversion_single_term():
    inv = RS_ONE / Radical(Fraction(2, 3), 5)
    assert inv == rs(Radical(Fraction(3, 10), 5))


def test_division_forms():
    x = rs(Radical(Fraction(3), 2))
    assert x / 3 == rs(Radical(Fraction(1), 2))
    assert x / Fraction(3, 2) == rs(Radical(Fraction(2), 2))
    assert x / Radical(Fraction(1), 2) == rs(3)
    with pytest.raises(ZeroDivisionError):
        x / 0
    # the solver eliminates over the rationals; sums are never divisors
    with pytest.raises(ValueError, match="sum of radicals"):
        x / (rs(Radical(Fraction(1), 2)) + 1)


def test_render_canonical_form():
    assert render_value(RS_ZERO) == "sqrt(0)"
    assert render_value(rs(Radical(Fraction(-2, 5), 5))) == "-sqrt(4/5)"
    assert render_value(rs(Fraction(15, 8))) == "sqrt(225/64)"
    assert render_value(rs(Fraction(-3))) == "-sqrt(9)"
    two = rs(Radical(Fraction(1), 2))
    assert render_value(two + 1) == "sqrt(1) + sqrt(2)"
    assert render_value(two - 1) == "-sqrt(1) + sqrt(2)"


def test_parse_round_trip_examples():
    for s in ["sqrt(0)", "sqrt(4/5)", "-sqrt(45/32)", "sqrt(1) + sqrt(2)",
              "-sqrt(1/6) - sqrt(5/6)"]:
        assert render_value(parse_value(s)) == s


@pytest.mark.parametrize("s", ["sqrt(1/0)", "-3/0", "sqrt(1) + sqrt(2/0)"])
def test_parse_zero_denominator_is_malformed(s):
    # malformed text like any other, not an arithmetic error
    with pytest.raises(ValueError, match="zero denominator"):
        parse_value(s)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_value(""), "empty value string"),
    (lambda: parse_value("sqrt(1) sqrt(2)"), "missing sign"),
    (lambda: rs(1).decimal(0), "digits must be in 1..30"),
    (lambda: root_of_rational(1, Fraction(-1, 2)), "negative radicand -1/2$"),
    (lambda: rs(Radical(1, 2)).rational(), "is not rational"),
], ids=["empty", "unsigned-term", "zero-digits", "negative-radicand",
        "irrational"])
def test_malformed_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_decimal_emission():
    x = rs(Radical(Fraction(1, 2), 2))
    assert str(x.decimal(12)) == "0.707106781187"
    assert str(rs(Fraction(-1, 4)).decimal(5)) == "-0.25"
    # 30 digits of sqrt(2)/2, the documented ceiling
    assert str(x.decimal(30)) == "0.707106781186547524400844362105"


# -- property tests --------------------------------------------------------

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30, 105])


@st.composite
def radical_sums(draw, max_terms=3):
    n = draw(st.integers(0, max_terms))
    rads = draw(st.lists(radicands, min_size=n, max_size=n, unique=True))
    total = RS_ZERO
    for r in rads:
        total = total + rs(Radical(draw(fractions), r))
    return total


@given(radical_sums())
def test_terms_are_canonical(x):
    for r, c in x.terms.items():
        assert c != 0
        assert canonicalize(1, r).rad == r  # squarefree


@given(radical_sums())
def test_render_parse_round_trip(x):
    assert parse_value(render_value(x)) == x


@given(radical_sums(), radical_sums())
def test_add_sub_cancel(x, y):
    assert (x + y) - y == x


@given(radical_sums(), radical_sums())
def test_mul_matches_termwise_reference(x, y):
    # the product term by term from single-radical products, each of
    # which must agree with re-factoring the radicand from scratch
    parts = []
    for ra, ca in x.terms.items():
        for rb, cb in y.terms.items():
            p = Radical(ca, ra) * Radical(cb, rb)
            assert p == canonicalize(ca * cb, ra * rb)
            parts.append(p)
    prod = x * y
    assert prod == RadicalSum.of(*parts)
    assert all(c != 0 for c in prod.terms.values())


@given(radical_sums(), radical_sums(), radical_sums())
@settings(deadline=None)
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


# -- the integer-pair kernel against a Fraction reference -------------------
#
# The reference keeps a value as {squarefree radicand: nonzero Fraction}
# and does its own Fraction arithmetic; a product radicand is re-factored
# anew with canonicalize.  The kernel under test keeps reduced
# integer pairs and never builds a Fraction per operation.

def _ref_clean(d):
    return {r: c for r, c in d.items() if c}


def _ref_add(a, b):
    out = dict(a)
    for r, c in b.items():
        out[r] = out.get(r, 0) + c
    return _ref_clean(out)


def _ref_neg(a):
    return {r: -c for r, c in a.items()}


def _ref_mul(a, b):
    out = {}
    for ra, ca in a.items():
        for rb, cb in b.items():
            p = canonicalize(ca * cb, ra * rb)
            out[p.rad] = out.get(p.rad, 0) + p.coeff
    return _ref_clean(out)


def _assert_canonical(x):
    for r, (n, d) in x.pairs.items():
        assert type(n) is int and type(d) is int
        assert n != 0 and d > 0
        assert gcd(n, d) == 1, (r, n, d)
        assert canonicalize(1, r).rad == r


def _assert_matches(x, ref):
    _assert_canonical(x)
    assert dict(x.terms) == ref
    assert all(type(c) is Fraction for c in x.terms.values())


wide_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=60)


@st.composite
def wide_sums(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    rads = draw(st.lists(radicands, min_size=n, max_size=n, unique=True))
    total = RS_ZERO
    for r in rads:
        total = total + Radical(draw(wide_fractions), r)
    return total


@given(wide_sums(), wide_sums())
@settings(deadline=None)
def test_kernel_ring_ops_match_reference(x, y):
    a, b = dict(x.terms), dict(y.terms)
    _assert_matches(x + y, _ref_add(a, b))
    _assert_matches(x - y, _ref_add(a, _ref_neg(b)))
    _assert_matches(-x, _ref_neg(a))
    _assert_matches(x * y, _ref_mul(a, b))
    assert (x == y) == (a == b)
    if a == b:
        assert hash(x) == hash(y)


@given(wide_sums(), wide_fractions.filter(bool), radicands)
@settings(deadline=None)
def test_kernel_division_matches_reference(x, c, r):
    a = dict(x.terms)
    _assert_matches(x / Radical(c, r), _ref_mul(a, {r: 1 / (c * r)}))
    _assert_matches(x / c, _ref_mul(a, {1: 1 / c}))


@given(wide_fractions, radicands, wide_fractions, radicands)
def test_kernel_radical_product_matches_reference(c1, r1, c2, r2):
    p = Radical(c1, r1) * Radical(c2, r2)
    want = canonicalize(c1 * c2, r1 * r2)
    assert p == want and hash(p) == hash(want)
    assert p.den > 0 and gcd(p.num, p.den) == 1
    assert p.coeff == want.coeff and type(p.coeff) is Fraction
    assert Radical(c1, r1) * c2 == canonicalize(c1 * c2, r1)


@given(st.lists(st.tuples(wide_fractions, radicands), max_size=6), st.randoms())
@settings(deadline=None)
def test_kernel_order_independent(parts, rnd):
    # the same value summed in two orders, and built as a product in
    # both factor orders, is equal and hashes alike
    forward = RS_ZERO
    for c, r in parts:
        forward = forward + Radical(c, r)
    shuffled = list(parts)
    rnd.shuffle(shuffled)
    backward = RS_ZERO
    for c, r in shuffled:
        backward = Radical(c, r) + backward
    assert forward == backward and hash(forward) == hash(backward)
    assert forward.pairs == backward.pairs
    y = rs(Radical(Fraction(3, 4), 6)) - Fraction(1, 6)
    assert forward * y == y * forward
    assert hash(forward * y) == hash(y * forward)
