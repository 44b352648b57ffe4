import time
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from so5racah.errors import NotFactorable
from so5racah.exact import RS_ONE, RS_ZERO, Radical, _square_split, parse_value, render_value, \
    rs

try:
    import sympy
except ImportError:
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def test_canonicalize_pulls_square_part():
    assert Radical(1, 45) == Radical(Fraction(3), 5)
    assert Radical(1, 8) == Radical(Fraction(2), 2)
    assert Radical(Fraction(1, 2), 12) == Radical(Fraction(1), 3)
    assert Radical(5, 1) == Radical(Fraction(5), 1)
    assert Radical(0, 7) == RS_ZERO
    assert Radical(3, 0) == RS_ZERO
    with pytest.raises(ValueError):
        Radical(1, -4)


def test_root_of_rational():
    # sqrt(8/9) = (2/3) sqrt(2)
    assert Radical(1, Fraction(8, 9)) == Radical(Fraction(2, 3), 2)
    # sqrt(45/32) = (3/8) sqrt(10)
    assert Radical(1, Fraction(45, 32)) == Radical(Fraction(3, 8), 10)
    assert Radical(2, Fraction(1, 4)) == Radical(Fraction(1), 1)
    assert Radical(1, 0) == RS_ZERO


def test_constructor_stores_the_canonical_form():
    # one value, one store: 2*sqrt(12) and 4*sqrt(3) are both sqrt(48)
    assert (Radical(2, 12).num, Radical(2, 12).den, Radical(2, 12).rad) == (4, 1, 3)
    assert Radical(2, 12) == Radical(4, 3) and hash(Radical(2, 12)) == hash(Radical(4, 3))
    # a perfect-square radicand gives the rational it equals
    assert Radical(1, 4) == 2 and hash(Radical(1, 4)) == hash(2)
    assert Radical(1, 4).is_rational() and Radical(1, 4).rational() == 2
    assert Radical(1, 0).is_zero() and Radical(1, 0) == 0 and Radical(1, 0).rad == 1
    assert (Radical(Fraction(-3, 4), Fraction(8, 9)).num,
            Radical(Fraction(-3, 4), Fraction(8, 9)).den) == (-1, 2)


@pytest.mark.parametrize("coeff, rad, error, message", [
    (1, -2, ValueError, "negative radicand -2$"),
    (0, Fraction(-1, 3), ValueError, "negative radicand -1/3$"),
    (0.1, 2, TypeError, "ints and Fractions"),
    ("1/3", 5, TypeError, "ints and Fractions"),
    (1, 2.0, TypeError, "ints and Fractions"),
    (1, None, TypeError, "ints and Fractions"),
], ids=["negative", "negative-zero-coeff", "float-coeff", "str-coeff", "float-radicand",
        "none-radicand"])
def test_constructor_takes_ints_and_fractions_only(coeff, rad, error, message):
    # floats appear only in --format float, never inside a value
    with pytest.raises(error, match=message):
        Radical(coeff, rad)


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
    # a sum stays in its radical class; zero added to anything is the other
    x = Radical(Fraction(1), 2)
    assert x + x == Radical(Fraction(2), 2)
    assert x + Radical(Fraction(-1, 3), 2) == Radical(Fraction(2, 3), 2)
    assert (x - x).is_zero() and x - x == 0
    assert rs(1) + Fraction(1, 2) == Fraction(3, 2)
    assert 1 + rs(Fraction(1, 2)) == Fraction(3, 2)
    assert RS_ZERO + x is x and x + 0 is x and x - RS_ZERO is x
    assert rs(Fraction(2, 3)).rational() == Fraction(2, 3)
    assert rs(5).is_rational() and RS_ZERO.is_rational()
    assert not x.is_rational()


def test_mixed_class_sum_is_not_factorable():
    r2 = Radical(Fraction(1), 2)
    with pytest.raises(NotFactorable, match="radical classes 2 and 1"):
        r2 + 1
    with pytest.raises(NotFactorable, match="radical classes 2 and 1"):
        1 + r2
    with pytest.raises(NotFactorable, match="radical classes 2 and 3"):
        r2 - Radical(Fraction(5, 7), 3)


def test_products_cancel_exactly():
    # sqrt(6) sqrt(2/3) = 2: the radicand cancels to 1
    p = Radical(Fraction(1), 6) * Radical(1, Fraction(2, 3))
    assert p == 2 and p.rad == 1 and p.is_rational()
    x = Radical(Fraction(3, 7), 30)
    assert x + (-x) == RS_ZERO and (x + (-x)).rad == 1


def test_inversion_single_term():
    inv = RS_ONE / Radical(Fraction(2, 3), 5)
    assert inv == Radical(Fraction(3, 10), 5)


def test_division_forms():
    x = Radical(Fraction(3), 2)
    assert x / 3 == Radical(Fraction(1), 2)
    assert x / Fraction(3, 2) == Radical(Fraction(2), 2)
    assert x / Radical(Fraction(1), 2) == 3
    # 3 sqrt(2) / (-sqrt(6)) = -sqrt(3)
    assert x / Radical(Fraction(-1), 6) == Radical(Fraction(-1), 3)
    with pytest.raises(ZeroDivisionError):
        x / 0
    with pytest.raises(ZeroDivisionError):
        x / RS_ZERO


def test_render_canonical_form():
    assert render_value(RS_ZERO) == "sqrt(0)"
    assert render_value(Radical(Fraction(-2, 5), 5)) == "-sqrt(4/5)"
    assert render_value(Fraction(15, 8)) == "sqrt(225/64)"
    assert render_value(-3) == "-sqrt(9)"
    assert str(Radical(Fraction(3, 8), 10)) == "sqrt(45/32)"


def test_parse_round_trip_examples():
    for s in ["sqrt(0)", "sqrt(4/5)", "-sqrt(45/32)", "sqrt(9)", "-sqrt(1/6)"]:
        assert render_value(parse_value(s)) == s
    # bare rationals are read too
    assert parse_value("-3/4") == Fraction(-3, 4)
    assert parse_value(" 2 ") == 2


@pytest.mark.parametrize("s", ["sqrt(1) + sqrt(2)", "-sqrt(1/6) - sqrt(5/6)",
                               "1 + sqrt(2)", "sqrt(2) + sqrt(8)"])
def test_parse_rejects_a_sum(s):
    # a value is one signed term, even where the terms share a class
    with pytest.raises(ValueError, match="cannot parse value"):
        parse_value(s)


def test_parse_splits_a_large_prime_radicand_quickly():
    # 10**13 + 37 is prime: trial division stops at 2**16, and the
    # leftover, below 2**48 and not a square, is squarefree
    p = 10**13 + 37
    elapsed = []
    for _ in range(3):
        t0 = time.perf_counter()
        x = parse_value("sqrt(1/%d)" % p)
        elapsed.append(time.perf_counter() - t0)
    assert min(elapsed) < 0.05
    # the value the unbounded split gives, p being prime
    assert x == Radical(Fraction(1, p), p)


def test_parse_takes_the_square_root_of_a_large_square_leftover():
    # 65537 is the first prime past 2**16, so its square is the leftover
    n = 65537**2 * 12
    assert parse_value("sqrt(%d)" % n) == Radical(1, n) \
        == Radical(2 * 65537, 3)


@pytest.mark.parametrize("x", [0, 1, -3, Fraction(2, 3), Fraction(-7, 4)])
def test_rational_radical_hashes_as_the_number_it_equals(x):
    assert rs(x) == x and hash(rs(x)) == hash(x)
    assert {x: "v"}.get(rs(x)) == "v"
    assert len({rs(x), x}) == 1


def test_irrational_radical_hash_matches_equal_radicals():
    x = Radical(Fraction(1, 2), 2)
    assert {x: "v"}.get(Radical(1, Fraction(1, 2))) == "v"
    assert len({x, -x, rs(Fraction(1, 2))}) == 3


@pytest.mark.parametrize("s", ["sqrt(1/0)", "-3/0", "-sqrt(2/0)"])
def test_parse_zero_denominator_is_malformed(s):
    # malformed text like any other, not an arithmetic error
    with pytest.raises(ValueError, match="zero denominator"):
        parse_value(s)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_value(""), "cannot parse value ''"),
    (lambda: parse_value("sqrt(1) sqrt(2)"), "cannot parse value"),
    (lambda: rs(1).decimal(0), "digits must be in 1..30"),
    (lambda: Radical(1, Fraction(-1, 2)), "negative radicand -1/2$"),
    (lambda: rs(Radical(1, 2)).rational(), "is not rational"),
    # 65537 * 65539 * 65543 > 2**48 might hold a square factor that trial
    # division up to 2**16 cannot see
    (lambda: parse_value("sqrt(1/281522223382549)"), "too large to split"),
], ids=["empty", "unsigned-term", "zero-digits", "negative-radicand",
        "irrational", "unsplit-radicand"])
def test_malformed_input_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


# -- radicands with large prime factors ------------------------------------

P31 = 2147483659          # the first two primes past 2**31
Q31 = 2147483693
P40 = 1099511627791       # the first prime past 2**40
M61 = 2**61 - 1           # a Mersenne prime


@pytest.mark.parametrize("n, split", [
    (P31 * Q31, (1, P31 * Q31)),
    (P31 ** 2 * 3, (P31, 3)),
    (P31 ** 3 * P40 ** 2 * 12, (2 * P31 * P40, 3 * P31)),
    (M61 * P31 ** 2 * 7 ** 3, (7 * P31, 7 * M61)),
    (M61 ** 2, (M61, 1)),
    (Q31 * M61 * (10**9 + 7), (1, Q31 * M61 * (10**9 + 7))),
])
def test_square_split_of_large_prime_factors(n, split):
    assert _square_split(n) == split


def test_square_split_of_an_unprovable_prime_is_a_value_error():
    # 2**89 - 1 is prime, but past the range where the Miller-Rabin
    # bases decide primality, so nothing can prove it squarefree
    with pytest.raises(ValueError, match="cannot prove"):
        _square_split(2**89 - 1)


def _trial_split(n):
    sq, rad, d = 1, 1, 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        sq *= d ** (e // 2)
        rad *= d ** (e % 2)
        d += 1
    return sq, rad * n


@given(st.integers(1, 2**22))
def test_square_split_matches_trial_division(n):
    sq, rad = _square_split(n)
    assert sq * sq * rad == n and _squarefree(rad)
    assert (sq, rad) == _trial_split(n)


@given(st.lists(st.sampled_from([2, 3, 1009, 65537, P31, Q31]), max_size=6))
def test_square_split_of_products_of_primes(primes):
    n, sq, rad = 1, 1, 1
    for p in set(primes):
        e = primes.count(p)
        n *= p ** e
        sq *= p ** (e // 2)
        rad *= p ** (e % 2)
    assert _square_split(n) == (sq, rad)


def test_decimal_emission():
    x = Radical(Fraction(1, 2), 2)
    assert str(x.decimal(12)) == "0.707106781187"
    assert str(rs(Fraction(-1, 4)).decimal(5)) == "-0.25"
    assert str(RS_ZERO.decimal(5)) == "0"
    # 30 digits of sqrt(2)/2, the documented ceiling
    assert str(x.decimal(30)) == "0.707106781186547524400844362105"


# -- property tests --------------------------------------------------------

fractions = st.fractions(min_value=-8, max_value=8, max_denominator=12)
wide_fractions = st.fractions(min_value=-40, max_value=40, max_denominator=60)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30, 105])


def radicals(coeffs=fractions):
    return st.builds(Radical, coeffs, radicands)


def one_class(n, coeffs=fractions):
    """n radicals sharing one radicand (zeros aside)."""
    return radicands.flatmap(lambda r: st.lists(
        coeffs.map(lambda c: Radical(c, r)), min_size=n, max_size=n))


def _assert_canonical(x):
    assert type(x.num) is int and type(x.den) is int
    assert x.den > 0 and gcd(x.num, x.den) == 1, (x.num, x.den)
    assert Radical(1, x.rad).rad == x.rad  # squarefree
    assert x.num or x.rad == 1  # zero is (0, 1, 1)


@given(radicals())
def test_terms_are_canonical(x):
    _assert_canonical(x)


@given(radicals())
def test_render_parse_round_trip(x):
    assert parse_value(render_value(x)) == x


@given(one_class(2))
def test_add_sub_cancel(xy):
    x, y = xy
    assert (x + y) - y == x


@needs_sympy
@given(radicals(wide_fractions), radicals(wide_fractions))
@settings(deadline=None)
def test_mul_div_match_sympy(x, y):
    # products and quotients against sympy's own radical arithmetic,
    # which keeps rational * sqrt(squarefree) in one canonical form
    def sym(z):
        return sympy.Rational(z.num, z.den) * sympy.sqrt(z.rad)

    assert sym(x * y) == sym(x) * sym(y)
    if not y.is_zero():
        assert sym(x / y) == sym(x) / sym(y)


@given(radicals(), one_class(2))
@settings(deadline=None)
def test_mul_distributes(x, yz):
    y, z = yz
    assert x * (y + z) == x * y + x * z


@given(radicals(), radicals())
def test_mixed_class_sums_raise(x, y):
    assume(x.num and y.num and x.rad != y.rad)
    for op in (lambda: x + y, lambda: x - y, lambda: y + x):
        with pytest.raises(NotFactorable):
            op()


# -- the constructor on raw input -------------------------------------------

# radicands >= 0: integers with square factors, bare integers and fractions
raw_radicands = st.one_of(
    st.builds(lambda s, r: s * s * r, st.integers(1, 40), st.integers(0, 60)),
    st.integers(0, 5000),
    st.fractions(min_value=0, max_value=200, max_denominator=100),
)


def _squarefree(n):
    return all(n % (p * p) for p in range(2, isqrt(n) + 1))


@given(wide_fractions, raw_radicands)
def test_constructor_canonical_on_raw_input(c, q):
    x = Radical(c, q)
    assert type(x.num) is int and type(x.den) is int and type(x.rad) is int
    assert x.den > 0 and gcd(x.num, x.den) == 1 and _squarefree(x.rad)
    assert x.num or (x.den, x.rad) == (1, 1)
    assert x.square() == c * abs(c) * q


@given(wide_fractions, raw_radicands, st.integers(1, 12))
def test_constructor_moves_square_factors_freely(c, q, k):
    x, y = Radical(c * k, Fraction(q) / k ** 2), Radical(c, q)
    assert x == y and hash(x) == hash(y)
    assert (x.num, x.den, x.rad) == (y.num, y.den, y.rad)


@given(wide_fractions, raw_radicands)
def test_constructor_round_trips_through_text(c, q):
    x = Radical(c, q)
    assert parse_value(render_value(x)) == x


# -- the integer-pair kernel against a Fraction reference -------------------
#
# The reference keeps a value as a Fraction coefficient and a squarefree
# radicand and does its own Fraction arithmetic; a product radicand is
# re-factored anew with Radical.  The kernel under test keeps
# reduced integer pairs and never builds a Fraction per operation.

def _assert_matches(x, coeff, rad):
    _assert_canonical(x)
    assert x.coeff == coeff and type(x.coeff) is Fraction
    assert x.rad == (rad if coeff else 1)


@given(radicands, wide_fractions, wide_fractions)
@settings(deadline=None)
def test_kernel_ring_ops_match_reference(r, a, b):
    x, y = Radical(a, r), Radical(b, r)
    _assert_matches(x + y, a + b, r)
    _assert_matches(x - y, a - b, r)
    _assert_matches(-x, -a, r)
    _assert_matches(x * y, a * b * r, 1)
    assert (x == y) == (a == b)
    if a == b:
        assert hash(x) == hash(y)


@given(radicals(wide_fractions), wide_fractions.filter(bool), radicands)
@settings(deadline=None)
def test_kernel_division_matches_reference(x, c, r):
    want = Radical(x.coeff / (c * r), x.rad * r)
    _assert_matches(x / Radical(c, r), want.coeff, want.rad)
    _assert_matches(x / c, x.coeff / c, x.rad)


@given(wide_fractions, radicands, wide_fractions, radicands)
def test_kernel_radical_product_matches_reference(c1, r1, c2, r2):
    p = Radical(c1, r1) * Radical(c2, r2)
    want = Radical(c1 * c2, r1 * r2)
    assert p == want and hash(p) == hash(want)
    assert p.den > 0 and gcd(p.num, p.den) == 1
    assert p.coeff == want.coeff and type(p.coeff) is Fraction
    assert Radical(c1, r1) * c2 == Radical(c1 * c2, r1)


@given(radicands, st.lists(wide_fractions, max_size=6), st.randoms())
@settings(deadline=None)
def test_kernel_order_independent(r, coeffs, rnd):
    # the same value summed in two orders, and built as a product in
    # both factor orders, is equal, hashes alike and has one store
    forward = RS_ZERO
    for c in coeffs:
        forward = forward + Radical(c, r)
    shuffled = list(coeffs)
    rnd.shuffle(shuffled)
    backward = RS_ZERO
    for c in shuffled:
        backward = Radical(c, r) + backward
    assert forward == backward and hash(forward) == hash(backward)
    assert (forward.num, forward.den, forward.rad) == \
        (backward.num, backward.den, backward.rad)
    y = Radical(Fraction(3, 4), 6)
    assert forward * y == y * forward
    assert hash(forward * y) == hash(y * forward)
