from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from so5racah.errors import BranchingViolation, OutOfRange
from so5racah.exact import RS_ZERO, Radical, root_of_rational, rs
from so5racah.halfint import HalfInt, hi
from so5racah.so4 import So4Irrep
from so5racah.so5 import SCHEMES, So5Irrep, convert_label, generator_rme, \
    generator_rmes, so5_branch_so4, so5_kronecker

H = Fraction(1, 2)


def test_label_validation():
    So5Irrep(Fraction(3, 2), H)
    with pytest.raises(OutOfRange):
        So5Irrep(0, 1)
    with pytest.raises(OutOfRange):
        So5Irrep(1, -1)
    assert So5Irrep.parse("(7/2,3/2)").key() == (7, 3)


def test_scheme_conversions_spinor():
    # the 5-dimensional vector irrep (1/2,1/2) in every labeling
    cases = {
        "cartan": (1, 0),
        "dynkin": (1, 0),
        "dynkin-modified": (1, 0),
        "sp4-cartan": (1, 1),
        "sp4-dynkin": (0, 1),
    }
    for scheme, want in cases.items():
        got = convert_label(H, H, "hw", scheme)
        assert got == (Fraction(want[0]), Fraction(want[1])), scheme
        back = convert_label(got[0], got[1], scheme, "hw")
        assert back == (H, H)


def test_scheme_conversions_ten_dim():
    # (1,0): adjoint-adjacent 10-dim irrep, l1 = l2 = 1
    assert convert_label(1, 0, "hw", "cartan") == (1, 1)
    assert convert_label(1, 0, "hw", "dynkin") == (0, 2)
    assert convert_label(1, 0, "hw", "dynkin-modified") == (0, 1)
    assert convert_label(1, 0, "hw", "sp4-cartan") == (2, 0)
    assert convert_label(1, 0, "hw", "sp4-dynkin") == (2, 0)


def test_scheme_conversions_generic():
    # (3/2,1/2): l1 = 2, l2 = 1
    assert convert_label(Fraction(3, 2), H, "hw", "cartan") == (2, 1)
    assert convert_label(Fraction(3, 2), H, "hw", "dynkin") == (1, 2)
    assert convert_label(Fraction(3, 2), H, "hw", "dynkin-modified") \
        == (1, 1)
    assert convert_label(Fraction(3, 2), H, "hw", "sp4-cartan") == (3, 1)
    assert convert_label(Fraction(3, 2), H, "hw", "sp4-dynkin") == (2, 1)
    # spinor-family couplings quoted in (RS) vs Cartan form
    assert convert_label(H, 0, "hw", "cartan") == (H, H)
    assert convert_label(1, H, "hw", "cartan") == (Fraction(3, 2), H)
    assert convert_label(H, 0, "hw", "sp4-cartan") == (1, 0)


def test_scheme_range_violations():
    with pytest.raises(OutOfRange):
        convert_label(H, 0, "cartan", "hw")  # l1 - l2 must be integer
    with pytest.raises(OutOfRange):
        convert_label(H, 1, "dynkin", "hw")  # dynkin labels are ints
    with pytest.raises(OutOfRange):
        convert_label(1, 2, "sp4-cartan", "hw")  # needs l1' >= l2'
    with pytest.raises(OutOfRange):
        convert_label(0, 1, "hw", "cartan")  # R < S
    with pytest.raises(OutOfRange):
        convert_label(1, 0, "no-such-scheme", "hw")


def _int(x):
    return x.denominator == 1


def _half(x):
    return (2 * x).denominator == 1


# each scheme's published rule, stated on its own labels
PUBLISHED_RULES = {
    # (R, S): half-integers, R >= S >= 0
    "hw": lambda a, b: _half(a) and _half(b) and a >= b >= 0,
    # [l1, l2]: half-integers, l1 >= l2 >= 0, l1 - l2 an integer
    "cartan": lambda a, b: _half(a) and _half(b) and a >= b >= 0
    and _int(a - b),
    # (a1, a2): nonnegative integers
    "dynkin": lambda a, b: _int(a) and _int(b) and a >= 0 and b >= 0,
    # (l1 - l2, l2): a nonnegative integer and a nonnegative half-integer
    "dynkin-modified": lambda a, b: _int(a) and _half(b) and a >= 0
    and b >= 0,
    # <l1', l2'>: integers, l1' >= l2' >= 0
    "sp4-cartan": lambda a, b: _int(a) and _int(b) and a >= b >= 0,
    # (a1', a2'): nonnegative integers
    "sp4-dynkin": lambda a, b: _int(a) and _int(b) and a >= 0 and b >= 0,
}


@pytest.mark.parametrize("scheme", SCHEMES)
def test_scheme_accepts_exactly_its_published_labels(scheme):
    grid = [Fraction(k, 4) for k in range(-4, 17)]
    accepted = 0
    for a in grid:
        for b in grid:
            try:
                convert_label(a, b, scheme, "hw")
                ok = True
            except OutOfRange:
                ok = False
            assert ok == PUBLISHED_RULES[scheme](a, b), (a, b)
            accepted += ok
    assert accepted >= 10


@given(st.integers(0, 8), st.integers(0, 8))
def test_scheme_round_trips(tr, ts):
    if ts > tr:
        tr, ts = ts, tr
    r, s = Fraction(tr, 2), Fraction(ts, 2)
    for scheme in SCHEMES:
        a, b = convert_label(r, s, "hw", scheme)
        assert convert_label(a, b, scheme, "hw") == (r, s)


def test_dim_values():
    for (r, s), want in [((0, 0), 1), ((H, 0), 4), ((H, H), 5),
                         ((1, 0), 10), ((1, H), 16), ((1, 1), 14),
                         ((Fraction(3, 2), Fraction(3, 2)), 30),
                         ((Fraction(7, 2), Fraction(3, 2)), 390)]:
        assert So5Irrep(r, s).dim == want


def test_branching_is_exhaustive():
    # the SO(4) content accounts for the full dimension
    for tr in range(0, 7):
        for ts in range(0, tr + 1):
            g = So5Irrep(HalfInt(tr), HalfInt(ts))
            content = so5_branch_so4(g)
            assert len(set(content)) == len(content)
            assert sorted(content) == content
            assert sum(lam.dim for lam in content) == g.dim


def test_branching_example():
    g = So5Irrep(1, H)
    assert [str(lam) for lam in so5_branch_so4(g)] == [
        "(0,1/2)", "(1/2,0)", "(1/2,1)", "(1,1/2)"]
    # the label (R, S) is the highest SO(4) irrep contained
    assert max(so5_branch_so4(g), key=So4Irrep.weight_key) == So4Irrep(1, H)


def test_kronecker_small_series():
    a = So5Irrep(H, 0)
    series = so5_kronecker(a, a)
    assert {str(g): m for g, m in series.items()} == {
        "(0,0)": 1, "(1/2,1/2)": 1, "(1,0)": 1}
    v = So5Irrep(H, H)
    series = so5_kronecker(v, v)
    assert {str(g): m for g, m in series.items()} == {
        "(0,0)": 1, "(1,0)": 1, "(1,1)": 1}


def test_kronecker_outer_multiplicity_two():
    series = so5_kronecker(So5Irrep(1, 0), So5Irrep(1, H))
    assert series[So5Irrep(1, H)] == 2


def test_kronecker_conserves_dim_and_commutes():
    labels = [So5Irrep(HalfInt(tr), HalfInt(ts))
              for tr in range(0, 5) for ts in range(0, tr + 1)]
    for g1 in labels:
        for g2 in labels:
            series = so5_kronecker(g1, g2)
            assert sum(g.dim * m for g, m in series.items()) \
                == g1.dim * g2.dim
            assert series == so5_kronecker(g2, g1)


def test_rme_frozen_vector_irrep():
    g = So5Irrep(H, H)
    hh = So4Irrep(H, H)
    sc = So4Irrep(0, 0)
    assert generator_rme(g, hh, sc) == root_of_rational(1, H)
    # adjoint partner: -hat(1/2,1/2)/hat(0,0) * sqrt(1/2) = -sqrt(2)
    assert generator_rme(g, sc, hh) == Radical(Fraction(-1), 2)
    assert generator_rme(g, hh, hh) == RS_ZERO


def test_rme_frozen_sixteen_dim():
    g = So5Irrep(1, H)
    lam = {s: So4Irrep.parse(s) for s in
           ["(0,1/2)", "(1/2,0)", "(1/2,1)", "(1,1/2)"]}
    cases = [
        ("(0,1/2)", "(1/2,0)", root_of_rational(1, Fraction(9, 8))),
        ("(0,1/2)", "(1/2,1)", -root_of_rational(1, Fraction(15, 8))),
        ("(1/2,1)", "(0,1/2)", root_of_rational(1, Fraction(5, 8))),
        ("(1/2,1)", "(1,1/2)", root_of_rational(1, Fraction(3, 8))),
        ("(1,1/2)", "(1/2,1)", root_of_rational(1, Fraction(3, 8))),
        ("(0,1/2)", "(0,1/2)", RS_ZERO),
        ("(0,1/2)", "(1,1/2)", RS_ZERO),  # shift (1,0): not a generator step
    ]
    for b, k, want in cases:
        assert generator_rme(g, lam[b], lam[k]) == want, (b, k)


def test_rme_adjoint_symmetry():
    for g in [So5Irrep(1, H), So5Irrep(Fraction(3, 2), H), So5Irrep(2, 1)]:
        content = so5_branch_so4(g)
        for bra in content:
            for ket in content:
                f = generator_rme(g, bra, ket)
                r = generator_rme(g, ket, bra)
                assert f.is_zero() == r.is_zero()
                if f.is_zero():
                    continue
                dx = bra.X.twice - ket.X.twice
                dy = bra.Y.twice - ket.Y.twice
                sign = -1 if (dx + dy) % 4 else 1
                ratio = root_of_rational(
                    1, Fraction((ket.X.twice + 1) * (ket.Y.twice + 1),
                                (bra.X.twice + 1) * (bra.Y.twice + 1)))
                assert rs(f) == rs(sign) * ratio * r


def test_rme_table_is_shared_sparse_and_in_branch_order():
    # the Racah rows and the generator matrices visit the table in its
    # order, so it must follow the branching
    g = So5Irrep(Fraction(3, 2), 1)
    table = generator_rmes(g)
    assert generator_rmes(So5Irrep(Fraction(3, 2), 1)) is table
    branch = so5_branch_so4(g)
    assert list(table) == branch
    for ket, row in table.items():
        assert list(row) == [bra for bra in branch if bra in row]
        for bra, rme in row.items():
            assert not rme.is_zero()
            assert abs(bra.X.twice - ket.X.twice) == 1 == abs(bra.Y.twice - ket.Y.twice)


def test_rme_branching_violation():
    g = So5Irrep(H, H)
    with pytest.raises(BranchingViolation):
        generator_rme(g, So4Irrep(1, 0), So4Irrep(0, 0))
