from collections import Counter
from fractions import Fraction

import pytest

from so5racah.angmom import chain3_brackets, chain3_generator_matrices, \
    chain3_level, chain3_lowering, coupled_commutator, \
    verify_chain3_brackets, chain3_transform
from so5racah.chains import branch, casimir, op_add, op_scale, weight_basis
from so5racah.exact import RS_ZERO, Radical, render_value, rs
from so5racah.halfint import HalfInt, hi
from so5racah.racah import solve_isoscalars
from so5racah.so5 import So5Irrep, so5_branch_so4

H = Fraction(1, 2)


def _branch(g):
    """(L, multiplicity) pairs of g, counted by chains.branch."""
    return branch(weight_basis(g), chain3_level)


def test_branchings_frozen():
    cases = {
        (0, 0): [("0", 1)],
        (1, 1): [("2", 1)],  # (1/2,1/2)
        (2, 0): [("1", 1), ("3", 1)],  # (1,0)
        (2, 1): [("1/2", 1), ("5/2", 1), ("7/2", 1)],  # (1,1/2)
        (2, 2): [("2", 1), ("4", 1)],  # (1,1)
        (3, 3): [("0", 1), ("3", 1), ("4", 1), ("6", 1)],  # (3/2,3/2)
        (4, 2): [("1", 1), ("2", 1), ("3", 2), ("4", 1), ("5", 2),
                 ("6", 1), ("7", 1)],  # (2,1)
    }
    for (tr, ts), want in cases.items():
        g = So5Irrep(HalfInt(tr), HalfInt(ts))
        assert [(str(l), mu) for l, mu in _branch(g)] == want


def test_mult_and_dim_conservation():
    mult = dict(_branch(So5Irrep(2, 1)))
    assert mult[hi(3)] == 2
    assert hi(8) not in mult
    for tr in range(0, 7):
        for ts in range(0, tr + 1):
            g = So5Irrep(HalfInt(tr), HalfInt(ts))
            assert sum((l.twice + 1) * mu
                       for l, mu in _branch(g)) == g.dim


def _irreps(tr_lo, tr_hi):
    """Every So5Irrep with tr_lo <= 2R <= tr_hi."""
    return [So5Irrep(HalfInt(tr), HalfInt(ts))
            for tr in range(tr_lo, tr_hi + 1) for ts in range(tr + 1)]


def _check_commutators(g):
    # the generator algebra closes with fixed structure constants; a
    # wrong normalization or phase in L or O breaks at least one of
    # these on some irrep; op_add drops zero entries, so a zero
    # operator is the empty matrix
    ops = chain3_generator_matrices(g)
    root2 = rs(Radical(Fraction(1), 2))
    for q in (-1, 0, 1):
        got = coupled_commutator(ops.L, 1, ops.L, 1, 1, q)
        want = op_scale(-root2, ops.L[q])
        assert op_add(got, op_scale(-1, want)) == {}, ("LL", g, q)
    for q in range(-3, 4):
        got = coupled_commutator(ops.L, 1, ops.O, 3, 3, q)
        want = op_scale(-2 * rs(Radical(Fraction(1), 3)), ops.O[q])
        assert op_add(got, op_scale(-1, want)) == {}, ("LO", g, q)
    for q in (-1, 0, 1):
        got = coupled_commutator(ops.O, 3, ops.O, 3, 1, q)
        want = op_scale(-2 * rs(Radical(Fraction(1), 7)), ops.L[q])
        assert op_add(got, op_scale(-1, want)) == {}, ("OO1", g, q)
    for q in range(-3, 4):
        got = coupled_commutator(ops.O, 3, ops.O, 3, 3, q)
        want = op_scale(rs(Radical(Fraction(1), 6)), ops.O[q])
        assert op_add(got, op_scale(-1, want)) == {}, ("OO3", g, q)


def test_commutator_identities():
    # the generator matrices close the so(5) algebra on every irrep
    # with 0 < R <= 2
    for g in _irreps(1, 4):
        _check_commutators(g)


@pytest.mark.slow
@pytest.mark.parametrize("g", _irreps(5, 6), ids=str)
def test_commutator_identities_to_r3(g):
    _check_commutators(g)


def test_lsquared_trace():
    # trace is basis independent: sum of mult * (2L+1) * L(L+1)
    g = So5Irrep(1, 0)
    basis = weight_basis(g)
    l2 = casimir(basis, chain3_level, chain3_lowering(g, basis))
    tr = RS_ZERO
    for j, colmap in l2.items():
        if j in colmap:
            tr = tr + colmap[j]
    assert tr == rs(3 * 2 + 7 * 12)


def test_lowering_is_generator_component():
    # the operator the brackets ladder with is sqrt(2) L^(1)_{-1}, the
    # component the commutator identities check
    root2 = rs(Radical(Fraction(1), 2))
    for g in [So5Irrep(H, H), So5Irrep(1, 0), So5Irrep(1, H)]:
        ops = chain3_generator_matrices(g)
        lower = chain3_lowering(g, ops.basis)
        assert op_add(lower, op_scale(-root2, ops.L[-1])) == {}, g


def test_ml_census_matches_branching():
    for g in [So5Irrep(1, H), So5Irrep(2, 1)]:
        census = Counter()
        for (lam, mx, my) in weight_basis(g):
            census[mx.twice + 3 * my.twice] += 1
        want = Counter()
        for l, mu in _branch(g):
            for tml in range(-l.twice, l.twice + 1, 2):
                want[tml] += mu
        assert census == want


def test_brackets_top_state():
    bs = chain3_brackets(So5Irrep(1, 0))
    v = bs.vector((1, hi(3), hi(3)))
    assert [(str(lam), str(w[0]), str(w[1]), render_value(c))
            for (lam, w), c in v] == [("(0,1)", "0", "1", "sqrt(1)")]


def test_brackets_verify_clean():
    for (r, s) in [(H, 0), (H, H), (1, 0), (1, H), (1, 1), (2, 1)]:
        g = So5Irrep(r, s)
        bs = chain3_brackets(g)
        assert verify_chain3_brackets(g, bs) == []
        alphas = {a for (a, l, ml) in bs.labels()}
        if (r, s) == (2, 1):
            assert alphas == {1, 2}


def test_transform_scalar_product():
    rows = chain3_transform(solve_isoscalars(
        So5Irrep(H, H), So5Irrep(H, H), So5Irrep(0, 0)))
    assert len(rows) == 1
    r = rows[0]
    assert (r.a1, str(r.l1), r.a2, str(r.l2), r.a, str(r.l)) \
        == (1, "2", 1, "2", 1, "0")
    assert render_value(r.values[0]) == "sqrt(1)"


def test_transform_frozen_rows():
    rows = chain3_transform(solve_isoscalars(
        So5Irrep(1, 0), So5Irrep(1, H), So5Irrep(1, H)))
    got = {(r.a1, str(r.l1), r.a2, str(r.l2), r.a, str(r.l)):
           [render_value(v) for v in r.values] for r in rows}
    assert got[(1, "1", 1, "1/2", 1, "1/2")] == ["-sqrt(1/50)", "sqrt(21/50)"]
    assert got[(1, "1", 1, "5/2", 1, "5/2")] == ["-sqrt(7/30)", "sqrt(1/490)"]
    assert got[(1, "1", 1, "5/2", 1, "7/2")] == ["sqrt(0)", "sqrt(12/49)"]
    assert got[(1, "1", 1, "7/2", 1, "5/2")] == ["sqrt(0)", "-sqrt(16/49)"]


def test_transform_rows_orthonormal_per_bra():
    rows = chain3_transform(solve_isoscalars(
        So5Irrep(1, 0), So5Irrep(1, H), So5Irrep(1, H)))
    groups = {}
    for r in rows:
        groups.setdefault((r.a, r.l.twice), []).append(r)
    for key, grp in groups.items():
        for rho in (0, 1):
            n2 = RS_ZERO
            for r in grp:
                n2 = n2 + r.values[rho] * r.values[rho]
            assert n2 == rs(1), (key, rho)
        cross = RS_ZERO
        for r in grp:
            cross = cross + r.values[0] * r.values[1]
        assert cross == RS_ZERO, key
