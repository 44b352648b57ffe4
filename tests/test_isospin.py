from collections import Counter
from fractions import Fraction

from so5racah.chains import branch, casimir, weight_basis
from so5racah.exact import RS_ZERO, render_value, rs
from so5racah.halfint import HalfInt, hi
from so5racah.isospin import chain2_brackets, chain2_level, \
    chain2_lowering, chain2_mult, chain2_tmax, chain2_transform, \
    verify_chain2_brackets
from so5racah.racah import solve_isoscalars
from so5racah.so4 import So4Irrep
from so5racah.so5 import So5Irrep, so5_branch_so4

H = Fraction(1, 2)


def _branch(g):
    """(M_S, T, multiplicity) triples of g, counted by chains.branch."""
    return branch(weight_basis(g), chain2_level)


def _weight_census(g):
    """(M_S, M_T) occupation numbers straight from the SO(4) content."""
    c = Counter()
    for lam in so5_branch_so4(g):
        for (mx, my) in lam.weights():
            c[(mx + my, mx - my)] += 1
    return c


def test_tmax():
    g = So5Irrep(Fraction(7, 2), Fraction(3, 2))
    # inside the |M_S| <= R-S band T_max = R+S, outside it drops
    assert chain2_tmax(g, hi(5)) == 2
    assert chain2_tmax(g, hi(2)) == 5
    assert chain2_tmax(g, hi(3)) == 4
    assert chain2_tmax(g, hi(-3)) == 4
    g2 = So5Irrep(1, H)
    assert chain2_tmax(g2, hi(H)) == hi(Fraction(3, 2))
    assert chain2_tmax(g2, hi(Fraction(3, 2))) == hi(Fraction(1, 2))


def test_mult_formula_matches_weight_counting():
    for tr in range(0, 9):
        for ts in range(0, tr + 1):
            g = So5Irrep(HalfInt(tr), HalfInt(ts))
            census = _weight_census(g)
            ms_all = {k[0] for k in census}
            for ms in ms_all:
                tmax = chain2_tmax(g, ms)
                for t in [HalfInt(tt) for tt in range(tmax.twice + 3)
                          if (tt - tmax.twice) % 2 == 0]:
                    oracle = census.get((ms, t), 0) - census.get((ms, t + 1), 0)
                    assert chain2_mult(g, ms, t) == max(oracle, 0), (g, ms, t)
            # the counted branching lists the closed form's multiplets,
            # M_S descending and T ascending
            closed = [(ms, t, chain2_mult(g, ms, t))
                      for ms in sorted(ms_all, reverse=True)
                      for t in map(HalfInt, range((tr + ts) % 2,
                                                  chain2_tmax(g, ms).twice + 1, 2))]
            assert _branch(g) == [c for c in closed if c[2]], g


def test_branch_example():
    g = So5Irrep(Fraction(7, 2), Fraction(3, 2))
    at2 = [(str(t), mu) for ms, t, mu in _branch(g) if ms == 2]
    assert at2 == [("1", 2), ("2", 2), ("3", 2), ("4", 1), ("5", 1)]
    # branching accounts for the full dimension
    assert sum((t.twice + 1) * mu for _, t, mu in _branch(g)) == g.dim


def test_branch_dim_conservation():
    for tr in range(0, 7):
        for ts in range(0, tr + 1):
            g = So5Irrep(HalfInt(tr), HalfInt(ts))
            assert sum((t.twice + 1) * mu
                       for _, t, mu in _branch(g)) == g.dim


def test_t2_matrix_frozen():
    # T.T over the two (XY) labels of (1,1/2) at weight (1/2,0)
    g = So5Irrep(1, H)
    basis = weight_basis(g)
    t2 = casimir(basis, chain2_level, chain2_lowering(g, basis))
    at = [k for k, (_, mx, my) in enumerate(basis) if (mx, my) == (hi(H), hi(0))]
    m = [[t2.get(j, {}).get(i, RS_ZERO) for j in at] for i in at]
    assert [[str(x) for x in row] for row in m] == [
        ["sqrt(169/16)", "sqrt(5/4)"],
        ["sqrt(5/4)", "sqrt(25/16)"]]
    # trace and determinant fix the eigenvalues 15/4 and 3/4,
    # i.e. T(T+1) for T = 3/2 and 1/2
    tr = m[0][0] + m[1][1]
    det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    assert tr == rs(Fraction(9, 2))
    assert det == rs(Fraction(45, 16))


def test_brackets_fundamental_spinor():
    bs = chain2_brackets(So5Irrep(H, 0))
    assert set(bs.labels()) == {
        (hi(H), 1, hi(H), hi(H)), (hi(H), 1, hi(H), hi(-H)),
        (hi(-H), 1, hi(H), hi(H)), (hi(-H), 1, hi(H), hi(-H))}
    # M_S = 1/2 doublet: |T=1/2 MT=1/2> is the (1/2,0) state at (1/2,0)
    terms = bs.vector((hi(H), 1, hi(H), hi(H)))
    assert len(terms) == 1
    (lam, w), c = terms[0]
    assert str(lam) == "(1/2,0)" and c == rs(1)


def test_brackets_sixteen_dim_frozen():
    # the three highest-M_S=1/2 chain vectors of (1,1/2)
    bs = chain2_brackets(So5Irrep(1, H))
    th = Fraction(3, 2)

    v = bs.vector((hi(H), 1, hi(th), hi(th)))
    assert [(str(lam), str(w[0]), str(w[1]), render_value(c))
            for (lam, w), c in v] == [("(1,1/2)", "1", "-1/2", "sqrt(1)")]

    v = bs.vector((hi(H), 1, hi(th), hi(H)))
    assert [(str(lam), render_value(c)) for (lam, _), c in v] == [
        ("(1/2,0)", "sqrt(5/6)"), ("(1/2,1)", "sqrt(1/6)")]

    v = bs.vector((hi(H), 1, hi(H), hi(H)))
    assert [(str(lam), render_value(c)) for (lam, _), c in v] == [
        ("(1/2,0)", "sqrt(1/6)"), ("(1/2,1)", "-sqrt(5/6)")]


def test_brackets_verify_clean():
    for (r, s) in [(H, 0), (H, H), (1, 0), (1, H), (1, 1),
                   (Fraction(3, 2), H), (2, 1)]:
        g = So5Irrep(r, s)
        assert verify_chain2_brackets(g, chain2_brackets(g)) == []


def _table(g1, g2, g):
    return chain2_transform(solve_isoscalars(g1, g2, g))


def test_transform_simplest_nontrivial():
    rows = _table(So5Irrep(H, H), So5Irrep(H, 0), So5Irrep(H, 0))
    got = {}
    for r in rows:
        key = (str(r.ms1), str(r.ms2), str(r.ms), str(r.t1), str(r.t2), str(r.t))
        got[key] = render_value(r.values[0])
    # the (1/2,1/2) x (1/2,0) -> (1/2,0) coupling reduced to the
    # isospin chain; the 5-dim irrep carries (M_S, T) in
    # {(1,0), (0,1), (0,0), (-1,0)} and identically-zero rows are
    # dropped, so four rows survive, unit-normalized per bra
    assert got == {
        ("1", "-1/2", "1/2", "0", "1/2", "1/2"): "sqrt(2/5)",
        ("0", "1/2", "1/2", "1", "1/2", "1/2"): "-sqrt(3/5)",
        ("0", "-1/2", "-1/2", "1", "1/2", "1/2"): "sqrt(3/5)",
        ("-1", "1/2", "-1/2", "0", "1/2", "1/2"): "sqrt(2/5)",
    }


def test_transform_table_ms_negation_symmetry():
    rows = _table(So5Irrep(1, 0), So5Irrep(1, H), So5Irrep(1, H))
    vals = {}
    for r in rows:
        key = (r.ms1.twice, r.ms2.twice, r.t1.twice, r.t2.twice, r.t.twice)
        vals[key] = [render_value(v) for v in r.values]
    assert len(vals) == 32
    for (tms1, tms2, tt1, tt2, tt), v in vals.items():
        mirror = vals[(-tms1, -tms2, tt1, tt2, tt)]
        assert [s.lstrip("-") for s in v] == [s.lstrip("-") for s in mirror]


def test_transform_rows_cover_all_couplings():
    g1, g2, g = So5Irrep(H, H), So5Irrep(H, H), So5Irrep(1, 1)
    rows = _table(g1, g2, g)
    b1 = {(ms.twice, t.twice, k) for ms, t, k in
          [(ms, t, k) for ms, t, mu in _branch(g1)
           for k in range(1, mu + 1)]}
    seen1 = {(r.ms1.twice, r.t1.twice, r.k1) for r in rows}
    assert seen1 <= b1
    # every bra label of the product irrep shows up
    bg = {(ms.twice, t.twice) for ms, t, mu in _branch(g)}
    assert {(r.ms.twice, r.t.twice) for r in rows} == bg
