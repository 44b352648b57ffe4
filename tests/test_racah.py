import time
from fractions import Fraction

import pytest

from so5racah import racah
from so5racah.errors import InternalInconsistency, NormInconsistency, \
    NotInSeries, RankDefect
from so5racah.exact import RS_ZERO, parse_value, render_value, rs
from so5racah.halfint import HalfInt, hi
from so5racah.linalg import vec_dot
from so5racah.racah import CONVENTIONS, IsoscalarBlock, build_system, \
    enumerate_columns, outer_multiplicity, solve_isoscalars, verify_block, \
    verify_series
from so5racah.so4 import So4Irrep, so4_cg, so4_kronecker
from so5racah.so5 import So5Irrep, so5_branch_so4, so5_kronecker

H = Fraction(1, 2)


def _vals(block, rho=1):
    return [render_value(v) for v in block.vectors[rho - 1]]


def test_outer_multiplicity():
    assert outer_multiplicity(So5Irrep(H, 0), So5Irrep(H, 0), So5Irrep(1, 0)) == 1
    assert outer_multiplicity(So5Irrep(1, 0), So5Irrep(1, H), So5Irrep(1, H)) == 2
    assert outer_multiplicity(So5Irrep(H, 0), So5Irrep(H, 0), So5Irrep(1, 1)) == 0



def test_block_value_checks_rho_before_the_column():
    # rho counts the D channels from 1; rho = 0 or a negative rho must not
    # index the vectors from the end, and an absent column must not hide it
    blk = solve_isoscalars(So5Irrep(1, 0), So5Irrep(1, H), So5Irrep(1, H))
    assert blk.D == 2
    col, absent = blk.columns[0], (So4Irrep(5, 5),) * 3
    assert blk.value(*col) == blk.vectors[0][0]
    assert blk.value(*col, rho=2) == blk.vectors[1][0]
    assert blk.value(*absent, rho=2) == RS_ZERO
    for rho in (0, -1, 3):
        for lams in (col, absent):
            with pytest.raises(IndexError, match="outside 1..2"):
                blk.value(*lams, rho=rho)
def test_columns_in_series_order():
    cols = enumerate_columns(So5Irrep(H, H), So5Irrep(H, 0), So5Irrep(H, 0))
    assert [tuple(str(x) for x in c) for c in cols] == [
        ("(0,0)", "(0,1/2)", "(0,1/2)"),
        ("(1/2,1/2)", "(1/2,0)", "(0,1/2)"),
        ("(0,0)", "(1/2,0)", "(1/2,0)"),
        ("(1/2,1/2)", "(0,1/2)", "(1/2,0)"),
    ]
    with pytest.raises(NotInSeries):
        build_system(So5Irrep(H, 0), So5Irrep(H, 0), So5Irrep(1, 1))


def test_vector_coupling_block():
    # the 4x4 system with a one-dimensional null space
    sys_ = build_system(So5Irrep(H, H), So5Irrep(H, 0), So5Irrep(H, 0))
    assert sys_.matrix.nrows == 4
    assert sys_.matrix.ncols == 4
    assert sys_.matrix.rank() == 3
    blk = solve_isoscalars(So5Irrep(H, H), So5Irrep(H, 0), So5Irrep(H, 0))
    assert _vals(blk) == ["-sqrt(1/5)", "-sqrt(4/5)", "sqrt(1/5)", "sqrt(4/5)"]
    assert verify_block(blk, sys_) == []


def test_identity_coupling():
    g = So5Irrep(1, H)
    blk = solve_isoscalars(g, So5Irrep(0, 0), g)
    assert blk.D == 1
    for (lam1, lam2, lam), v in zip(blk.columns, blk.vectors[0]):
        assert lam1 == lam and str(lam2) == "(0,0)"
        assert v == rs(1)


def test_exceptional_coupling_needs_augmentation():
    # the outside rows are appended exactly for g x g -> (0,0) with
    # g != (0,0), whose one product label (0,0) has no normal rows
    scalar = So5Irrep(0, 0)
    labels = [So5Irrep(Fraction(tr, 2), Fraction(ts, 2))
              for tr in range(3) for ts in range(tr + 1)]
    for a in labels:
        for b in labels:
            for g in so5_kronecker(a, b):
                assert (build_system(a, b, g).n_augmented > 0) == \
                    (g == scalar and a != scalar), (a, b, g)
    g1 = So5Irrep(H, 0)
    sys_ = build_system(g1, g1, scalar)
    blk = solve_isoscalars(g1, g1, scalar)
    assert _vals(blk) == ["sqrt(1/2)", "sqrt(1/2)"]
    assert verify_block(blk, sys_) == []


def test_rank_defect_when_outside_rows_do_not_close(monkeypatch):
    # without the known-zero rows of the outside labels the exceptional
    # coupling keeps a nullity above D
    relations = racah._relations

    def inside_only(g1, g2, g, colindex, lams):
        inside = set(so5_branch_so4(g))
        return relations(g1, g2, g, colindex, [l for l in lams if l in inside])

    monkeypatch.setattr(racah, "_relations", inside_only)
    g1 = So5Irrep(H, 0)
    with pytest.raises(RankDefect, match="rank 0, want 1"):
        build_system(g1, g1, So5Irrep(0, 0))


def test_rows_without_the_interchange_phase_fail_the_rank_check(monkeypatch):
    # the Racah rows take the interchange phase of the g1 term from
    # su2._phi_t on the doubled labels; with every phase planted as 1,
    # 40 of the 109 couplings with R1,R2 <= 1 leave a nullity other than
    # D, and build_system must report each of them as a RankDefect
    monkeypatch.setattr(racah, "_phi_t", lambda *twice: 1)
    irreps = [So5Irrep(HalfInt(tr), HalfInt(ts)) for tr in range(3) for ts in range(tr + 1)]
    failed = total = 0
    for g1 in irreps:
        for g2 in irreps:
            for g in so5_kronecker(g1, g2):
                total += 1
                try:
                    solve_isoscalars(g1, g2, g)
                except RankDefect:
                    failed += 1
    assert (failed, total) == (40, 109)


def test_multiplicity_two_block():
    g1, g2, g = So5Irrep(1, 0), So5Irrep(1, H), So5Irrep(1, H)
    sys_ = build_system(g1, g2, g)
    assert sys_.matrix.ncols == 18
    assert sys_.matrix.rank() == 16
    blk = solve_isoscalars(g1, g2, g)
    assert blk.D == 2
    assert not blk.meta["sign_fallback"]
    m = blk.meta["m_matrix"]
    assert [[str(x) for x in row] for row in m] == [
        ["sqrt(225/64)", "sqrt(45/32)"],
        ["sqrt(45/32)", "sqrt(961/16)"]]
    assert verify_block(blk, sys_) == []


def test_value_lookup():
    blk = solve_isoscalars(So5Irrep(H, H), So5Irrep(H, 0), So5Irrep(H, 0))
    v = blk.value(So4Irrep(0, 0), So4Irrep(H, 0), So4Irrep(H, 0))
    assert render_value(v) == "sqrt(1/5)"
    # off-column lookups are zero, not errors
    assert blk.value(So4Irrep(1, 1), So4Irrep(H, 0), So4Irrep(H, 0)) == RS_ZERO


def test_first_value_sign_convention():
    # scan order: highest weight(L1), then weight(L), then weight(L2);
    # the first nonzero coefficient of rho=1 there is positive
    for (a, b, c) in [((H, 0), (H, H), (H, 0)), ((1, 0), (1, 0), (1, 1)),
                      ((1, H), (H, H), (1, H)), ((1, 0), (1, H), (1, H))]:
        blk = solve_isoscalars(So5Irrep(*a), So5Irrep(*b), So5Irrep(*c))
        best = None
        for i, (l1, l2, l) in enumerate(blk.columns):
            if blk.vectors[0][i].is_zero():
                continue
            key = (l1.weight_key(), l.weight_key(), l2.weight_key())
            if best is None or key > best[0]:
                best = (key, i)
        lead = blk.vectors[0][best[1]]
        assert render_value(lead)[0] != "-"


def test_verify_series_clean():
    for (a, b) in [((H, 0), (H, 0)), ((H, H), (H, H)), ((H, H), (1, 0)),
                   ((1, 0), (1, H))]:
        assert verify_series(So5Irrep(*a), So5Irrep(*b)) == []


# fault injection: g1 x g2 holds (1/2,0) once and (1,1/2) twice
G1, G2 = So5Irrep(1, 0), So5Irrep(1, H)


def _with_vectors(blk, vectors):
    return IsoscalarBlock(blk.g1, blk.g2, blk.g, blk.columns, vectors, blk.meta)


def test_label_groups_must_share_one_norm(monkeypatch):
    # a null vector whose (1/2,0) group is doubled has four times the
    # norm there that it has in the (0,1/2) group
    g = So5Irrep(H, 0)
    system = build_system(G1, G2, g)
    (v,) = system.matrix.nullspace()
    doubled = [x * 2 if c[2] == So4Irrep(H, 0) else x
               for x, c in zip(v, system.columns)]
    monkeypatch.setattr(system.matrix, "nullspace", lambda: [doubled])
    with pytest.raises(NormInconsistency, match="M differs between groups"):
        solve_isoscalars(G1, G2, g, system=system)


def test_all_zero_solution_vector_is_an_internal_inconsistency(monkeypatch):
    monkeypatch.setattr(racah, "gram_schmidt",
                        lambda vectors, idxs: [[RS_ZERO] * len(v) for v in vectors])
    with pytest.raises(InternalInconsistency, match="all-zero solution vector"):
        solve_isoscalars(G1, G2, So5Irrep(H, 0))


def test_verify_block_reports_a_row_not_annihilated():
    g = So5Irrep(1, H)
    system = build_system(G1, G2, g)
    blk = solve_isoscalars(G1, G2, g, system=system)
    vectors = [list(v) for v in blk.vectors]
    i = next(i for i, x in enumerate(vectors[0]) if not x.is_zero())
    vectors[0][i] = vectors[0][i] * 2
    fails = verify_block(_with_vectors(blk, vectors), system)
    assert any(f.endswith("does not annihilate rho=1") for f in fails)
    assert not any(f.endswith("does not annihilate rho=2") for f in fails)
    # labels are written the way every other verify message writes them
    assert fails[0] == ("row 0 (labels (0,1), (0,1/2), (0,1/2), (1/2,0)) "
                        "does not annihilate rho=1")


def test_verify_series_reports_each_check():
    blocks = {g: solve_isoscalars(G1, G2, g) for g in so5_kronecker(G1, G2)}
    g = So5Irrep(1, H)
    blk = blocks[g]
    dropped = verify_series(G1, G2, {**blocks, g: _with_vectors(blk, blk.vectors[:1])})
    assert "multiplicity mismatch at (1,1/2): 1 vs 2" in dropped
    assert "ket-sum at (0,1/2): 3 rows for 4 pairs" in dropped
    doubled = [[x * 2 for x in blk.vectors[0]], blk.vectors[1]]
    fails = verify_series(G1, G2, {**blocks, g: _with_vectors(blk, doubled)})
    assert "ket-sum at (0,1/2): columns 0,0 give sqrt(64/25)" in fails
    assert not any("mismatch" in f or "rows for" in f for f in fails)


def test_verify_series_counts_the_pairs_of_an_empty_block():
    # a block with no vectors still brings its pairs into each ket-sum,
    # so the rows fall short at every one of its product labels
    blocks = {g: solve_isoscalars(G1, G2, g) for g in so5_kronecker(G1, G2)}
    expected = {
        (H, 0): ["multiplicity mismatch at (1/2,0): 0 vs 1",
                 "ket-sum at (0,1/2): 3 rows for 4 pairs",
                 "ket-sum at (1/2,0): 3 rows for 4 pairs"],
        (1, H): ["multiplicity mismatch at (1,1/2): 0 vs 2",
                 "ket-sum at (0,1/2): 2 rows for 4 pairs",
                 "ket-sum at (1/2,0): 2 rows for 4 pairs",
                 "ket-sum at (1/2,1): 3 rows for 5 pairs",
                 "ket-sum at (1,1/2): 3 rows for 5 pairs"],
        (Fraction(3, 2), 0): ["multiplicity mismatch at (3/2,0): 0 vs 1",
                              "ket-sum at (0,3/2): 1 rows for 2 pairs",
                              "ket-sum at (1/2,1): 4 rows for 5 pairs",
                              "ket-sum at (1,1/2): 4 rows for 5 pairs",
                              "ket-sum at (3/2,0): 1 rows for 2 pairs"],
        (Fraction(3, 2), 1): ["multiplicity mismatch at (3/2,1): 0 vs 1",
                              "ket-sum at (0,1/2): 3 rows for 4 pairs",
                              "ket-sum at (1/2,0): 3 rows for 4 pairs",
                              "ket-sum at (1/2,1): 4 rows for 5 pairs",
                              "ket-sum at (1,1/2): 4 rows for 5 pairs",
                              "ket-sum at (1,3/2): 1 rows for 2 pairs",
                              "ket-sum at (3/2,1): 1 rows for 2 pairs"],
        (2, H): ["multiplicity mismatch at (2,1/2): 0 vs 1",
                 "ket-sum at (0,3/2): 1 rows for 2 pairs",
                 "ket-sum at (1/2,1): 4 rows for 5 pairs",
                 "ket-sum at (1/2,2): 0 rows for 1 pairs",
                 "ket-sum at (1,1/2): 4 rows for 5 pairs",
                 "ket-sum at (1,3/2): 1 rows for 2 pairs",
                 "ket-sum at (3/2,0): 1 rows for 2 pairs",
                 "ket-sum at (3/2,1): 1 rows for 2 pairs",
                 "ket-sum at (2,1/2): 0 rows for 1 pairs"],
    }
    assert sorted(blocks) == sorted(So5Irrep(*g) for g in expected)
    for g, fails in expected.items():
        g = So5Irrep(*g)
        empty = _with_vectors(blocks[g], [])
        assert verify_series(G1, G2, {**blocks, g: empty}) == fails


def test_conventions_are_stamped():
    blk = solve_isoscalars(So5Irrep(H, 0), So5Irrep(H, 0), So5Irrep(1, 0))
    for k in CONVENTIONS:
        assert blk.meta[k] == CONVENTIONS[k]


def test_unreduced_expansion_is_unitary():
    # assemble the full product-space coupling matrix for a small pair
    # and check orthonormality state by state
    g1, g2 = So5Irrep(H, 0), So5Irrep(H, H)
    blocks = []
    for g, mult in so5_kronecker(g1, g2).items():
        blk = solve_isoscalars(g1, g2, g)
        for rho in range(1, mult + 1):
            blocks.append((g, rho, blk))
    rows = []
    states1 = [(l, w) for l in so5_branch_so4(g1) for w in l.weights()]
    states2 = [(l, w) for l in so5_branch_so4(g2) for w in l.weights()]
    cols = [(s1, s2) for s1 in states1 for s2 in states2]
    for g, rho, blk in blocks:
        for lam in so5_branch_so4(g):
            for w in lam.weights():
                row = []
                for (l1, w1), (l2, w2) in cols:
                    c = RS_ZERO
                    if (w1[0] + w2[0], w1[1] + w2[1]) == w:
                        iso = blk.value(l1, l2, lam, rho)
                        if not iso.is_zero():
                            c = iso * so4_cg(l1, w1, l2, w2, lam, w)
                    row.append(c)
                rows.append(row)
    n = len(cols)
    assert len(rows) == n
    for i in range(n):
        for j in range(i, n):
            got = vec_dot(rows[i], rows[j])
            assert got == (rs(1) if i == j else RS_ZERO)


def test_small_blocks_are_fast():
    t0 = time.time()
    build_system(So5Irrep(H, H), So5Irrep(H, 0), So5Irrep(H, 0))
    assert time.time() - t0 < 1.0
