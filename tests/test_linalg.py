import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from so5racah.errors import DegenerateForm, InternalInconsistency, NotFactorable
from so5racah.exact import RS_ONE, RS_ZERO, Radical, canonicalize, root_of_rational, rs
from so5racah.halfint import HalfInt
from so5racah import linalg
from so5racah.linalg import (ExactMatrix, _factor, _rref_exact, _rref_mod,
                             gram_schmidt, vec_dot)
from so5racah.racah import build_system
from so5racah.so5 import So5Irrep, so5_kronecker

try:
    import sympy
except ImportError:
    sympy = None

needs_sympy = pytest.mark.skipif(sympy is None, reason="sympy is not installed")


def F(a, b=1):
    return rs(Fraction(a, b))


def _sparse(rows):
    """Sparse rows {column: Radical} of a dense matrix of single-radical
    (or int) entries."""
    out = []
    for row in rows:
        ent = {}
        for j, x in enumerate(row):
            if not rs(x).is_zero():
                ent[j] = rs(x)
        out.append(ent)
    return out


def _matrix(rows):
    return ExactMatrix(_sparse(rows), len(rows[0]))


def _dense(m):
    """Dense Radical rows of a sparse matrix."""
    out = []
    for row in m.entries:
        dense = [RS_ZERO] * m.ncols
        for j, x in row.items():
            dense[j] = x
        out.append(dense)
    return out


def test_shapes_and_validation():
    m = _matrix([[1, 2], [3, 4]])
    assert (m.nrows, m.ncols) == (2, 2)
    empty = ExactMatrix([], 3)
    assert empty.ncols == 3 and empty.rank() == 0
    assert len(empty.nullspace()) == 3


def test_rref_canonical():
    m = _matrix([[2, 4, 6], [1, 2, 4]])
    red, pivots = m.rref()
    assert pivots == [0, 2]
    assert [{j: str(x) for j, x in r.items()} for r in red] == [
        {0: "sqrt(1)", 1: "sqrt(4)"},
        {2: "sqrt(1)"}]


def test_rref_with_radicals():
    # rows proportional through sqrt(2): rank 1
    m = _matrix([[rs(Radical(Fraction(1), 2)), F(2)],
                 [F(2), rs(Radical(Fraction(2), 2))]])
    assert m.rank() == 1


def test_nullspace_planted():
    # rows orthogonal to (1, 2, 3)
    rows = [[3, 0, -1], [0, 3, -2], [3, 3, -3]]
    m = _matrix(rows)
    ns = m.nullspace()
    assert len(ns) == 1
    v = ns[0]
    assert v[2] == RS_ONE  # unit at the (single) free column
    assert [x * 3 for x in v] == [F(1), F(2), F(3)]
    for row in rows:
        assert vec_dot([rs(x) for x in row], v).is_zero()
    assert all(x.is_zero() for x in m.matvec(v))


def test_nullspace_free_columns_descending():
    # one pivot (column 0), free columns 1 and 2; the first basis
    # vector must carry its unit at the highest free column
    m = _matrix([[1, 1, 1]])
    ns = m.nullspace()
    assert len(ns) == 2
    assert ns[0][2] == RS_ONE and ns[0][1].is_zero()
    assert ns[1][1] == RS_ONE and ns[1][2].is_zero()


def _random_factored(rng, nr, nc):
    """Random diag(sqrt a) Q diag(sqrt b): Q rational with about half its
    entries zero, a_i and b_j squarefree."""
    a = [rng.choice([1, 2, 3, 5]) for _ in range(nr)]
    b = [rng.choice([1, 2, 3, 5]) for _ in range(nc)]
    return [[rs(canonicalize(rng.randint(0, 1) * rng.randint(-3, 3), a[i] * b[j]))
             for j in range(nc)] for i in range(nr)]


def test_rank_matches_numpy_svd():
    rng = random.Random(7)
    for trial in range(25):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = _random_factored(rng, nr, nc)
        m = _matrix(rows)
        a = np.array([[float(x.decimal(25)) for x in r] for r in rows])
        num_rank = np.linalg.matrix_rank(a, tol=1e-8)
        assert m.rank() == num_rank
        assert len(m.nullspace()) == nc - m.rank()


def test_nullspace_annihilates_and_is_deterministic():
    rng = random.Random(11)
    for trial in range(15):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        rows = _random_factored(rng, nr, nc)
        m1 = _matrix(rows)
        m2 = _matrix(rows)
        b1 = m1.nullspace()
        b2 = m2.nullspace()
        assert b1 == b2
        for v in b1:
            assert all(x.is_zero() for x in m1.matvec(v))


@pytest.fixture(scope="module")
def racah_systems():
    """The Racah systems of the 109 couplings with R1,R2 <= 1."""
    irreps = [So5Irrep(HalfInt(tr), HalfInt(ts))
              for tr in range(3) for ts in range(tr + 1)]
    return [(g1, g2, g, build_system(g1, g2, g))
            for g1 in irreps for g2 in irreps for g in so5_kronecker(g1, g2)]


def test_rank_matches_numpy_on_racah_systems(racah_systems):
    assert len(racah_systems) == 109
    for g1, g2, g, s in racah_systems:
        m = s.matrix
        a = np.array([[float(x.decimal(25)) for x in r] for r in _dense(m)])
        assert m.rank() == np.linalg.matrix_rank(a), (g1, g2, g)


def test_racah_systems_are_sparse_single_radicals(racah_systems):
    # every stored entry is a nonzero Radical, and the sparse matvec
    # agrees with dense dot products on the null space and on a random
    # vector, rational times sqrt(b_j) at column j of class b_j, so that
    # each row's products share one class
    rng = random.Random(5)
    hit = 0
    for g1, g2, g, s in racah_systems:
        m = s.matrix
        for row in m.entries:
            assert row and all(isinstance(x, Radical) and not x.is_zero()
                               for x in row.values()), (g1, g2, g)
            assert all(0 <= j < m.ncols for j in row)
        dense = _dense(m)
        rand = [canonicalize(rng.randint(-3, 3), b)
                for b in _factor(m.entries, m.ncols)[1]]
        for v in m.nullspace() + [rand]:
            assert m.matvec(v) == [vec_dot(row, v) for row in dense], (g1, g2, g)
        hit += any(not x.is_zero() for x in m.matvec(rand))
    # the random vector is a real check: it leaves residuals
    assert hit == sum(1 for *_, s in racah_systems if s.matrix.nrows)


def _sympy_rref(q, ncols):
    """sympy's RREF of sparse integer rows: (dense Fraction rows, pivots)."""
    dense = sympy.zeros(len(q), ncols)
    for i, row in enumerate(q):
        for j, x in row.items():
            dense[i, j] = x
    red, pivots = dense.rref()
    return ([[Fraction(int(x.p), int(x.q)) for x in red.row(i)]
             for i in range(len(pivots))], list(pivots))


@needs_sympy
def test_rref_matches_sympy_on_racah_systems(racah_systems):
    # every system of the 109 couplings and, for each augmented one,
    # the matrix before augmentation, whose rank decides that rows are
    # added
    mats = []
    for g1, g2, g, s in racah_systems:
        m = s.matrix
        mats.append((m.entries, m.ncols))
        if s.n_augmented:
            mats.append((m.entries[:m.nrows - s.n_augmented], m.ncols))
    assert len(mats) == 109 + 5
    for entries, ncols in mats:
        q, _ = _factor(entries, ncols)
        want_rows, want_pivots = _sympy_rref(q, ncols)
        rows, pivots = _rref_exact(q, ncols)
        assert pivots == want_pivots
        assert [[row.get(c, 0) for c in range(ncols)] for row in rows] == want_rows
        assert ExactMatrix(entries, ncols).rref()[1] == want_pivots


_SPARSE_INT = st.sampled_from([0, 0, 0, 1, -1, 2, -3, 7])


@st.composite
def _planted(draw):
    """(rank bound r, squarefree row and column scales, integer rows of
    A B with A nr x r and B r x nc sparse)."""
    nr = draw(st.integers(1, 7))
    nc = draw(st.integers(1, 7))
    r = draw(st.integers(0, min(nr, nc)))
    a = [[draw(_SPARSE_INT) for _ in range(r)] for _ in range(nr)]
    b = [[draw(_SPARSE_INT) for _ in range(nc)] for _ in range(r)]
    rows = [[sum(a[i][k] * b[k][j] for k in range(r)) for j in range(nc)]
            for i in range(nr)]
    ra = [draw(st.sampled_from([1, 2, 3, 6])) for _ in range(nr)]
    rb = [draw(st.sampled_from([1, 2, 5, 6])) for _ in range(nc)]
    return r, ra, rb, rows


@needs_sympy
@settings(max_examples=150, deadline=None)
@given(_planted())
def test_rref_matches_sympy_on_planted_rank(case):
    # M = diag(sqrt ra) Q diag(sqrt rb) with Q of rank at most r; row i
    # of RREF(M) is row i of RREF(Q) times sqrt(rb_f / rb_p)
    r, ra, rb, rows = case
    nc = len(rows[0])
    m = ExactMatrix([{j: canonicalize(x, ra[i] * rb[j])
                      for j, x in enumerate(row) if x}
                     for i, row in enumerate(rows)], nc)
    want_rows, want_pivots = _sympy_rref([dict(enumerate(row)) for row in rows], nc)
    red, pivots = m.rref()
    assert pivots == want_pivots and len(pivots) <= r
    for row, p, dense in zip(red, pivots, want_rows):
        assert row == {f: root_of_rational(x, Fraction(rb[f], rb[p]))
                       for f, x in enumerate(dense) if x}


def test_rref_rejects_an_unlucky_prime(monkeypatch):
    # 2^61 - 1 is the first modulus: mod it row 0 vanishes and the rank
    # drops to 1, so the certificate must reject that prime
    p = 2**61 - 1
    q = [{0: p}, {1: 1}]
    assert _rref_mod(q, 2, p)[1] == [1]
    assert _rref_exact(q, 2) == ([{0: 1}, {1: 1}], [0, 1])
    red, pivots = _matrix([[p, 0], [0, 1]]).rref()
    assert pivots == [0, 1]
    assert red == [{0: Radical(1, 1)}, {1: Radical(1, 1)}]
    monkeypatch.setattr(linalg, "_PRIMES", (p,))
    with pytest.raises(InternalInconsistency):
        _rref_exact(q, 2)


def test_rref_combines_primes_for_a_large_entry(monkeypatch):
    # the RREF entry 2^41 / 3^40 exceeds the reconstruction bound of one
    # 61-bit prime (|n|, d <= 2^30) and of two (d <= 2^61): it takes the
    # residues of three primes, combined by CRT
    q = [{0: 3**40, 1: 2**41}]
    assert _rref_exact(q, 2) == ([{0: 1, 1: Fraction(2**41, 3**40)}], [0])
    red, pivots = _matrix([[3**40, 2**41]]).rref()
    assert pivots == [0]
    assert red == [{0: Radical(1, 1), 1: Radical(Fraction(2**41, 3**40), 1)}]
    primes = linalg._PRIMES
    for n in (1, 2):
        monkeypatch.setattr(linalg, "_PRIMES", primes[:n])
        with pytest.raises(InternalInconsistency):
            _rref_exact(q, 2)


def test_rref_skips_a_prime_of_lower_rank():
    # mod the second prime, 2^62 - 57, row 1 vanishes: that prime has
    # lower rank and is skipped, and the first, third and fourth combine
    p = 2**62 - 57
    q = [{0: 3**40, 1: 2**41}, {2: p}]
    assert _rref_mod(q, 3, p)[1] == [0]
    assert _rref_exact(q, 3) == ([{0: 1, 1: Fraction(2**41, 3**40)}, {2: 1}],
                                 [0, 2])


def test_rref_out_of_primes_is_an_internal_inconsistency():
    # 2^200 / 3^200 needs more residue bits than every prime together
    # gives; there is no other solver to fall back to
    with pytest.raises(InternalInconsistency):
        _matrix([[3**200, 2**200]]).rank()


def test_not_factorable():
    root2 = rs(Radical(Fraction(1), 2))
    # row 0 puts columns 0 and 1 in classes a factor sqrt(2) apart, row 1
    # in the same class
    with pytest.raises(NotFactorable):
        _matrix([[root2, F(1)], [F(1), F(1)]]).rank()


def test_gram_schmidt_plain():
    vecs = [[F(1), F(1), F(0)], [F(1), F(0), F(0)]]
    out = gram_schmidt(vecs, range(3))
    assert vec_dot(out[0], out[1]).is_zero()
    for v in out:
        assert vec_dot(v, v) == RS_ONE
    # first output is a positive multiple of the first input
    assert str(out[0][0]) == "sqrt(1/2)"


def test_gram_schmidt_on_positions():
    # the dot product sums over positions 0 and 2; position 1 is carried
    # along with the span
    idxs = [0, 2]
    out = gram_schmidt([[F(1), F(5), F(1)], [F(0), F(7), F(1)]], idxs)
    assert vec_dot(out[0], out[1], idxs).is_zero()
    assert vec_dot(out[0], out[0], idxs) == vec_dot(out[1], out[1], idxs) == RS_ONE
    assert [str(x) for x in out[1]] == ["-sqrt(1/2)", "sqrt(81/2)", "sqrt(1/2)"]


def test_gram_schmidt_degenerate():
    with pytest.raises(DegenerateForm):
        gram_schmidt([[F(1), F(1)], [F(2), F(2)]], range(2))
    # nonzero, but zero on every position of the dot product
    with pytest.raises(DegenerateForm):
        gram_schmidt([[F(0), F(1)]], [0])


def test_gram_schmidt_mixed_classes_not_factorable():
    # a squared norm sums squares of radicals, so it is rational, but the
    # overlap of (1, 1)/sqrt(2) with (1, sqrt(2)) is sqrt(1/2) + 1
    with pytest.raises(NotFactorable, match="radical classes"):
        gram_schmidt([[F(1), F(1)], [F(1), rs(Radical(1, 2))]], range(2))
