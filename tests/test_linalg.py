import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from so5racah.errors import DegenerateForm, NotFactorable
from so5racah.exact import RS_ONE, RS_ZERO, Radical, RadicalSum, canonicalize, rs
from so5racah.halfint import HalfInt
from so5racah.linalg import ExactMatrix, form_dot, gram_schmidt, vec_dot
from so5racah.racah import build_system
from so5racah.so5 import So5Irrep, so5_kronecker


def F(a, b=1):
    return rs(Fraction(a, b))


def _sparse(rows):
    """Sparse rows {column: Radical} of a dense matrix of single-radical
    (or int) entries."""
    out = []
    for row in rows:
        ent = {}
        for j, x in enumerate(row):
            for r, c in rs(x).terms.items():
                assert j not in ent, "entry is a sum"
                ent[j] = Radical(c, r)
        out.append(ent)
    return out


def _matrix(rows):
    return ExactMatrix(_sparse(rows), len(rows[0]))


def _dense(m):
    """Dense RadicalSum rows of a sparse matrix."""
    out = []
    for row in m.entries:
        dense = [RS_ZERO] * m.ncols
        for j, x in row.items():
            dense[j] = x.as_sum()
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
    return [(g1, g2, g, build_system(g1, g2, g).matrix)
            for g1 in irreps for g2 in irreps for g in so5_kronecker(g1, g2)]


def test_rank_matches_numpy_on_racah_systems(racah_systems):
    assert len(racah_systems) == 109
    for g1, g2, g, m in racah_systems:
        a = np.array([[float(x.decimal(25)) for x in r] for r in _dense(m)])
        assert m.rank() == np.linalg.matrix_rank(a), (g1, g2, g)


def test_racah_systems_are_sparse_single_radicals(racah_systems):
    # every stored entry is a nonzero Radical, and the sparse matvec
    # agrees with dense dot products on the null space and on a random
    # vector of radical sums
    rng = random.Random(5)
    hit = 0
    for g1, g2, g, m in racah_systems:
        for row in m.entries:
            assert row and all(isinstance(x, Radical) and not x.is_zero()
                               for x in row.values()), (g1, g2, g)
            assert all(0 <= j < m.ncols for j in row)
        dense = _dense(m)
        rand = [RadicalSum.of(*(canonicalize(rng.randint(-3, 3), rng.choice([1, 2, 3, 6]))
                                for _ in range(2)))
                for _ in range(m.ncols)]
        for v in m.nullspace() + [rand]:
            assert m.matvec(v) == [vec_dot(row, v) for row in dense], (g1, g2, g)
        hit += any(not x.is_zero() for x in m.matvec(rand))
    # the random vector is a real check: it leaves residuals
    assert hit == sum(1 for *_, m in racah_systems if m.nrows)


def test_not_factorable():
    root2 = rs(Radical(Fraction(1), 2))
    # row 0 puts columns 0 and 1 in classes a factor sqrt(2) apart, row 1
    # in the same class
    with pytest.raises(NotFactorable):
        _matrix([[root2, F(1)], [F(1), F(1)]]).rank()


def test_gram_schmidt_plain():
    vecs = [[F(1), F(1), F(0)], [F(1), F(0), F(0)]]
    out = gram_schmidt(vecs)
    assert vec_dot(out[0], out[1]).is_zero()
    for v in out:
        assert vec_dot(v, v) == RS_ONE
    # first output is a positive multiple of the first input
    assert str(out[0][0]) == "sqrt(1/2)"


def test_gram_schmidt_with_form():
    form = [[F(2), F(0)], [F(0), F(3)]]
    out = gram_schmidt([[F(1), F(1)], [F(0), F(1)]], form)
    assert form_dot(out[0], out[1], form).is_zero()
    assert form_dot(out[0], out[0], form) == RS_ONE
    assert form_dot(out[1], out[1], form) == RS_ONE


def test_gram_schmidt_degenerate():
    with pytest.raises(DegenerateForm):
        gram_schmidt([[F(1), F(1)], [F(2), F(2)]])
    indef = [[F(1), F(0)], [F(0), F(-1)]]
    with pytest.raises(DegenerateForm):
        gram_schmidt([[F(1), F(1)]], indef)
