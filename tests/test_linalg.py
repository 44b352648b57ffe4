import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from so5racah.errors import DegenerateForm, NotFactorable
from so5racah.exact import RS_ONE, Radical, canonicalize, rs
from so5racah.halfint import HalfInt
from so5racah.linalg import ExactMatrix, form_dot, gram_schmidt, vec_dot
from so5racah.racah import build_system
from so5racah.so5 import So5Irrep, so5_kronecker


def F(a, b=1):
    return rs(Fraction(a, b))


def test_shapes_and_validation():
    m = ExactMatrix([[1, 2], [3, 4]])
    assert (m.nrows, m.ncols) == (2, 2)
    empty = ExactMatrix([], ncols=3)
    assert empty.ncols == 3 and empty.rank() == 0
    assert len(empty.nullspace()) == 3
    with pytest.raises(ValueError):
        ExactMatrix([[1], [1, 2]])


def test_rref_canonical():
    m = ExactMatrix([[2, 4, 6], [1, 2, 4]])
    red, pivots = m.rref()
    assert pivots == [0, 2]
    assert [[str(x) for x in r] for r in red.rows] == [
        ["sqrt(1)", "sqrt(4)", "sqrt(0)"],
        ["sqrt(0)", "sqrt(0)", "sqrt(1)"]]


def test_rref_with_radicals():
    # rows proportional through sqrt(2): rank 1
    m = ExactMatrix([[rs(Radical(Fraction(1), 2)), F(2)],
                     [F(2), rs(Radical(Fraction(2), 2))]])
    assert m.rank() == 1


def test_nullspace_planted():
    # rows orthogonal to (1, 2, 3)
    m = ExactMatrix([[3, 0, -1], [0, 3, -2], [3, 3, -3]])
    ns = m.nullspace()
    assert len(ns) == 1
    v = ns[0]
    assert v[2] == RS_ONE  # unit at the (single) free column
    assert [x * 3 for x in v] == [F(1), F(2), F(3)]
    for row in m.rows:
        assert vec_dot(row, v).is_zero()


def test_nullspace_free_columns_descending():
    # one pivot (column 0), free columns 1 and 2; the first basis
    # vector must carry its unit at the highest free column
    m = ExactMatrix([[1, 1, 1]])
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
        m = ExactMatrix(rows, ncols=nc)
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
        m1 = ExactMatrix(rows, ncols=nc)
        m2 = ExactMatrix(rows, ncols=nc)
        b1 = m1.nullspace()
        b2 = m2.nullspace()
        assert b1 == b2
        for v in b1:
            assert all(x.is_zero() for x in m1.matvec(v))


def test_rank_matches_numpy_on_racah_systems():
    irreps = [So5Irrep(HalfInt(tr), HalfInt(ts))
              for tr in range(3) for ts in range(tr + 1)]
    for g1 in irreps:
        for g2 in irreps:
            for g in so5_kronecker(g1, g2):
                m = build_system(g1, g2, g).matrix
                a = np.array([[float(x.decimal(25)) for x in r] for r in m.rows])
                assert m.rank() == np.linalg.matrix_rank(a), (g1, g2, g)


def test_not_factorable():
    root2 = rs(Radical(Fraction(1), 2))
    # row 0 puts columns 0 and 1 in classes a factor sqrt(2) apart, row 1
    # in the same class
    with pytest.raises(NotFactorable):
        ExactMatrix([[root2, F(1)], [F(1), F(1)]]).rank()
    with pytest.raises(NotFactorable):
        ExactMatrix([[root2 + 1, F(1)], [F(0), F(1)]]).nullspace()


def test_gram_schmidt_plain():
    vecs = [[F(1), F(1), F(0)], [F(1), F(0), F(0)]]
    out = gram_schmidt(vecs)
    assert vec_dot(out[0], out[1]).is_zero()
    for v in out:
        assert vec_dot(v, v) == RS_ONE
    # first output is a positive multiple of the first input
    assert str(out[0][0]) == "sqrt(1/2)"


def test_gram_schmidt_with_form():
    form = ExactMatrix([[2, 0], [0, 3]])
    out = gram_schmidt([[F(1), F(1)], [F(0), F(1)]], form)
    assert form_dot(out[0], out[1], form).is_zero()
    assert form_dot(out[0], out[0], form) == RS_ONE
    assert form_dot(out[1], out[1], form) == RS_ONE


def test_gram_schmidt_degenerate():
    with pytest.raises(DegenerateForm):
        gram_schmidt([[F(1), F(1)], [F(2), F(2)]])
    indef = ExactMatrix([[1, 0], [0, -1]])
    with pytest.raises(DegenerateForm):
        gram_schmidt([[F(1), F(1)]], indef)
