"""Chain (II) U_N(1) x SO_T(3): what the chain engine needs to build its
branching, brackets and tables.

A chain (II) basis state lives at a single weight point (M_X, M_Y) of
the SO(5) irrep, relabeled by M_S = M_X + M_Y and M_T = M_X - M_Y.
(M_S,) is the sector; T_- = 2 T_{-+} lowers M_T along one M_S diagonal.
The branching, laddering, T.T check and coefficient transformation are
the ones of `chains`; the closed form below only checks the branching.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

from .chains import ladder, op_scale, primitive, transform, \
    verify_brackets, weight_basis
from .halfint import hi


# -- closed-form branching (the oracle of chains.branch) -------------------

def chain2_tmax(g, ms):
    """Highest isospin on the M_S diagonal of g."""
    ms = hi(ms)
    if abs(ms) > g.R + g.S:
        raise ValueError("M_S=%s outside irrep %s" % (ms, g))
    if abs(ms) <= g.R - g.S:
        return g.R + g.S
    return g.R + g.R - abs(ms)


def _fcount(u, v, w):
    """floor(min(u,(u+v+w)/2)) - ceil(max(0,(u-v+w)/2)) + 1, exactly."""
    top = floor(min(u, (u + v + w) / 2))
    bot = ceil(max(Fraction(0), (u - v + w) / 2))
    return top - bot + 1


def chain2_mult(g, ms, t):
    """Multiplicity of the (M_S, T) label in g (0 if absent)."""
    ms = hi(ms)
    t = hi(t)
    trs = g.R.twice + g.S.twice
    if t.twice < 0 or t.twice > trs or abs(ms.twice) > trs:
        return 0
    if (t.twice - trs) % 2 or (ms.twice - trs) % 2:
        return 0
    if t <= g.R - g.S:
        n = _fcount(Fraction(2 * g.S.twice, 2), t.as_fraction(), ms.as_fraction())
    else:
        u = (g.R + g.S - t).as_fraction()
        n = _fcount(u, (g.R - g.S).as_fraction(), ms.as_fraction())
    return max(0, n)


# -- brackets and tables ---------------------------------------------------

def chain2_level(state):
    """((M_S,), M_T) of a weight basis state."""
    _, mx, my = state
    return (mx + my,), mx - my


def chain2_lowering(g, basis):
    """T_- = 2 T_{-+} over the weight basis of g."""
    return op_scale(2, primitive(g, basis, "T-+"))


@lru_cache(maxsize=None)
def chain2_brackets(g):
    """All chain (II) transformation brackets of g, keyed
    (M_S, kappa, T, M_T).  Built once per irrep per process; the set is
    shared and read-only, and cache_clear() drops it."""
    basis = weight_basis(g)
    return ladder(basis, chain2_level, chain2_lowering(g, basis))


def verify_chain2_brackets(g, bs):
    """Unitarity and T.T eigen-relation report; empty list means clean."""
    return verify_brackets(bs, chain2_level, chain2_lowering(g, bs.basis))


Chain2Row = namedtuple("Chain2Row", "ms1 k1 t1 ms2 k2 t2 ms k t values")


def chain2_transform(block):
    """Chain (II) reduced coupling coefficients for the coupling in block.

    Returns Chain2Row tuples ordered M_S1, M_S2 descending then isospins
    ascending; values holds one entry per outer multiplicity rho.
    """
    return transform(
        block, chain2_brackets, Chain2Row,
        lambda r: (-r.ms1.twice, -r.ms2.twice, r.t1.twice, r.t2.twice,
                   r.t.twice, r.k1, r.k2, r.k))
