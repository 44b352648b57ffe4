"""Chain (III) SO_L(3): the maximal SO(3) subalgebra.

The angular momentum operator mixes the two SU(2) chains: L weights are
M_L = M_X + 3*M_Y, so a chain (III) basis state spans several weight
points of the same M_L.  The chain has one sector, (); its lowering
operator is L_- = 2 X_- + 2 sqrt(3) T_{+-}, the sqrt(2) L^(1)_{-1} of
the generator matrices below.  The branching, the laddering, the L.L
check and the coefficient transformation are the ones of `chains`.
"""

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .chains import ladder, op_add, op_compose, op_scale, \
    primitive, transform, verify_brackets, weight_basis
from .exact import Radical
from .halfint import HalfInt
from .su2 import su2_cg


def chain3_level(state):
    """((), M_L) of a weight basis state: one sector, M_L = M_X + 3 M_Y."""
    _, mx, my = state
    return (), HalfInt(mx.twice + 3 * my.twice)


# -- generator matrices ----------------------------------------------------

# sparse matrices of L^(1) and O^(3) over the weight basis, by component
Chain3Ops = namedtuple("Chain3Ops", "irrep basis L O")


def chain3_generator_matrices(g):
    """L^(1) and O^(3) spherical components in the weight basis."""
    basis = weight_basis(g)
    p = {name: primitive(g, basis, name) for name in
         ("X+", "X-", "Y+", "Y-", "X0", "Y0", "T++", "T+-", "T-+", "T--")}
    r2 = Radical(Fraction(1), 2)
    r3 = Radical(Fraction(1), 3)
    r5 = Radical(Fraction(1), 5)
    r6 = Radical(Fraction(1), 6)
    r10 = Radical(Fraction(1), 10)
    L = {
        1: op_add(op_scale(-r2, p["X+"]), op_scale(-r6, p["T-+"])),
        0: op_add(p["X0"], op_scale(3, p["Y0"])),
        -1: op_add(op_scale(r2, p["X-"]), op_scale(r6, p["T+-"])),
    }
    O = {
        3: op_scale(-r5, p["Y+"]),
        2: op_scale(r10, p["T++"]),
        1: op_add(op_scale(-r3, p["X+"]), op_scale(2, p["T-+"])),
        0: op_add(op_scale(3, p["X0"]), op_scale(-1, p["Y0"])),
        -1: op_add(op_scale(r3, p["X-"]), op_scale(-2, p["T+-"])),
        -2: op_scale(-r10, p["T--"]),
        -3: op_scale(r5, p["Y-"]),
    }
    return Chain3Ops(g, basis, L, O)


def coupled_commutator(ops_a, ka, ops_b, kb, k, q):
    """[A, B]^(k)_q = sum cg(ka m1; kb m2 | k q)(A_m1 B_m2 - B_m2 A_m1)."""
    out = {}
    for m1 in range(-ka, ka + 1):
        m2 = q - m1
        if abs(m2) > kb:
            continue
        cg = su2_cg(ka, m1, kb, m2, k, q)
        if cg.is_zero():
            continue
        term = op_add(op_compose(ops_a[m1], ops_b[m2]),
                      op_scale(-1, op_compose(ops_b[m2], ops_a[m1])))
        out = op_add(out, op_scale(cg, term))
    return out


# -- brackets and tables ---------------------------------------------------

def chain3_lowering(g, basis):
    """L_- = 2 X_- + 2 sqrt(3) T_{+-} over the weight basis of g."""
    return op_add(op_scale(2, primitive(g, basis, "X-")),
                  op_scale(Radical(Fraction(2), 3), primitive(g, basis, "T+-")))


@lru_cache(maxsize=None)
def chain3_brackets(g):
    """Chain (III) brackets keyed (alpha, L, M_L); alpha is creation order.
    Built once per irrep per process; the set is shared and read-only,
    and cache_clear() drops it."""
    basis = weight_basis(g)
    return ladder(basis, chain3_level, chain3_lowering(g, basis))


def verify_chain3_brackets(g, bs):
    """Unitarity per M_L level and the L.L eigen-relation; list of problems."""
    return verify_brackets(bs, chain3_level, chain3_lowering(g, bs.basis))


Chain3Row = namedtuple("Chain3Row", "a1 l1 a2 l2 a l values")


def chain3_transform(block):
    """Chain (III) reduced coupling coefficients for the coupling in block."""
    return transform(block, chain3_brackets, Chain3Row,
                     lambda r: (r.l1.twice, r.a1, r.l2.twice, r.a2, r.l.twice, r.a))
