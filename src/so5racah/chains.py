"""One engine for the subalgebra chains: weight basis, sparse generator
matrices, branching, transformation brackets by laddering, their
verification, and the transformation of canonical-chain coefficients.

A chain is described by two things.  Its level function maps a weight
basis state (lam, M_X, M_Y) to (sector, m): the sector is the tuple
of labels the subalgebra leaves fixed ((M_S,) in the isospin chain, ()
in the angular-momentum chain) and m is the weight of its SO(3).  Its
lowering operator, a sparse matrix over the weight basis, maps level
(sector, m) into (sector, m - 1).  Branching, brackets, their Casimir
check and the coefficient transformation follow from these alone.  A
bracket key is sector + (k, j, m), which is the chain's own label.

Inside the engine a state is its position in the irrep's weight basis:
bracket vectors, operator columns and the transform's memo tables are
sparse over positions, and BracketSet.vector alone names the canonical
states.  Sparse matrices are column-major: mat[j] is a dict {i: value}
so that (M v)[i] = sum_j mat[j][i] * v[j].
"""

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from operator import add
from types import MappingProxyType

from .errors import InternalInconsistency, LadderNullUnexpected
from .exact import RS_ONE, RS_ZERO, Radical, rs
from .halfint import HalfInt, _tri2
from .linalg import off_identity
from .so4 import HALFHALF
from .so5 import generator_rmes, so5_branch_so4
from .su2 import _cg_t


class BracketSet:
    """Chain basis vectors of one irrep expanded over its canonical states.

    basis is the irrep's weight basis, a tuple of (So4Irrep, M_X, M_Y).
    entries maps a chain label tuple to a tuple of (position in basis,
    Radical) pairs sorted by position; vector(key) names the states,
    as ((So4Irrep, (M_X, M_Y)), Radical) pairs.  Chain (II) labels
    are (M_S, kappa, T, M_T); chain (III) labels are (alpha, L, M_L).
    entries is a read-only view, because the chain modules cache one set
    per irrep and hand the same object to every caller.
    """

    __slots__ = ("basis", "entries")

    def __init__(self, basis, entries):
        self.basis = tuple(basis)
        self.entries = MappingProxyType(entries)

    def labels(self):
        return list(self.entries)

    def vector(self, key):
        return tuple(((self.basis[i][0], self.basis[i][1:]), v)
                     for i, v in self.entries[key])


def weight_basis(g):
    """Weight basis (lam, M_X, M_Y) ordered by (label, M_X, M_Y)."""
    return tuple((lam,) + w for lam in so5_branch_so4(g) for w in lam.weights())


# -- sparse vectors and matrices -------------------------------------------

def _axpy(out, c, vec):
    """out += c * vec over sparse dicts, dropping the entries that cancel;
    returns out."""
    for i, v in vec.items():
        s = out.get(i, RS_ZERO) + c * v
        if s.is_zero():
            out.pop(i, None)
        else:
            out[i] = s
    return out


def _dot(terms, vec):
    """sum c * vec[i] over the (i, c) pairs of terms, vec a sparse dict."""
    total = RS_ZERO
    for i, c in terms:
        d = vec.get(i)
        if d is not None:
            total = total + c * d
    return total


def op_apply(mat, vec):
    out = {}
    for j, c in vec.items():
        _axpy(out, c, mat.get(j, {}))
    return out


def op_compose(a, b):
    out = {}
    for j, col in b.items():
        new = op_apply(a, col)
        if new:
            out[j] = new
    return out


def op_add(*mats):
    out = {}
    for m in mats:
        for j, col in m.items():
            if not _axpy(out.setdefault(j, {}), RS_ONE, col):
                del out[j]
    return out


def op_scale(c, mat):
    return {j: {i: v * c for i, v in col.items()} for j, col in mat.items()}


def op_transpose(mat):
    out = {}
    for j, col in mat.items():
        for i, v in col.items():
            out.setdefault(i, {})[j] = v
    return out


def primitive(g, basis, name):
    """One primitive SO(5) generator component over basis: "X+", "X-",
    "Y+", "Y-" (SU(2) ladders), "X0", "Y0" (weight diagonals), or the bitensor
    T_{mu nu}, "T" plus the signs of mu, nu, from the cached SO(4) CG tables."""
    kind, signs = name[0], name[1:]
    mat = {}
    if kind == "T":
        first = _first_positions(basis)
        step = 2 * (signs[0] == "+") + (signs[1] == "+")
        for ket, bras in generator_rmes(g).items():
            for bra, rme in bras.items():
                for i, terms in enumerate(_so4_coupling(ket, HALFHALF, bra), first[bra]):
                    for i1, i2, cg in terms:
                        if i2 == step:
                            mat.setdefault(first[ket] + i1, {})[i] = cg * rme
        return dict(sorted(mat.items()))
    d = 1 if signs == "+" else -1
    for j, (lam, mx, my) in enumerate(basis):
        jj, m, stride = (lam.X, mx, lam.Y.twice + 1) if kind == "X" else (lam.Y, my, 1)
        if signs == "0":
            if m:
                mat[j] = {j: rs(m.as_fraction())}
            continue
        p = ((jj.twice - d * m.twice) // 2) * ((jj.twice + d * m.twice) // 2 + 1)
        if p > 0:
            mat[j] = {j + d * stride: Radical(1, p)}
    return mat


def casimir(basis, level, lower):
    """The subalgebra Casimir M0^2 + (L+ L- + L- L+)/2 over basis, with
    M0 the diagonal of level weights m and L+ the transpose of L-."""
    raising = op_transpose(lower)
    m0sq = {}
    for j, state in enumerate(basis):
        m = level(state)[1]
        if m:
            m0sq[j] = {j: rs(m.as_fraction() ** 2)}
    half = Fraction(1, 2)
    return op_add(m0sq, op_scale(half, op_compose(raising, lower)),
                  op_scale(half, op_compose(lower, raising)))


# -- branching and transformation brackets ---------------------------------

def branch(basis, level):
    """Branching with multiplicity over basis: sector + (j, mu) for each
    multiplet, sectors descending and j ascending.  mu is the size of level
    (sector, j) less that of (sector, j + 1), counted at m >= 0 only (levels
    shrink below m = 0); a level there that outgrows the one below raises
    InternalInconsistency."""
    sizes = Counter(map(level, basis))
    out = []
    for sector in sorted({sec for sec, _ in sizes}, reverse=True):
        top = max(m for sec, m in sizes if sec == sector)
        for tj in range(top.twice % 2, top.twice + 1, 2):
            j = HalfInt(tj)
            mu = sizes[sector, j] - sizes[sector, j + 1]
            if mu < 0:
                raise InternalInconsistency(
                    "level (%s, %s) outgrows the one below" % (sector, j + 1))
            if mu:
                out.append(sector + (j, mu))
    return out


def ladder(basis, level, lower):
    """Chain basis vectors by inward laddering with Gram-Schmidt completion.

    Each sector is walked from its top level down.  Vectors lowered from
    the level above are normalized by sqrt((j+m+1)(j-m)); at every level
    with m >= 0 they are completed to a basis of the level by
    Gram-Schmidt against the level's states in basis order, each
    completion starting a new multiplet j = m; branch gives their number.

    Returns the BracketSet over basis keyed sector + (k, j, m) in
    creation order, sectors descending, k numbering the multiplets of
    equal (sector, j).
    """
    mus = {lab[:-1]: lab[-1] for lab in branch(basis, level)}
    levels = {}
    for i, state in enumerate(basis):
        levels.setdefault(level(state), []).append(i)
    entries = {}
    for sector in sorted({sec for sec, _ in levels}, reverse=True):
        top = max(m for sec, m in levels if sec == sector)
        live = []  # (j, k, vec) with vec a dict position -> Radical
        for tm in range(top.twice, -top.twice - 1, -2):
            m = HalfInt(tm)
            members = levels.get((sector, m), [])
            stepped = []
            for j, k, vec in live:
                if m < -j:
                    continue
                new = op_apply(lower, vec)
                if not new:
                    raise LadderNullUnexpected(
                        "lowering annihilated (j=%s k=%d) at m=%s, sector %s"
                        % (j, k, m, sector))
                scale = Radical(1, Fraction((j.twice + tm + 2) * (j.twice - tm), 4))
                stepped.append((j, k, {i: v / scale for i, v in new.items()}))
            live = stepped
            mu = mus.get(sector + (m,), 0)
            added = 0
            for cand in members:
                if added == mu:
                    break
                resid = {cand: RS_ONE}
                for _, _, vec in live:
                    if cand in vec:
                        _axpy(resid, -vec[cand], vec)
                if not resid:
                    continue
                scale = Radical(1, _dot(resid.items(), resid).rational())
                added += 1
                live.append((m, added, {i: v / scale for i, v in resid.items()}))
            if len(live) != len(members):
                raise InternalInconsistency(
                    "level (%s, %s): %d vectors for %d states"
                    % (sector, m, len(live), len(members)))
            for j, k, vec in live:
                entries[sector + (k, j, m)] = tuple(sorted(vec.items()))
    return BracketSet(basis, entries)


def verify_brackets(bs, level, lower):
    """Unitarity per level and the Casimir eigen-relation for the
    brackets bs, keyed sector + (k, j, m) as ladder makes them.
    Returns a list of problems, empty when clean."""
    c2 = casimir(bs.basis, level, lower)
    counts = Counter(map(level, bs.basis))
    by_level = {lev: [] for lev in counts}
    problems = []
    for key, terms in bs.entries.items():
        j, m = key[-2:]
        vec = dict(terms)
        by_level.setdefault((key[:-3], m), []).append((key, vec))
        ev = j.as_fraction() * (j.as_fraction() + 1)
        lhs = op_apply(c2, vec)
        if set(lhs) - set(vec) or any(lhs.get(i, RS_ZERO) != v * ev
                                      for i, v in vec.items()):
            problems.append("Casimir eigen-relation fails for %s" % (key,))
    for lev, group in by_level.items():
        if len(group) != counts.get(lev, 0):
            problems.append("level %s: %d vectors, %d states"
                            % (lev, len(group), counts.get(lev, 0)))
        problems += ["brackets %s . %s = %s" % (group[a][0], group[b][0], dot)
                     for a, b, dot in off_identity(
                         [vec for _, vec in group],
                         lambda u, v: _dot(u.items(), v))]
    return problems


# -- coefficient transformation --------------------------------------------

def _su2_row(t1, t2, t, tm):
    """The nonzero CGs <t1/2 m1; t2/2 m2 | t/2 tm/2> as (a1, a2, cg),
    m1 ascending, with a1 and a2 the indices of m1 and m2 from -t1/2
    and -t2/2."""
    cgs = ((a1, (tm - tm1 + t2) // 2, _cg_t(t1, tm1, t2, tm - tm1, t, tm))
           for a1, tm1 in enumerate(range(-t1, t1 + 1, 2)) if abs(tm - tm1) <= t2)
    return [c for c in cgs if not c[2].is_zero()]


@lru_cache(maxsize=None)
def _so4_coupling(lam1, lam2, lam):
    """SO(4) CGs of lam1 x lam2 -> lam over weight indices: for each
    weight of lam, in lam.weights() order, a tuple of (i1, i2, cg) with
    i1, i2 the indices of the weights of lam1 and lam2 in their
    weights() order and cg = cx * cy the product of the nonzero X and Y
    SU(2) CGs, (M_X1, M_Y1) ascending.  Shared by every block and chain."""
    x1, x2, x = lam1.X.twice, lam2.X.twice, lam.X.twice
    y1, y2, y = lam1.Y.twice, lam2.Y.twice, lam.Y.twice
    xs = [_su2_row(x1, x2, x, tm) for tm in range(-x, x + 1, 2)]
    ys = [_su2_row(y1, y2, y, tm) for tm in range(-y, y + 1, 2)]
    return tuple(tuple((ax1 * (y1 + 1) + ay1, ax2 * (y2 + 1) + ay2, cx * cy)
                       for ax1, ax2, cx in xr for ay1, ay2, cy in yr)
                 for xr in xs for yr in ys)


def _first_positions(basis):
    """{lam: position of its first weight} over a weight basis."""
    first = {}
    for pos, state in enumerate(basis):
        first.setdefault(state[0], pos)
    return first


def _multiplets(entries):
    """(label, 2j, sector, vectors) for each multiplet of a bracket set,
    in the order of their m = j keys: label is sector + (k, j), sector
    is its doubled ints and vectors[(2m + 2j) / 2] the bracket terms at
    m, from m = -j to j."""
    out = []
    for key in entries:
        if key[-1] == key[-2]:
            lab, tj = key[:-1], key[-2].twice
            out.append((lab, tj, tuple(s.twice for s in lab[:-2]),
                        [entries[lab + (HalfInt(tm),)] for tm in range(-tj, tj + 1, 2)]))
    return out


def transform(block, brackets, row, order):
    """Reduced coupling coefficients of block in a chain basis.

    brackets(g) gives the BracketSet of an irrep, keyed
    sector + (k, j, m).  Each label triple sector + (k, j) of g1, g2
    and g whose sectors add and whose j satisfy the triangle rule gives
    row(*lab1, *lab2, *lab, values), with one value per outer
    multiplicity, evaluated at m = j and checked to be identical at
    m = j - 1.  Rows are returned sorted by order.

    The sum is staged over int positions in the weight bases, which are
    ordered by SO(4) label and then (M_X, M_Y).  Each canonical state of g
    is coupled once per rho from the canonical coefficients and the
    cached SO(4) CG table of each column's label triple, sparse over
    product states (p1, p2) of g1 and g2: a table entry (i1, i2, cg) is
    offset by the first positions of lam1 and lam2.  A chain state of g,
    at m = j and m = j - 1, sums its bracket terms over those.
    Contracting the sum with a chain vector of g1 and taking the dot
    product with one of g2 gives their overlap, and SU(2) CGs over m1,
    on doubled-int weights, combine the overlaps into a row value.  The
    memo tables, keyed by ints, live for one call.
    """
    sets = [brackets(g) for g in (block.g1, block.g2, block.g)]
    first1, first2, first = map(_first_positions, (bs.basis for bs in sets))
    mult1, mult2, mult = (_multiplets(bs.entries) for bs in sets)
    pairs = {}
    for col, (lam1, lam2, lam) in enumerate(block.columns):
        pairs.setdefault(lam, []).append(
            (first1[lam1], first2[lam2], _so4_coupling(lam1, lam2, lam), col))
    coupled = [{} for _ in range(block.D)]

    def couple(rho, pos):
        """The canonical state at pos of g as {p1: {p2: value}}; each
        (lam1, lam2) is one column per lam, so each (p1, p2) is set once."""
        lam = sets[2].basis[pos][0]
        w = pos - first[lam]
        out = {}
        for o1, o2, table, col in pairs[lam]:
            cc = block.vectors[rho][col]
            if cc.is_zero():
                continue
            for i1, i2, cg in table[w]:
                out.setdefault(o1 + i1, {})[o2 + i2] = cc * cg
        return out

    def chain_state(terms, rho):
        """The chain state with bracket terms of g as {p1: {p2: value}}."""
        psi = {}
        memo = coupled[rho]
        for pos, c in terms:
            states = memo.get(pos)
            if states is None:
                states = memo[pos] = couple(rho, pos)
            for p1, prow in states.items():
                _axpy(psi.setdefault(p1, {}), c, prow)
        return psi

    def values(psi, triples, tj, tm):
        """[value of each (n1, n2) of triples] at doubled weight tm of the
        chain state psi, n1 and n2 indexing mult1 and mult2."""
        halves = {}
        out = []
        for n1, n2 in triples:
            _, tj1, _, vecs1 = mult1[n1]
            _, tj2, _, vecs2 = mult2[n2]
            total = RS_ZERO
            for a1, a2, cg in _su2_row(tj1, tj2, tj, tm):
                half = halves.get((n1, a1))
                if half is None:
                    half = halves[n1, a1] = {}
                    for p1, c1 in vecs1[a1]:
                        prow = psi.get(p1)
                        if prow:
                            _axpy(half, c1, prow)
                dot = _dot(vecs2[a2], half)
                if not dot.is_zero():
                    total = total + cg * dot
            out.append(total)
        return out

    by_sector = {}
    for n1, (_, _, sec1, _) in enumerate(mult1):
        for n2, (_, _, sec2, _) in enumerate(mult2):
            by_sector.setdefault(tuple(map(add, sec1, sec2)), []).append((n1, n2))
    rows = []
    for lab, tj, sec, vecs in mult:
        triples = [(n1, n2) for n1, n2 in by_sector.get(sec, ())
                   if _tri2(mult1[n1][1], mult2[n2][1], tj)]
        per_rho = []
        for rho in range(block.D):
            at_j = values(chain_state(vecs[-1], rho), triples, tj, tj)
            if tj >= 1:
                below = values(chain_state(vecs[-2], rho), triples, tj, tj - 2)
                for (n1, n2), a, b in zip(triples, at_j, below):
                    if a != b:
                        raise InternalInconsistency("m dependence at %s" % (
                            (mult1[n1][0], mult2[n2][0], lab, rho + 1),))
            per_rho.append(at_j)
        for t, (n1, n2) in enumerate(triples):
            rows.append(row(*mult1[n1][0], *mult2[n2][0], *lab,
                            tuple(v[t] for v in per_rho)))
    rows.sort(key=order)
    return rows
