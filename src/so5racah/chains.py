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
from operator import add
from types import MappingProxyType

from .errors import InternalInconsistency, LadderNullUnexpected
from .exact import RS_ONE, RS_ZERO, root_of_rational, rs
from .halfint import HalfInt, mrange, triangle
from .linalg import off_identity
from .so4 import HALFHALF, so4_cg
from .so5 import generator_rmes, so5_branch_so4
from .su2 import su2_cg


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
    "Y+", "Y-" (SU(2) ladders), "X0", "Y0" (weight diagonals), or the
    bitensor component T_{mu nu} named "T" plus the signs of mu, nu."""
    index = {s: k for k, s in enumerate(basis)}
    rmes = generator_rmes(g)
    kind, signs = name[0], name[1:]
    mat = {}
    for j, (lam, mx, my) in enumerate(basis):
        if signs == "0":
            v = (mx if kind == "X" else my).as_fraction()
            if v:
                mat[j] = {j: rs(v)}
        elif kind in "XY":
            d = 1 if signs == "+" else -1
            jj, m = (lam.X, mx) if kind == "X" else (lam.Y, my)
            p = ((jj.twice - d * m.twice) // 2) * ((jj.twice + d * m.twice) // 2 + 1)
            if p > 0:
                tgt = (lam, mx + d, my) if kind == "X" else (lam, mx, my + d)
                mat[j] = {index[tgt]: root_of_rational(1, p)}
        else:
            step = tuple(HalfInt(1 if c == "+" else -1) for c in signs)
            w = (mx + step[0], my + step[1])
            col = {}
            for lamp, rme in rmes[lam].items():
                i = index.get((lamp,) + w)
                if i is None:
                    continue
                el = so4_cg(lam, (mx, my), HALFHALF, step, lamp, w) * rme
                if not el.is_zero():
                    col[i] = el
            if col:
                mat[j] = col
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
                scale = root_of_rational(
                    1, Fraction((j.twice + tm + 2) * (j.twice - tm), 4))
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
                scale = root_of_rational(1, _dot(resid.items(), resid).rational())
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

def transform(block, brackets, row, order):
    """Reduced coupling coefficients of block in a chain basis.

    brackets(g) gives the BracketSet of an irrep, keyed
    sector + (k, j, m).  Each label triple sector + (k, j) of g1, g2
    and g whose sectors add and whose j satisfy the triangle rule gives
    row(*lab1, *lab2, *lab, values), with one value per outer
    multiplicity, evaluated at m = j and checked to be identical at
    m = j - 1.  Rows are returned sorted by order.

    The sum is staged over positions in the weight bases.  Each
    canonical state of g is coupled once per rho from the canonical
    coefficients and SO(4) CGs, sparse over product states (p1, p2) of
    g1 and g2, with so4_cg factored into its X and Y SU(2) parts.  A
    chain state of g, at m = j and m = j - 1, sums its bracket terms
    over those.  Contracting the sum with a chain vector of g1 and
    taking the dot product with one of g2 gives their overlap, and
    SU(2) CGs over m1 combine the overlaps into a row value.  The memo
    tables live for one call.
    """
    sets = [brackets(g) for g in (block.g1, block.g2, block.g)]
    vecs = [bs.entries for bs in sets]
    index1, index2 = ({s: p for p, s in enumerate(bs.basis)} for bs in sets[:2])
    pairs = {}
    for col, (lam1, lam2, lam) in enumerate(block.columns):
        pairs.setdefault(lam, []).append((lam1, lam2, col))
    coupled = {}

    def couple(rho, pos):
        """The canonical state at pos of g as {p1: {p2: value}}; each
        (lam1, lam2) is one column per lam, so each (p1, p2) is set once."""
        lam, mx, my = sets[2].basis[pos]
        out = {}
        for lam1, lam2, col in pairs[lam]:
            cc = block.vectors[rho][col]
            if cc.is_zero():
                continue
            for mx1 in mrange(lam1.X):
                mx2 = mx - mx1
                cx = su2_cg(lam1.X, mx1, lam2.X, mx2, lam.X, mx)
                if cx.is_zero():
                    continue
                for my1 in mrange(lam1.Y):
                    my2 = my - my1
                    cy = su2_cg(lam1.Y, my1, lam2.Y, my2, lam.Y, my)
                    if not cy.is_zero():
                        out.setdefault(index1[lam1, mx1, my1], {})[
                            index2[lam2, mx2, my2]] = cc * (cx * cy)
        return out

    def chain_state(key, rho):
        """The chain state key of g as {p1: {p2: value}}."""
        psi = {}
        for pos, c in vecs[2][key]:
            states = coupled.get((rho, pos))
            if states is None:
                states = coupled[rho, pos] = couple(rho, pos)
            for p1, row in states.items():
                _axpy(psi.setdefault(p1, {}), c, row)
        return psi

    def values(psi, triples, j, m):
        """{(lab1, lab2): value} at weight m of the chain state psi."""
        halves = {}
        out = {}
        for lab1, lab2 in triples:
            total = RS_ZERO
            for m1 in mrange(lab1[-1]):
                m2 = m - m1
                if abs(m2) > lab2[-1]:
                    continue
                half = halves.get((lab1, m1))
                if half is None:
                    half = halves[(lab1, m1)] = {}
                    for p1, c1 in vecs[0][lab1 + (m1,)]:
                        _axpy(half, c1, psi.get(p1, {}))
                dot = _dot(vecs[1][lab2 + (m2,)], half)
                if not dot.is_zero():
                    total = total + su2_cg(lab1[-1], m1, lab2[-1], m2, j, m) * dot
            out[(lab1, lab2)] = total
        return out

    # sector + (k, j) of each multiplet, from its m = j key
    labs = [[key[:-1] for key in v if key[-1] == key[-2]] for v in vecs]
    sectors = {(lab1, lab2): tuple(map(add, lab1[:-2], lab2[:-2]))
               for lab1 in labs[0] for lab2 in labs[1]}
    rows = []
    for lab in labs[2]:
        j = lab[-1]
        triples = [(lab1, lab2) for (lab1, lab2), sector in sectors.items()
                   if sector == lab[:-2] and triangle(lab1[-1], lab2[-1], j)]
        per_rho = []
        for rho in range(block.D):
            at_j = values(chain_state(lab + (j,), rho), triples, j, j)
            if j.twice >= 1:
                below = values(chain_state(lab + (j - 1,), rho), triples, j, j - 1)
                for lab1, lab2 in triples:
                    if at_j[(lab1, lab2)] != below[(lab1, lab2)]:
                        raise InternalInconsistency(
                            "m dependence at %s" % ((lab1, lab2, lab, rho + 1),))
            per_rho.append(at_j)
        for lab1, lab2 in triples:
            rows.append(row(*lab1, *lab2, *lab, tuple(v[(lab1, lab2)] for v in per_rho)))
    rows.sort(key=order)
    return rows
