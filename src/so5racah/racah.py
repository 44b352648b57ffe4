"""The SO(5) > SO(4) generator-relation system and its exact solution.

For a coupling g1 x g2 -> g, the unknowns are the reduced coupling
coefficients C[(X1Y1),(X2Y2),(XY)], one per branching-compatible,
triangle-compatible label triple.  Acting with the SO(5) generators
(an SO(4) bitensor of type (1/2,1/2)) on both sides of the coupled
state gives one homogeneous linear relation per label quadruplet
(X1Y1, X2Y2, XY, X'Y'); the null space of the assembled matrix has
dimension equal to the outer multiplicity D, and normalization + phase
conventions pin the coefficient vectors.
"""

from collections import namedtuple
from functools import lru_cache

from .errors import InternalInconsistency, NormInconsistency, NotInSeries, RankDefect
from .exact import RS_ZERO
from .linalg import ExactMatrix, gram, gram_schmidt, off_identity, vec_dot
from .halfint import _tri2
from .so4 import HALFHALF, so4_kronecker
from .so5 import generator_rmes, so5_branch_so4, so5_kronecker
from .su2 import _phi_t, _usixj_t

CONVENTIONS = {
    "phase": "generalized-condon-shortley",
    "multiplicity": "gram-schmidt-rref-order",
    "order": "xy-major-canonical",
}


def outer_multiplicity(g1, g2, g):
    series = so5_kronecker(g1, g2)
    return series.get(g, 0)


def _triples(g1, g2, lams):
    """Triangle-compatible (L1, L2, L) with L1 in branch(g1), L2 in
    branch(g2) and L from lams, L1 outermost, then L2, then L; the
    triangle rule runs on the doubled labels of both SU(2) chains."""
    keyed = [(lam, lam.key()) for lam in lams]
    for lam1 in so5_branch_so4(g1):
        x1, y1 = lam1.key()
        for lam2 in so5_branch_so4(g2):
            x2, y2 = lam2.key()
            for lam, (x, y) in keyed:
                if _tri2(x1, x2, x) and _tri2(y1, y2, y):
                    yield lam1, lam2, lam


def enumerate_columns(g1, g2, g):
    """Label triples (L1, L2, L) for the unknown coefficients.

    Ordered with the product label (XY) outermost, then (X1Y1), then
    (X2Y2), each in canonical SO(4) order; this matches the layout the
    solved vectors are reported in.
    """
    return sorted(_triples(g1, g2, so5_branch_so4(g)), key=lambda c: c[2])


RacahSystem = namedtuple("RacahSystem", "columns matrix row_labels n_augmented")


@lru_cache(maxsize=None)
def _rme_pairs(g):
    """The generator RMEs of g on doubled pairs (2X, 2Y), by bra:
    {bra: {ket: <bra||T||ket>}}, kets in branch order.  The nonzero
    pattern is symmetric (generator_rmes), so row lam lists the labels
    one generator step from lam.  Built once per irrep; callers must not
    change it."""
    key = {lam: lam.key() for lam in so5_branch_so4(g)}
    table = {k: {} for k in key.values()}
    for ket, row in generator_rmes(g).items():
        for bra, rme in row.items():
            table[key[bra]][key[ket]] = rme
    return table


def _racah_row(rmes1, rmes2, lhs, colindex, a1, a2, a, ap, phase):
    """One relation as a sparse row {column: Radical}, or None if empty.

    The labels (X1Y1), (X2Y2), (XY) and (X'Y') come as doubled pairs
    a1, a2, a and ap, the RME tables of g1 and g2 as _rme_pairs, lhs as
    the row of a in the table of g, and colindex maps a column's three
    pairs to its index; phase is the interchange phase of (a1, a2, a).
    When a lies outside branch(g) (the known-zero augmentation rows)
    lhs is empty and so is the left side.  The three kinds of term
    never share a column: the left side carries the product label a and
    the others carry ap, and a generator always changes the label it
    acts on, so ap != a and the g1 and g2 terms differ in (X1Y1).  Only
    the labels one generator step from a1 and a2 are visited, in branch
    order.  The SO(4) symbols are products of their X and Y SU(2) ones.
    """
    (x1, y1), (x2, y2), (x, y), (xp, yp) = a1, a2, a, ap
    row = {}
    rme = lhs.get(ap)
    if rme is not None:
        row[colindex[a1, a2, a]] = -rme
    for b1, rme in rmes1[a1].items():
        u = _usixj_t(x2, b1[0], xp, 1, x, x1) * _usixj_t(y2, b1[1], yp, 1, y, y1)
        if u.is_zero():
            continue
        v = u * rme
        sign = phase * _phi_t(b1[0], x2, xp) * _phi_t(b1[1], y2, yp)
        row[colindex[b1, a2, ap]] = v if sign > 0 else -v
    for b2, rme in rmes2[a2].items():
        u = _usixj_t(x1, b2[0], xp, 1, x, x2) * _usixj_t(y1, b2[1], yp, 1, y, y2)
        if u.is_zero():
            continue
        row[colindex[a1, b2, ap]] = u * rme
    return row or None


def _relations(g1, g2, g, colindex, lams):
    """Yield (labels, row) for every nonempty relation whose product
    label lam is taken from lams, in canonical order; lam' runs over
    the labels of branch(g) one generator step from lam, (+-1/2, +-1/2)
    away, in canonical order."""
    rmes1, rmes2, rmes = _rme_pairs(g1), _rme_pairs(g2), _rme_pairs(g)
    branch_g = {lamp.key(): lamp for lamp in so5_branch_so4(g)}
    for lam1, lam2, lam in _triples(g1, g2, lams):
        a1, a2, a = lam1.key(), lam2.key(), lam.key()
        x, y = a
        phase = _phi_t(a1[0], a2[0], x) * _phi_t(a1[1], a2[1], y)
        lhs = rmes.get(a, {})
        for ap in ((x - 1, y - 1), (x - 1, y + 1), (x + 1, y - 1), (x + 1, y + 1)):
            lamp = branch_g.get(ap)
            if lamp is not None:
                row = _racah_row(rmes1, rmes2, lhs, colindex, a1, a2, a, ap, phase)
                if row is not None:
                    yield (lam1, lam2, lam, lamp), row


def build_system(g1, g2, g):
    """Assemble the relation matrix; all-zero rows are dropped.

    If the normal rows leave the nullity above the outer multiplicity,
    the rows of every product label one SO(4) generator step outside
    branch(g) are appended at once, and RankDefect is raised if the
    nullity still does not match.  That happens for g x g -> (0,0) with
    g != (0,0), 14 of the 1,716 couplings with R1,R2 <= 2: no label one
    generator step from (0,0) lies in branch((0,0)), so they have no
    normal rows.
    """
    D = outer_multiplicity(g1, g2, g)
    if D == 0:
        raise NotInSeries("%s not in %s x %s" % (g, g1, g2))
    columns = enumerate_columns(g1, g2, g)
    colindex = {(lam1.key(), lam2.key(), lam.key()): i
                for i, (lam1, lam2, lam) in enumerate(columns)}
    ncols = len(columns)
    branch_g = so5_branch_so4(g)

    rels = list(_relations(g1, g2, g, colindex, branch_g))
    n_normal = len(rels)
    matrix = ExactMatrix([row for _, row in rels], ncols)
    if matrix.rank() < ncols - D:
        outside = sorted(
            {c for lamp in branch_g for c in so4_kronecker(lamp, HALFHALF)}
            - set(branch_g))
        rels += _relations(g1, g2, g, colindex, outside)
        matrix = ExactMatrix([row for _, row in rels], ncols)
    if matrix.rank() != ncols - D:
        raise RankDefect(
            "%s x %s -> %s: rank %d, want %d (N=%d, D=%d)"
            % (g1, g2, g, matrix.rank(), ncols - D, ncols, D))
    return RacahSystem(columns, matrix, [lab for lab, _ in rels],
                       len(rels) - n_normal)


class IsoscalarBlock(namedtuple("IsoscalarBlock", "g1 g2 g columns vectors meta")):
    """Solved, normalized reduced coupling coefficients for one coupling;
    vectors[rho-1][i] is the Radical at columns[i]."""

    __slots__ = ()

    @property
    def D(self):
        return len(self.vectors)

    def value(self, lam1, lam2, lam, rho=1):
        if not 1 <= rho <= len(self.vectors):
            raise IndexError("rho %r is outside 1..%d" % (rho, len(self.vectors)))
        col = (lam1, lam2, lam)
        if col not in self.columns:
            return RS_ZERO
        return self.vectors[rho - 1][self.columns.index(col)]


def _group_slices(columns):
    """Column positions grouped by the last label of each column."""
    out = {}
    for i, col in enumerate(columns):
        out.setdefault(col[-1], []).append(i)
    return out


def solve_isoscalars(g1, g2, g, system=None):
    """Full pipeline: system, null space, normalization, phases.

    A prebuilt system for the same coupling may be passed to skip the
    assembly step.
    """
    if system is None:
        system = build_system(g1, g2, g)
    columns = system.columns
    basis = system.matrix.nullspace()
    D = len(basis)

    meta = dict(CONVENTIONS)
    meta["sign_fallback"] = False

    # every label group must see the same Gram matrix M; orthonormalizing
    # under one group's positions then normalizes them all
    idxs, *rest = _group_slices(columns).values()
    first = gram(basis, idxs)
    if any(gram(basis, other) != first for other in rest):
        raise NormInconsistency("M differs between groups")
    vectors = gram_schmidt(basis, idxs)
    meta["m_matrix"] = first
    if D == 1:
        meta["norm2"] = first[0][0].rational()

    # Condon-Shortley scan key of a position: the weights of its (X1Y1),
    # (XY) and (X2Y2).  A vector takes its sign at its highest nonzero
    # position; one that is not the highest position overall is recorded
    key = [(lam1.weight_key(), lam.weight_key(), lam2.weight_key())
           for lam1, lam2, lam in columns].__getitem__
    primary = max(range(len(columns)), key=key)
    for rho, v in enumerate(vectors):
        pos = max((i for i, x in enumerate(v) if not x.is_zero()),
                  key=key, default=None)
        if pos is None:
            raise InternalInconsistency("all-zero solution vector")
        if pos != primary:
            meta["sign_fallback"] = True
        if v[pos].num < 0:
            vectors[rho] = [-x for x in v]

    return IsoscalarBlock(g1, g2, g, columns, vectors, meta)


def bra_sums(columns, vectors):
    """Bra-sum orthonormality: for each product label, the last label of
    a column, the vectors restricted to its columns are orthonormal.
    vectors[rho-1][i] belongs to columns[i].  Returns failure strings."""
    return ["bra-sum at %s: <%d|%d> = %s" % (lam, a + 1, b + 1, s)
            for lam, idxs in _group_slices(columns).items()
            for a, b, s in off_identity(vectors, lambda u, v: vec_dot(u, v, idxs))]


def verify_block(block, system):
    """Exactness report: row annihilation and bra-sum orthonormality.

    system is the coupling's build_system, and the block must come from
    solve_isoscalars on it (its columns are the system's).  Returns
    failure strings; empty is clean.
    """
    fails = []
    for rho, v in enumerate(block.vectors, start=1):
        for k, resid in enumerate(system.matrix.matvec(v)):
            if not resid.is_zero():
                fails.append("row %d (labels %s) does not annihilate rho=%d"
                             % (k, ", ".join(map(str, system.row_labels[k])), rho))
    return fails + bra_sums(block.columns, block.vectors)


def verify_series(g1, g2, blocks=None):
    """Ket-sum completeness across the whole Kronecker series.

    For each SO(4) label (XY), the matrix of coefficients over rows
    (g, rho, with (XY) in branch(g)) and columns ((X1Y1),(X2Y2) pairs)
    must be orthogonal (square with orthonormal rows and columns).
    Returns failure strings.

    Already-solved blocks may be passed (keyed by product irrep) to
    skip re-solving them.
    """
    fails = []
    pairs, rows = {}, {}  # per (XY): its pairs, and {pair: value} per (g, rho)
    for g, mult in so5_kronecker(g1, g2).items():
        blk = (blocks or {}).get(g) or solve_isoscalars(g1, g2, g)
        if blk.D != mult:
            fails.append("multiplicity mismatch at %s: %d vs %d"
                         % (g, blk.D, mult))
        for lam, idxs in _group_slices(blk.columns).items():
            pairs.setdefault(lam, set()).update(blk.columns[i][:2] for i in idxs)
            rows.setdefault(lam, []).extend(
                {blk.columns[i][:2]: v[i] for i in idxs} for v in blk.vectors)
    for lam in sorted(pairs):
        cols = sorted(pairs[lam])
        if len(rows[lam]) != len(cols):
            fails.append("ket-sum at %s: %d rows for %d pairs"
                         % (lam, len(rows[lam]), len(cols)))
            continue
        fails += ["ket-sum at %s: columns %d,%d give %s" % (lam, a, b, s)
                  for a, b, s in off_identity(
                      [[row.get(p, RS_ZERO) for row in rows[lam]] for p in cols])]
    return fails
