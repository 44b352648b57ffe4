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

from .errors import InternalInconsistency, NormInconsistency, NotInSeries, RankDefect
from .exact import RS_ONE, RS_ZERO
from .linalg import ExactMatrix, gram_schmidt, vec_dot
from .so4 import HALFHALF, so4_kronecker, so4_phi, so4_triangle, so4_usixj
from .so5 import generator_rmes, so5_branch_so4, so5_kronecker

CONVENTIONS = {
    "phase": "generalized-condon-shortley",
    "multiplicity": "gram-schmidt-rref-order",
    "order": "xy-major-canonical",
}


def outer_multiplicity(g1, g2, g):
    series = so5_kronecker(g1, g2)
    return series.get(g, 0)


def enumerate_columns(g1, g2, g):
    """Label triples (L1, L2, L) for the unknown coefficients.

    Ordered with the product label (XY) outermost, then (X1Y1), then
    (X2Y2), each in canonical SO(4) order; this matches the layout the
    solved vectors are reported in.
    """
    cols = []
    for lam in so5_branch_so4(g):
        for lam1 in so5_branch_so4(g1):
            for lam2 in so5_branch_so4(g2):
                if so4_triangle(lam1, lam2, lam):
                    cols.append((lam1, lam2, lam))
    return cols


class RacahSystem:
    """Assembled system matrix with its labels."""

    def __init__(self, columns, matrix, row_labels, n_augmented):
        self.columns = columns
        self.matrix = matrix
        self.row_labels = row_labels
        self.n_augmented = n_augmented


def _racah_row(g1, g2, g, colindex, lam1, lam2, lam, lamp):
    """One relation as a sparse row {column: Radical}, or None if empty.

    When lam lies outside branch(g) (the known-zero augmentation rows)
    the left side is absent: generator_rmes(g) lists only bras in
    branch(g).  The three kinds of term never share a column: the left
    side carries the product label lam and the others carry lamp, and a
    generator always changes the label it acts on, so lamp != lam and
    the g1 and g2 terms differ in (X1Y1).  Only the labels one generator
    step from lam1 and lam2 are visited, in branch order.
    """
    row = {}
    rme = generator_rmes(g)[lamp].get(lam)
    if rme is not None:
        row[colindex[(lam1, lam2, lam)]] = -rme
    phi_l = so4_phi(lam1, lam2, lam)
    rmes1 = generator_rmes(g1)
    for lam1p in rmes1[lam1]:
        u = so4_usixj(lam2, lam1p, lamp, HALFHALF, lam, lam1)
        if u.is_zero():
            continue
        row[colindex[(lam1p, lam2, lamp)]] = \
            (phi_l * so4_phi(lam1p, lam2, lamp)) * u * rmes1[lam1p][lam1]
    rmes2 = generator_rmes(g2)
    for lam2p in rmes2[lam2]:
        u = so4_usixj(lam1, lam2p, lamp, HALFHALF, lam, lam2)
        if u.is_zero():
            continue
        row[colindex[(lam1, lam2p, lamp)]] = u * rmes2[lam2p][lam2]
    return row or None


def _relations(g1, g2, g, colindex, lams):
    """Yield (labels, row) for every nonempty relation whose product
    label lam is taken from lams, in canonical order."""
    branch_g = so5_branch_so4(g)
    for lam1 in so5_branch_so4(g1):
        for lam2 in so5_branch_so4(g2):
            for lam in lams:
                if not so4_triangle(lam1, lam2, lam):
                    continue
                for lamp in branch_g:
                    if not so4_triangle(lamp, HALFHALF, lam):
                        continue
                    row = _racah_row(g1, g2, g, colindex,
                                     lam1, lam2, lam, lamp)
                    if row is not None:
                        yield (lam1, lam2, lam, lamp), row


def build_system(g1, g2, g):
    """Assemble the relation matrix; all-zero rows are dropped.

    If the normal rows leave the nullity above the outer multiplicity
    (exceptional couplings where every normal row vanishes or is
    degenerate), the rows of every product label one SO(4) generator
    step outside branch(g) are appended at once, and RankDefect is
    raised if the nullity still does not match.
    """
    D = outer_multiplicity(g1, g2, g)
    if D == 0:
        raise NotInSeries("%s not in %s x %s" % (g, g1, g2))
    columns = enumerate_columns(g1, g2, g)
    colindex = {c: i for i, c in enumerate(columns)}
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


class IsoscalarBlock:
    """Solved, normalized reduced coupling coefficients for one coupling."""

    def __init__(self, g1, g2, g, columns, vectors, meta):
        self.g1 = g1
        self.g2 = g2
        self.g = g
        self.columns = columns
        self.vectors = vectors  # vectors[rho-1][i], Radical
        self.meta = meta
        self._index = {tuple(c): i for i, c in enumerate(columns)}

    @property
    def D(self):
        return len(self.vectors)

    def value(self, lam1, lam2, lam, rho=1):
        i = self._index.get((lam1, lam2, lam))
        if i is None:
            return RS_ZERO
        return self.vectors[rho - 1][i]


def _group_slices(columns):
    """Column positions grouped by the last label of each column."""
    out = {}
    for i, col in enumerate(columns):
        out.setdefault(col[-1], []).append(i)
    return out


def _group_gram(vectors, idxs):
    """Gram matrix of the vectors restricted to the positions idxs."""
    return [[vec_dot(u, v, idxs) for v in vectors] for u in vectors]


def _sign_positions(columns):
    """Column indices in the Condon-Shortley scan order.

    Primary position: highest-weight (X1Y1) and (XY) with the highest
    consistent (X2Y2); the remaining positions follow in descending
    weight order as the documented tie-break extension.
    """
    return sorted(
        range(len(columns)),
        key=lambda i: (columns[i][0].weight_key(),
                       columns[i][2].weight_key(),
                       columns[i][1].weight_key()),
        reverse=True)


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
    first = _group_gram(basis, idxs)
    if any(_group_gram(basis, other) != first for other in rest):
        raise NormInconsistency("M differs between groups")
    vectors = gram_schmidt(basis, idxs)
    meta["m_matrix"] = first
    if D == 1:
        meta["norm2"] = first[0][0].rational()

    scan = _sign_positions(columns)
    primary = scan[0]
    for rho, v in enumerate(vectors):
        pos = next((i for i in scan if not v[i].is_zero()), None)
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
    fails = []
    D = len(vectors)
    for lam, idxs in _group_slices(columns).items():
        gram = _group_gram(vectors, idxs)
        for a in range(D):
            for b in range(a, D):
                s = gram[a][b]
                if s != (RS_ONE if a == b else RS_ZERO):
                    fails.append("bra-sum at %s: <%d|%d> = %s" % (lam, a + 1, b + 1, s))
    return fails


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
    series = so5_kronecker(g1, g2)
    solved = dict(blocks) if blocks else {}
    blocks = []
    for g, mult in series.items():
        blk = solved.get(g)
        if blk is None:
            blk = solve_isoscalars(g1, g2, g)
        if blk.D != mult:
            fails.append("multiplicity mismatch at %s: %d vs %d"
                         % (g, blk.D, mult))
        blocks.append(blk)
    lams = sorted({c[2] for blk in blocks for c in blk.columns})
    for lam in lams:
        pairs = sorted({(c[0], c[1]) for blk in blocks for c in blk.columns
                        if c[2] == lam})
        rows = []
        for blk in blocks:
            idx = {(c[0], c[1]): i for i, c in enumerate(blk.columns)
                   if c[2] == lam}
            if not idx:
                continue
            for rho in range(1, blk.D + 1):
                rows.append([blk.vectors[rho - 1][idx[p]] if p in idx else RS_ZERO
                             for p in pairs])
        if len(rows) != len(pairs):
            fails.append("ket-sum at %s: %d rows for %d pairs"
                         % (lam, len(rows), len(pairs)))
            continue
        cols = list(zip(*rows))
        for a in range(len(cols)):
            for b in range(a, len(cols)):
                s = vec_dot(cols[a], cols[b])
                if s != (RS_ONE if a == b else RS_ZERO):
                    fails.append("ket-sum at %s: columns %d,%d give %s"
                                 % (lam, a, b, s))
    return fails
