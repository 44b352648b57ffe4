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
from .exact import RS_ONE, RS_ZERO, RadicalSum, exact_sign
from .linalg import ExactMatrix, gram_schmidt, vec_dot
from .so4 import HALFHALF, So4Irrep, so4_kronecker, so4_phi, so4_triangle, so4_usixj
from .so5 import generator_rme, so5_branch_so4, so5_kronecker

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
    if outer_multiplicity(g1, g2, g) == 0:
        raise NotInSeries("%s not in %s x %s" % (g, g1, g2))
    cols = []
    for lam in so5_branch_so4(g):
        for lam1 in so5_branch_so4(g1):
            for lam2 in so5_branch_so4(g2):
                if so4_triangle(lam1, lam2, lam):
                    cols.append((lam1, lam2, lam))
    return cols


class RacahSystem:
    """Assembled system matrix with its labels."""

    def __init__(self, g1, g2, g, columns, matrix, row_labels, n_augmented):
        self.g1 = g1
        self.g2 = g2
        self.g = g
        self.columns = columns
        self.matrix = matrix
        self.row_labels = row_labels
        self.n_augmented = n_augmented


def _racah_row(g1, g2, g, colindex, lam1, lam2, lam, lamp, with_lhs):
    """One relation as a sparse row {column: Radical}, or None if empty.

    lam may lie outside branch(g) only when with_lhs is false (the
    known-zero augmentation rows).  The three kinds of term never share
    a column: the left side carries the product label lam and the
    others carry lamp, and a generator always changes the label it acts
    on, so lamp != lam and the g1 and g2 terms differ in (X1Y1).
    """
    row = {}
    if with_lhs:
        rme = generator_rme(g, lam, lamp)
        if not rme.is_zero():
            row[colindex[(lam1, lam2, lam)]] = -rme
    phi_l = so4_phi(lam1, lam2, lam)
    for lam1p in so5_branch_so4(g1):
        rme1 = generator_rme(g1, lam1, lam1p)
        if rme1.is_zero():
            continue
        u = so4_usixj(lam2, lam1p, lamp, HALFHALF, lam, lam1)
        if u.is_zero():
            continue
        row[colindex[(lam1p, lam2, lamp)]] = \
            (phi_l * so4_phi(lam1p, lam2, lamp)) * u * rme1
    for lam2p in so5_branch_so4(g2):
        rme2 = generator_rme(g2, lam2, lam2p)
        if rme2.is_zero():
            continue
        u = so4_usixj(lam1, lam2p, lamp, HALFHALF, lam, lam2)
        if u.is_zero():
            continue
        row[colindex[(lam1, lam2p, lamp)]] = u * rme2
    return row or None


def _relations(g1, g2, g, colindex, lams, with_lhs):
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
                                     lam1, lam2, lam, lamp, with_lhs)
                    if row is not None:
                        yield (lam1, lam2, lam, lamp), row


def build_system(g1, g2, g):
    """Assemble the relation matrix; all-zero rows are dropped.

    If the normal rows leave the nullity above the outer multiplicity
    (exceptional couplings where every normal row vanishes or is
    degenerate), rows with the intermediate coupling label outside
    branch(g) are appended, one candidate label at a time in canonical
    order, until the nullity matches.
    """
    D = outer_multiplicity(g1, g2, g)
    if D == 0:
        raise NotInSeries("%s not in %s x %s" % (g, g1, g2))
    columns = enumerate_columns(g1, g2, g)
    colindex = {c: i for i, c in enumerate(columns)}
    ncols = len(columns)
    branch_g = so5_branch_so4(g)

    rels = list(_relations(g1, g2, g, colindex, branch_g, True))
    n_normal = len(rels)
    matrix = ExactMatrix([row for _, row in rels], ncols)
    if matrix.rank() < ncols - D:
        # supply of outside labels: one SO(4) generator step away from
        # the branching, canonical order
        supply = sorted(
            {c for lamp in branch_g for c in so4_kronecker(lamp, HALFHALF)}
            - set(branch_g))
        for lam in supply:
            more = list(_relations(g1, g2, g, colindex, [lam], False))
            if more:
                rels += more
                matrix = ExactMatrix([row for _, row in rels], ncols)
                if matrix.rank() == ncols - D:
                    break
    if matrix.rank() != ncols - D:
        raise RankDefect(
            "%s x %s -> %s: rank %d, want %d (N=%d, D=%d)"
            % (g1, g2, g, matrix.rank(), ncols - D, ncols, D))
    return RacahSystem(g1, g2, g, columns, matrix, [lab for lab, _ in rels],
                       len(rels) - n_normal)


class IsoscalarBlock:
    """Solved, normalized reduced coupling coefficients for one coupling."""

    def __init__(self, g1, g2, g, columns, vectors, meta):
        self.g1 = g1
        self.g2 = g2
        self.g = g
        self.columns = columns
        self.vectors = vectors  # vectors[rho-1][i], RadicalSum
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
    out = {}
    for i, (_, _, lam) in enumerate(columns):
        out.setdefault(lam, []).append(i)
    return out


def _group_gram(vectors, idxs):
    """Gram matrix of the vectors restricted to the positions idxs."""
    return [[sum((u[i] * v[i] for i in idxs), RS_ZERO) for v in vectors]
            for u in vectors]


def _sign_positions(columns):
    """Column indices in the Condon-Shortley scan order.

    Primary position: highest-weight (X1Y1) and (XY) with the highest
    consistent (X2Y2); the remaining positions follow in descending
    weight order as the documented tie-break extension.
    """
    order = sorted(
        range(len(columns)),
        key=lambda i: (columns[i][0].weight_key(),
                       columns[i][2].weight_key(),
                       columns[i][1].weight_key()),
        reverse=True)
    return order


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
    groups = _group_slices(columns)

    meta = dict(CONVENTIONS)
    meta["augmented_rows"] = system.n_augmented
    meta["sign_fallback"] = False

    first = None
    for idxs in groups.values():
        m = _group_gram(basis, idxs)
        if first is None:
            first = m
        elif m != first:
            raise NormInconsistency("M differs between groups")
    unit = [[RS_ONE if r == c else RS_ZERO for c in range(D)] for r in range(D)]
    combos = gram_schmidt(unit, form=first)
    vectors = [[vec_dot(a, col) for col in zip(*basis)] for a in combos]
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
        if exact_sign(v[pos]) < 0:
            vectors[rho] = [-x for x in v]

    return IsoscalarBlock(g1, g2, g, columns, vectors, meta)


def verify_block(block, system=None):
    """Exactness report: row annihilation and bra-sum orthonormality.

    Returns a list of failure strings; empty means all checks passed.
    """
    fails = []
    if system is None:
        system = build_system(block.g1, block.g2, block.g)
    if [tuple(c) for c in system.columns] != [tuple(c) for c in block.columns]:
        fails.append("column order mismatch")
        return fails
    for rho, v in enumerate(block.vectors, start=1):
        for k, resid in enumerate(system.matrix.matvec(v)):
            if not resid.is_zero():
                fails.append("row %d (labels %s) does not annihilate rho=%d"
                             % (k, system.row_labels[k], rho))
    D = block.D
    for lam, idxs in _group_slices(block.columns).items():
        gram = _group_gram(block.vectors, idxs)
        for a in range(D):
            for b in range(a, D):
                s = gram[a][b]
                want = RadicalSum.from_rational(1 if a == b else 0)
                if s != want:
                    fails.append("bra-sum at %s: <%d|%d> = %s" % (lam, a + 1, b + 1, s))
    return fails


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
        n = len(pairs)
        for a in range(n):
            for b in range(a, n):
                s = vec_dot([rows[r][a] for r in range(n)],
                            [rows[r][b] for r in range(n)])
                want = RadicalSum.from_rational(1 if a == b else 0)
                if s != want:
                    fails.append("ket-sum at %s: columns %d,%d give %s"
                                 % (lam, a, b, s))
    return fails
