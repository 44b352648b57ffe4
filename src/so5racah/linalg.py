"""Sparse exact linear algebra for the Racah system.

Only what the coupling engine needs: reduced row echelon form, rank,
null spaces, and Gram-Schmidt under a dot product restricted to a set of
positions.

A matrix is a list of sparse rows {column: Radical}: each nonzero entry
of a Racah relation matrix is a single radical (one generator reduced
matrix element times one recoupling symbol).  Elimination runs over the
rationals: the matrix factors as M = diag(sqrt a) Q diag(sqrt b) with Q
rational and a_i, b_j squarefree.  M and Q have the same pivot columns,
and row i of RREF(M) is row i of RREF(Q) times sqrt(b_f / b_p) at
column f, p being the pivot column of row i.  A matrix without this
form raises NotFactorable.
"""

from fractions import Fraction

from .errors import DegenerateForm, NotFactorable
from .exact import RS_ONE, RS_ZERO, Radical, root_of_rational


class ExactMatrix:
    """Sparse matrix: entries[i] is row i as {column: nonzero Radical}."""

    def __init__(self, entries, ncols):
        self.entries = entries
        self.ncols = ncols
        self._rref = None

    @property
    def nrows(self):
        return len(self.entries)

    def matvec(self, v):
        return [sum((v[j] * x for j, x in row.items() if not v[j].is_zero()),
                    RS_ZERO) for row in self.entries]

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list).

        The RREF is the canonical one (unique for given column order);
        its rows come sparse, {column: Radical} over the nonzero
        entries.  Gauss-Jordan runs on the sparse rational rows of Q,
        pivoting on the shortest candidate row (less fill-in, same
        result).
        """
        if self._rref is not None:
            return self._rref
        nr = self.nrows
        m, b = _factor(self.entries, self.ncols)
        pivots = []
        for col in range(self.ncols):
            pr = len(pivots)
            cands = [i for i in range(pr, nr) if col in m[i]]
            if not cands:
                continue
            best = min(cands, key=lambda i: len(m[i]))
            m[pr], m[best] = m[best], m[pr]
            inv = 1 / m[pr].pop(col)
            prow = {c: v * inv for c, v in m[pr].items()}
            for row in m:
                f = row.pop(col, None)
                if f is not None:
                    for c, v in prow.items():
                        x = row.get(c, 0) - f * v
                        if x:
                            row[c] = x
                        else:
                            del row[c]
            prow[col] = Fraction(1)
            m[pr] = prow
            pivots.append(col)
        red = [{f: Radical(x, b[f]) * Radical(Fraction(1, b[p]), b[p])
                for f, x in row.items()} for row, p in zip(m, pivots)]
        self._rref = (red, pivots)
        return self._rref

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Canonical null-space basis from the RREF free columns.

        One dense basis vector per free column, with entry 1 at its
        free column, 0 at the other free columns, and the negated RREF
        entries at the pivot columns.  Free columns are taken in
        descending order, so the first basis vector is the one carrying
        the unit entry at the highest column position; downstream this
        makes the first resolved multiplicity channel the one built on
        the highest-weight coefficient.
        """
        red, pivots = self.rref()
        nc = self.ncols
        pivset = set(pivots)
        free = [c for c in range(nc - 1, -1, -1) if c not in pivset]
        basis = []
        for f in free:
            v = [RS_ZERO] * nc
            v[f] = RS_ONE
            for row, pc in zip(red, pivots):
                entry = row.get(f)
                if entry is not None:
                    v[pc] = (-entry).as_sum()
            basis.append(v)
        return basis


def _factor(entries, ncols):
    """Split entries = diag(sqrt a) Q diag(sqrt b); returns (Q, b).

    Q comes as sparse rows {column: Fraction}.  The classes are spread
    over the row/column graph of the nonzero entries, each connected
    part rooted at a row with a_i = 1: an entry times sqrt(a_i) is a
    rational multiple of sqrt(b_j), and times sqrt(b_j) one of sqrt(a_i).
    Setting b_j checks every entry of column j.  Empty columns get 1.
    """
    by_col = [[] for _ in range(ncols)]
    for i, row in enumerate(entries):
        for j in row:
            by_col[j].append(i)
    a = [None] * len(entries)
    b = [None] * ncols
    for root in range(len(entries)):
        if a[root] is not None:
            continue
        a[root] = 1
        todo = [root]
        while todo:
            i = todo.pop()
            for j, x in entries[i].items():
                if b[j] is not None:
                    continue
                b[j] = (x * Radical(1, a[i])).rad
                for k in by_col[j]:
                    ak = (entries[k][j] * Radical(1, b[j])).rad
                    if a[k] is None:
                        a[k] = ak
                        todo.append(k)
                    elif a[k] != ak:
                        raise NotFactorable("entry (%d, %d): radical class "
                                            "conflict" % (k, j))
    # row i of diag(sqrt a) M is diag(a) Q diag(sqrt b)
    q = [{j: (x * Radical(1, a[i])).coeff / a[i] for j, x in row.items()}
         for i, row in enumerate(entries)]
    return q, [1 if x is None else x for x in b]


def vec_dot(u, v):
    out = RS_ZERO
    for a, b in zip(u, v):
        if not a.is_zero() and not b.is_zero():
            out = out + a * b
    return out


def gram_schmidt(vectors, idxs):
    """Orthonormalize under <u, v> = sum over i in idxs of u[i] v[i],
    preserving the span.

    The first output is a positive multiple of the first input, so the
    input's sign survives.  Squared norms must come out as positive
    rationals (they do for the inner products arising here); otherwise
    DegenerateForm is raised.
    """
    def dot(u, v):
        return vec_dot([u[i] for i in idxs], [v[i] for i in idxs])

    out = []
    for v in vectors:
        u = list(v)
        for w in out:
            ov = dot(w, v)
            if not ov.is_zero():
                u = [a - ov * b for a, b in zip(u, w)]
        n2 = dot(u, u)
        try:
            q = n2.rational()
        except ValueError:
            raise DegenerateForm("irrational squared norm %s" % n2) from None
        if q <= 0:
            raise DegenerateForm("squared norm %s is not positive" % q)
        inv_norm = root_of_rational(Fraction(1), Fraction(1) / q).as_sum()
        out.append([x * inv_norm for x in u])
    return out
