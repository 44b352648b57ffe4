"""Sparse exact linear algebra for the Racah system.

Only what the coupling engine needs: reduced row echelon form, rank,
null spaces, and Gram-Schmidt under a dot product restricted to a set of
positions.

A matrix is a list of sparse rows {column: Radical}: each nonzero entry
of a Racah relation matrix is a single radical (one generator reduced
matrix element times one recoupling symbol).  The matrix factors as
M = diag(sqrt a) Q diag(sqrt b) with Q rational and a_i, b_j
squarefree.  M and Q have the same pivot columns, and row i of RREF(M)
is row i of RREF(Q) times sqrt(b_f / b_p) at column f, p being the
pivot column of row i.  A matrix without this form raises
NotFactorable.

RREF(Q) comes from Gauss-Jordan over Z/p, p = 2^61 - 1, on the integer
rows of Q, and rational reconstruction of each entry.  A certificate
makes it exact: every null vector read off the result must pass Q v = 0
in integers.  A failed certificate retries with more primes (CRT); there
is no other solver.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DegenerateForm, InternalInconsistency, NotFactorable
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
        entries.  The rational RREF of the factor Q comes from
        _rref_exact (elimination mod p, checked exactly); row i is then
        mapped back to radicals through its pivot column.
        """
        if self._rref is not None:
            return self._rref
        q, b = _factor(self.entries, self.ncols)
        rows, pivots = _rref_exact(q, self.ncols)
        red = [{f: Radical(x, b[f]) * Radical(Fraction(1, b[p]), b[p])
                for f, x in row.items()} for row, p in zip(rows, pivots)]
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
                    v[pc] = -entry
            basis.append(v)
        return basis


def _class(r, c):
    """Radicand of sqrt(r) * sqrt(c) for squarefree r and c."""
    g = gcd(r, c)
    return (r // g) * (c // g)


def _factor(entries, ncols):
    """Split entries = diag(sqrt a) Q diag(sqrt b); returns (Q, b).

    Q comes as sparse integer rows {column: int}, row i scaled by a
    positive integer (a_i times the lcm of its denominators), which
    changes neither the RREF nor the null space.  The classes are
    spread over the row/column graph of the nonzero entries, each
    connected part rooted at a row with a_i = 1: an entry times
    sqrt(a_i) is a rational multiple of sqrt(b_j), and times sqrt(b_j)
    one of sqrt(a_i).  Setting b_j checks every entry of column j.
    Empty columns get 1.
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
                b[j] = _class(x.rad, a[i])
                for k in by_col[j]:
                    ak = _class(entries[k][j].rad, b[j])
                    if a[k] is None:
                        a[k] = ak
                        todo.append(k)
                    elif a[k] != ak:
                        raise NotFactorable("entry (%d, %d): radical class "
                                            "conflict" % (k, j))
    # x sqrt(a_i) = (num g / den) sqrt(b_j) with g = gcd(rad, a_i), so
    # a_i Q_ij = num g / den
    q = []
    for i, row in enumerate(entries):
        # a list: lcm(*generator) builds each argument tuple by resizing,
        # and those tuples pile up on the free list (peak memory)
        scale = lcm(*[x.den for x in row.values()])
        q.append({j: x.num * gcd(x.rad, a[i]) * (scale // x.den)
                  for j, x in row.items()})
    return q, [1 if x is None else x for x in b]


# Moduli of the elimination, tried in turn; each is prime.
_PRIMES = (2**61 - 1, 2**62 - 57, 2**63 - 25, 2**64 - 59)


def _rref_exact(q, ncols):
    """RREF over Q of the sparse integer rows q; returns (rows, pivots).

    rows[i] is row i as {column: Fraction} without zeros.
    Gauss-Jordan runs on the residues mod p, and each entry is
    reconstructed from its residue mod m as a fraction (Wang, Guy and
    Davenport; m is p or a product of primes).  The null vector of
    each free column f (1 at f, minus the row entries at the pivots)
    must then pass Q v = 0 in integers.  That is a certificate:
    rank mod p is at most rank over Q, and these independent vectors
    show the nullity over Q is at least the nullity mod p, so the two
    ranks agree, the reconstructed rows span the row space of Q, and
    being in RREF they are its unique RREF.  If the certificate fails
    (an unlucky prime, or entries too large for m), the next prime is
    tried: residues with the same pivots are combined by the Chinese
    remainder theorem, and a prime whose pivots are worse (lower rank,
    or later pivots at equal rank, as only an unlucky prime gives) is
    skipped.  Running out of primes raises InternalInconsistency.
    """
    key = None
    for p in _PRIMES:
        rows, pivots = _rref_mod(q, ncols, p)
        new = (-len(pivots), pivots)
        if key is None or new < key:
            key, res, m = new, rows, p
        elif new == key:
            res = [{f: _crt(r.get(f, 0), m, s.get(f, 0), p)
                    for f in r.keys() | s.keys()} for r, s in zip(res, rows)]
            m *= p
        else:
            continue
        red = [{f: x for f, u in row.items() if (x := _rational(u, m))}
               for row in res]
        if _certified(q, red, pivots):
            for row, pc in zip(red, pivots):
                row[pc] = Fraction(1)
            return red, pivots
    raise InternalInconsistency(
        "elimination not certified after %d primes" % len(_PRIMES))


def _rref_mod(q, ncols, p):
    """RREF of q mod p; row i holds its residues at the free columns.

    Gauss-Jordan pivoting on the shortest candidate row (less
    fill-in, same result).
    """
    m = [{j: r for j, x in row.items() if (r := x % p)} for row in q]
    nr = len(m)
    pivots = []
    for col in range(ncols):
        pr = len(pivots)
        cands = [i for i in range(pr, nr) if col in m[i]]
        if not cands:
            continue
        best = min(cands, key=lambda i: len(m[i]))
        m[pr], m[best] = m[best], m[pr]
        inv = pow(m[pr].pop(col), -1, p)
        prow = {c: v * inv % p for c, v in m[pr].items()}
        for row in m:
            f = row.pop(col, None)
            if f is not None:
                for c, v in prow.items():
                    x = (row.get(c, 0) - f * v) % p
                    if x:
                        row[c] = x
                    else:
                        del row[c]
        m[pr] = prow
        pivots.append(col)
    return m[:len(pivots)], pivots


def _crt(x, m, y, p):
    """The residue mod m*p that is x mod m and y mod p."""
    return x + m * ((y - x) * pow(m, -1, p) % p)


def _rational(u, m):
    """Fraction r/s with r = s u (mod m), |r| <= sqrt(m/2).

    The Euclidean sequence of (m, u) stops at the first such r; r/s is
    then the fraction with |r|, |s| <= sqrt(m/2) that matches u, if
    there is one.  If there is none, r/s is some other fraction, which
    the certificate rejects.
    """
    bound = isqrt(m // 2)
    # r = s u (mod m) holds for both rows of the sequence
    r0, r1, s0, s1 = m, u, 0, 1
    while r1 > bound:
        k = r0 // r1
        r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    return Fraction(r1, s1)


def _certified(q, rows, pivots):
    """True if every null vector read off the rows has Q v = 0 exactly."""
    # v_f is 1 at f and -rows[i][f] at pivots[i]; d[f] v_f is integral
    d = {}
    for row in rows:
        for f, x in row.items():
            d[f] = lcm(d.get(f, 1), x.denominator)
    w = {p: {f: x.numerator * (d[f] // x.denominator) for f, x in row.items()}
         for p, row in zip(pivots, rows)}
    for row in q:
        acc = {}
        for j, x in row.items():
            wj = w.get(j)
            if wj is None:
                acc[j] = acc.get(j, 0) + x * d.get(j, 1)
            else:
                for f, y in wj.items():
                    acc[f] = acc.get(f, 0) - x * y
        if any(acc.values()):
            return False
    return True


def vec_dot(u, v, idxs=None):
    """Sum of u[i] * v[i] over the positions idxs, or over all of them."""
    out = RS_ZERO
    for i in range(len(u)) if idxs is None else idxs:
        a, b = u[i], v[i]
        if not a.is_zero() and not b.is_zero():
            out = out + a * b
    return out


def gram_schmidt(vectors, idxs):
    """Orthonormalize under <u, v> = sum over i in idxs of u[i] v[i],
    preserving the span.

    The first output is a positive multiple of the first input, so the
    input's sign survives.  A squared norm is a sum of squares of single
    radicals, so it is rational; one that is not positive raises
    DegenerateForm.
    """
    out = []
    for v in vectors:
        u = list(v)
        for w in out:
            ov = vec_dot(w, v, idxs)
            if not ov.is_zero():
                u = [a - ov * b for a, b in zip(u, w)]
        q = vec_dot(u, u, idxs).rational()
        if q <= 0:
            raise DegenerateForm("squared norm %s is not positive" % q)
        inv_norm = root_of_rational(1, 1 / q)
        out.append([x * inv_norm for x in u])
    return out
