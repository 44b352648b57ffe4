"""Sparse exact linear algebra for the Racah system.

Only what the coupling engine needs: null spaces, rank and reduced row
echelon form, Gram matrices, the orthonormality check, and Gram-Schmidt
under a dot product restricted to a set of positions.

A matrix is a list of sparse rows {column: Radical}: each nonzero entry
of a Racah relation matrix is a single radical (one generator reduced
matrix element times one recoupling symbol).  The matrix factors as
M = diag(sqrt a) Q diag(sqrt b) with Q rational and a_i, b_j
squarefree.  M and Q have the same null space up to the column scales
sqrt(b_j), and so the same free columns.  A matrix without this form
raises NotFactorable.

The null space of Q comes from Racah's recursion in the relation rows,
run on the integer rows of Q mod p, p = 2^61 - 1: a row with one
unknown column fixes it as a linear form in parameters, a row with none
is a constraint, and where the walk stalls the highest unknown column
becomes a new parameter.  The kernel of the small constraint matrix,
by Gauss-Jordan mod p, gives the null vectors; reduced at their highest
columns they are the canonical basis, whose free columns are the
complement of the RREF pivots, so the rank and the RREF follow from it.
Each entry is reconstructed as a fraction, and a certificate makes the
result exact: every null vector must pass Q v = 0 in integers.  A zero
pivot residue or a failed certificate moves on to more primes (CRT);
there is no other solver.
"""

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import DegenerateForm, InternalInconsistency, NotFactorable
from .exact import RS_ONE, RS_ZERO, Radical, _radical


class ExactMatrix:
    """Sparse matrix: entries[i] is row i as {column: nonzero Radical}.

    rank(), nullspace() and rref() all follow from one canonical
    null-space basis, computed once and shared.
    """

    def __init__(self, entries, ncols):
        self.entries = entries
        self.ncols = ncols
        self._null = None

    @property
    def nrows(self):
        return len(self.entries)

    def matvec(self, v):
        return [sum((v[j] * x for j, x in row.items() if not v[j].is_zero()),
                    RS_ZERO) for row in self.entries]

    def nullspace(self):
        """Canonical null-space basis: one dense vector per free column.

        The free columns are those of the RREF, taken in descending
        order.  The vector of free column f has entry 1 at f, 0 at the
        other free columns and nonzeros only below f, so the first
        vector carries its unit at the highest free column; downstream
        this makes the first resolved multiplicity channel the one built
        on the highest-weight coefficient.  A rational null vector u of
        Q (see _factor) is the vector u_j sqrt(b_f / b_j) of the matrix.
        The basis is built once; callers share it and must not change
        it.
        """
        if self._null is None:
            q, b = _factor(self.entries, self.ncols)
            self._null = []
            for u in _kernel_exact(q, self.ncols):
                f = max(u)
                v = [RS_ZERO] * self.ncols
                for j, x in u.items():
                    # the classes b are squarefree, so no square split
                    v[j] = _radical(x.numerator, x.denominator, b[f]) \
                        * _radical(1, b[j], b[j])
                self._null.append(v)
        return self._null

    def rank(self):
        return self.ncols - len(self.nullspace())

    def rref(self):
        """Reduced row echelon form; returns (rows, pivot column list).

        The RREF is the canonical one (unique for given column order);
        its rows come sparse, {column: Radical} over the nonzero
        entries.  It is read off the null space: the pivots are the
        columns that are not free, and row i holds 1 at its pivot p and
        minus entry p of the null vector of each free column f at f.
        """
        basis = self.nullspace()
        free = [max(j for j, x in enumerate(v) if not x.is_zero()) for v in basis]
        pivots = sorted(set(range(self.ncols)).difference(free))
        rows = [{p: RS_ONE} for p in pivots]
        for row, p in zip(rows, pivots):
            row.update((f, -v[p]) for f, v in zip(free, basis) if not v[p].is_zero())
        return rows, pivots


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


def _kernel_exact(q, ncols):
    """Canonical null-space basis over Q of the sparse integer rows q.

    One vector {column: Fraction} without zeros per free column f of
    the RREF, in descending f: 1 at f, 0 at the other free columns and
    nonzeros only below f.  That is the D x ncols kernel reduced at its
    highest columns, which fixes it uniquely.  _kernel_mod finds it mod
    p, and each entry is reconstructed from its residue mod m as a
    fraction (Wang, Guy and Davenport; m is p or a product of primes).
    Every vector must then pass Q v = 0 in integers.  That is a
    certificate: rank mod p is at most rank over Q, so the nullity over
    Q is at most D, and the D certified vectors, independent through
    their free columns, show it is at least D; in reduced form they are
    then the unique canonical basis.  A prime whose walk meets a pivot
    residue of zero is skipped.  If the certificate fails (an unlucky
    prime, or entries too large for m), the next prime is tried: kernels
    with the same free columns are combined by the Chinese remainder
    theorem, and a prime whose RREF pivots are worse (lower rank, or
    later pivots at equal rank, as only an unlucky prime gives) is
    skipped.  Running out of primes raises InternalInconsistency.
    """
    key = None
    for p in _PRIMES:
        ker = _kernel_mod(q, ncols, p)
        if ker is None:
            continue
        free = {max(v) for v in ker}
        new = (len(free), [c for c in range(ncols) if c not in free])
        if key is None or new < key:
            key, res, m = new, ker, p
        elif new == key:
            res = [{c: _crt(r.get(c, 0), m, s.get(c, 0), p) for c in r.keys() | s.keys()}
                   for r, s in zip(res, ker)]
            m *= p
        else:
            continue
        vecs = [{c: x for c, u in v.items() if (x := _rational(u, m))} for v in res]
        if _annihilated(q, vecs):
            return vecs
    raise InternalInconsistency(
        "elimination not certified after %d primes" % len(_PRIMES))


def _kernel_mod(q, ncols, p):
    """Null space of q mod p by propagation through the rows, the walk
    of Racah's recursion; None if a pivot residue is zero mod p.

    Each column gets a linear form in parameters.  A row with one
    column still unknown fixes that column (a pivot residue of zero
    gives up on p); a row with none left is a constraint on the
    parameters.  When the walk stalls, the highest unknown column
    becomes a new parameter.  The kernel of the constraints, by
    _rref_mod, maps to D null vectors, which come reduced at their
    highest columns: vector i is 1 at its free column f_i, 0 at the
    other free columns and 0 above f_i, in descending f_i.
    """
    by_col = [[] for _ in range(ncols)]
    for i, row in enumerate(q):
        for j in row:
            by_col[j].append(i)
    left = [len(row) for row in q]
    ready = [i for i, n in enumerate(left) if n == 1]
    form = [None] * ncols
    cons, nparams, top = [], 0, ncols - 1

    def fix(c, f, src):
        form[c] = f
        for i in by_col[c]:
            left[i] -= 1
            if i == src:
                continue
            if left[i] == 1:
                ready.append(i)
            elif not left[i]:
                cons.append(i)

    while True:
        while ready:
            i = ready.pop()
            if left[i] != 1:
                continue
            acc = {}
            for j, x in q[i].items():
                fj = form[j]
                if fj is None:
                    u, piv = j, x
                    continue
                for k, y in fj.items():
                    acc[k] = acc.get(k, 0) + x * y
            if not piv % p:
                return None
            s = -pow(piv, -1, p)
            fix(u, {k: r for k, y in acc.items() if (r := y * s % p)}, i)
        while top >= 0 and form[top] is not None:
            top -= 1
        if top < 0:
            break
        fix(top, {nparams: 1}, None)
        nparams += 1

    rows = []
    for i in cons:
        acc = {}
        for j, x in q[i].items():
            for k, y in form[j].items():
                acc[k] = acc.get(k, 0) + x * y
        rows.append(acc)
    red, pivots = _rref_mod(rows, nparams, p)
    ts = []
    for k in sorted(set(range(nparams)).difference(pivots)):
        t = {k: 1}
        t.update((pc, p - row[k]) for row, pc in zip(red, pivots) if k in row)
        ts.append(t)
    vecs = [{} for _ in ts]
    for c, fc in enumerate(form):
        for v, t in zip(vecs, ts):
            if (x := sum(y * t[k] for k, y in fc.items() if k in t) % p):
                v[c] = x
    # reduce at the highest columns: the RREF of the kernel read with its
    # columns reversed
    last = ncols - 1
    red, lead = _rref_mod([{last - c: x for c, x in v.items()} for v in vecs], ncols, p)
    return [{last - f: 1, **{last - c: x for c, x in row.items()}}
            for row, f in zip(red, lead)]


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


def _annihilated(q, vecs):
    """True if every vector has Q v = 0 exactly."""
    for v in vecs:
        d = lcm(*[x.denominator for x in v.values()])
        w = {c: x.numerator * (d // x.denominator) for c, x in v.items()}
        if any(sum(x * w[j] for j, x in row.items() if j in w) for row in q):
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


def gram(vectors, idxs):
    """Gram matrix of the vectors under vec_dot over idxs."""
    return [[vec_dot(u, v, idxs) for v in vectors] for u in vectors]


def off_identity(vectors, dot=vec_dot):
    """(a, b, <a|b>) for each pair a <= b of vectors whose inner product
    under dot is not the identity's entry: 1 if a == b, else 0."""
    return [(a, b, s) for a, u in enumerate(vectors)
            for b, v in enumerate(vectors[a:], a)
            if (s := dot(u, v)) != (RS_ONE if a == b else RS_ZERO)]


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
        inv_norm = Radical(1, 1 / q)
        out.append([x * inv_norm for x in u])
    return out
