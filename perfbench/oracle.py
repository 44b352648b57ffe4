"""Output checks for the benchmark, computed apart from so5racah.

Nothing here imports the program.  Values arrive as the canonical text
the program prints and stores ("-sqrt(4/5)", "sqrt(1/2) - sqrt(1/3)")
and are parsed into this module's own exact numbers: sums of rationals
times square roots of squarefree integers.  Labels arrive as strings
"(X,Y)" and half-integers "3/2".  Payloads have the shape of the
program's store records (kind "block", "chain2-table" or
"chain3-table"); in-memory results are converted to that shape by the
workloads before they are checked.

Every check returns a list of problem strings; an empty list passes.
"""

import hashlib
import json
import math
import re
from collections import Counter
from fractions import Fraction

# -- exact numbers ----------------------------------------------------------


def _squarefree_split(n):
    """n = s*s*r with r squarefree; returns (s, r)."""
    s, r, p = 1, 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        s *= p ** (e // 2)
        if e % 2:
            r *= p
        p += 1
    return s, r * n


class Surd:
    """Exact sum of q*sqrt(r) over distinct squarefree r >= 1."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {r: q for r, q in (terms or {}).items() if q}

    @staticmethod
    def sqrt_of(sign, q):
        """sign * sqrt(q) for a rational q >= 0."""
        q = Fraction(q)
        if q == 0:
            return Surd()
        s, r = _squarefree_split(q.numerator * q.denominator)
        return Surd({r: Fraction(sign * s, q.denominator)})

    def __add__(self, other):
        out = dict(self.terms)
        for r, q in other.terms.items():
            out[r] = out.get(r, 0) + q
        return Surd(out)

    def __neg__(self):
        return Surd({r: -q for r, q in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for ra, qa in self.terms.items():
            for rb, qb in other.terms.items():
                g = math.gcd(ra, rb)
                r = (ra // g) * (rb // g)
                out[r] = out.get(r, 0) + qa * qb * g
        return Surd(out)

    def __eq__(self, other):
        return isinstance(other, Surd) and self.terms == other.terms

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def is_zero(self):
        return not self.terms

    def __float__(self):
        return sum((float(q) * math.sqrt(r) for r, q in self.terms.items()), 0.0)

    def __repr__(self):
        return "Surd(%r)" % (self.terms,)


ONE = Surd({1: Fraction(1)})
ZERO = Surd()

_TERM = re.compile(r"\s*([+-])?\s*(?:sqrt\((\d+)(?:/(\d+))?\)|(\d+)(?:/(\d+))?)\s*")


def parse(text):
    """Parse the canonical value text; raises ValueError on anything else."""
    pos, total, first = 0, Surd(), True
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos or (not first and m.group(1) is None):
            raise ValueError("cannot parse value %r" % text)
        sign = -1 if m.group(1) == "-" else 1
        if m.group(2) is not None:
            term = Surd.sqrt_of(sign, Fraction(int(m.group(2)), int(m.group(3) or 1)))
        else:
            term = Surd({1: Fraction(sign * int(m.group(4)), int(m.group(5) or 1))})
        total = total + term
        pos, first = m.end(), False
    if first:
        raise ValueError("empty value %r" % text)
    return total


def half(text):
    """Half-integer text ("3/2", "-1", "0") as a doubled int."""
    f = Fraction(text)
    if (2 * f).denominator != 1:
        raise ValueError("not a half-integer: %r" % text)
    return int(2 * f)


def pair(text):
    """"(X,Y)" label text as a pair of doubled ints."""
    m = re.fullmatch(r"\((-?[0-9/]+),(-?[0-9/]+)\)", text)
    if not m:
        raise ValueError("bad label %r" % text)
    return half(m.group(1)), half(m.group(2))


# -- representation theory, from first principles ---------------------------
# Irreps are (R,S) as doubled ints (tR, tS).  In the orthogonal basis the
# highest weight is (l1, l2) = (R+S, R-S); rho = (3/2, 1/2).


def weyl_dim(tR, tS):
    """Weyl dimension of the SO(5) irrep (R,S)."""
    l1, l2 = Fraction(tR + tS, 2), Fraction(tR - tS, 2)
    rho1, rho2 = Fraction(3, 2), Fraction(1, 2)
    a, b = l1 + rho1, l2 + rho2          # shifted weight
    # positive roots e1-e2, e1+e2, e1, e2
    num = (a - b) * (a + b) * a * b
    den = (rho1 - rho2) * (rho1 + rho2) * rho1 * rho2
    d = num / den
    if d.denominator != 1:
        raise ValueError("non-integral dimension for %s" % ((tR, tS),))
    return int(d)


def casimir(tR, tS):
    """Quadratic Casimir (lambda, lambda + 2 rho) of (R,S)."""
    l1, l2 = Fraction(tR + tS, 2), Fraction(tR - tS, 2)
    return l1 * (l1 + 3) + l2 * (l2 + 1)


def so4_content(tR, tS):
    """SO(4) = SU(2)xSU(2) labels (tX, tY) in (R,S), each once:
    (X, Y) = (R - (n+m)/2, S + (n-m)/2) for n = 0..2(R-S), m = 0..2S.
    The rule is checked against the Weyl dimension."""
    out = set()
    for n in range(0, tR - tS + 1):
        for m in range(0, tS + 1):
            out.add((tR - n - m, tS + n - m))
    if sum((x + 1) * (y + 1) for x, y in out) != weyl_dim(tR, tS):
        raise ValueError("SO(4) content of %s misses the dimension" % ((tR, tS),))
    return out


def weights(tR, tS):
    """Weight multiset (tMX, tMY) of (R,S), from its SO(4) content."""
    c = Counter()
    for tx, ty in so4_content(tR, tS):
        for mx in range(-tx, tx + 1, 2):
            for my in range(-ty, ty + 1, 2):
                c[(mx, my)] += 1
    return c


def _ladder_mults(counts):
    """Multiplicities of an SU(2) subalgebra from its M counts (doubled)."""
    out = {}
    for tm, n in counts.items():
        if tm >= 0:
            mu = n - counts.get(tm + 2, 0)
            if mu < 0:
                raise ValueError("non-unimodal weight counts")
            if mu:
                out[tm] = mu
    return out


def chain2_labels(tR, tS):
    """{(tMS, tT): multiplicity} of the isospin chain, by weight counting
    with M_S = M_X + M_Y and M_T = M_X - M_Y."""
    by_ms = {}
    for (mx, my), n in weights(tR, tS).items():
        ms, mt = mx + my, mx - my
        by_ms.setdefault(ms, Counter())[mt] += n
    out = {}
    for ms, counts in by_ms.items():
        for tt, mu in _ladder_mults(counts).items():
            out[(ms, tt)] = mu
    return out


def chain3_labels(tR, tS):
    """{tL: multiplicity} of the angular-momentum chain, M_L = M_X + 3 M_Y."""
    counts = Counter()
    for (mx, my), n in weights(tR, tS).items():
        counts[mx + 3 * my] += n
    return _ladder_mults(counts)


def triangle(ta, tb, tc):
    return abs(ta - tb) <= tc <= ta + tb and (ta + tb + tc) % 2 == 0


def check_kronecker(g1, g2, series):
    """Dimension and Casimir-trace sums of one Kronecker series.

    g1, g2 are (tR, tS); series maps (tR, tS) to outer multiplicity.
    Sum m*dim = dim1*dim2 and sum m*dim*C2 = dim1*dim2*(C2(g1)+C2(g2)):
    the Casimir of the product is C2 x 1 + 1 x C2 + 2 sum X x X, and the
    cross term is traceless.
    """
    d1, d2 = weyl_dim(*g1), weyl_dim(*g2)
    dims = sum(m * weyl_dim(*g) for g, m in series.items())
    cas = sum(m * weyl_dim(*g) * casimir(*g) for g, m in series.items())
    out = []
    if dims != d1 * d2:
        out.append("%s x %s: dimension sum %d, want %d" % (g1, g2, dims, d1 * d2))
    want = d1 * d2 * (casimir(*g1) + casimir(*g2))
    if cas != want:
        out.append("%s x %s: Casimir trace %s, want %s" % (g1, g2, cas, want))
    return out


# -- orthonormality ---------------------------------------------------------


def _orthonormal(vectors, where):
    """vectors: list of dicts pos -> Surd; checks <a|b> = delta_ab."""
    out = []
    for a in range(len(vectors)):
        for b in range(a, len(vectors)):
            s = Surd()
            va, vb = vectors[a], vectors[b]
            for k, x in va.items():
                y = vb.get(k)
                if y is not None:
                    s = s + x * y
            want = ONE if a == b else ZERO
            if s != want:
                out.append("%s: <%d|%d> = %r" % (where, a, b, s.terms))
    return out


def _rows_of(payload):
    """(coupled label, uncoupled label, values) triples of a payload.

    The coupled label is what is held fixed in the bra sum; the uncoupled
    label is summed over.
    """
    kind = payload["kind"]
    out = []
    if kind == "block":
        vecs = payload["vectors"]
        for i, (l1, l2, l) in enumerate(payload["columns"]):
            out.append(((pair(l),), (pair(l1), pair(l2)),
                        [parse(v[i]) for v in vecs]))
    elif kind == "chain2-table":
        for d in payload["rows"]:
            out.append(((half(d["ms"]), d["k"], half(d["t"])),
                        (half(d["ms1"]), d["k1"], half(d["t1"]),
                         half(d["ms2"]), d["k2"], half(d["t2"])),
                        [parse(v) for v in d["values"]]))
    elif kind == "chain3-table":
        for d in payload["rows"]:
            out.append(((d["a"], half(d["l"])),
                        (d["a1"], half(d["l1"]), d["a2"], half(d["l2"])),
                        [parse(v) for v in d["values"]]))
    else:
        raise ValueError("unknown payload kind %r" % kind)
    return out


def _nrho(payload):
    if payload["kind"] == "block":
        return len(payload["vectors"])
    return len(payload["rows"][0]["values"]) if payload["rows"] else 0


def _expected_rows(payload):
    """Every (coupled label, uncoupled label) the coupling must list,
    zero values included, from weight counting."""
    kind = payload["kind"]
    g1, g2, g = (pair(payload[k]) for k in ("g1", "g2", "g"))
    if kind == "block":
        return {((l,), free) for l in so4_content(*g)
                for free in _expected_free(kind, g1, g2, (l,))}
    if kind == "chain2-table":
        return {((ms, k, t), free) for (ms, t), mu in chain2_labels(*g).items()
                for k in range(1, mu + 1)
                for free in _expected_free(kind, g1, g2, (ms, t))}
    return {((a, l), free) for l, mu in chain3_labels(*g).items()
            for a in range(1, mu + 1)
            for free in _expected_free(kind, g1, g2, (l,))}


def check_bra_sums(payload):
    """Row set and bra-sum orthonormality of one coupling: it lists every
    allowed label combination once, and for fixed coupled label ((XY);
    (M_S, kappa, T); (alpha, L)) the rho vectors over the uncoupled
    labels are orthonormal."""
    name = "%s %s x %s -> %s" % (payload["kind"], payload["g1"], payload["g2"],
                                 payload["g"])
    try:
        rows = _rows_of(payload)
        expected = _expected_rows(payload)
    except (ValueError, KeyError) as e:
        return ["%s: unreadable (%s)" % (name, e)]
    d = _nrho(payload)
    groups = {}
    for fixed, free, vals in rows:
        if len(vals) != d:
            return ["%s: row %s has %d values for D=%d" % (name, free, len(vals), d)]
        g = groups.setdefault(fixed, [dict() for _ in range(d)])
        for rho in range(d):
            if free in g[rho]:
                return ["%s: duplicate row %s" % (name, (fixed, free))]
            g[rho][free] = vals[rho]
    out = []
    listed = {(fixed, free) for fixed, free, _ in rows}
    if listed != expected:
        out.append("%s: %d rows missing, %d rows not allowed"
                   % (name, len(expected - listed), len(listed - expected)))
    for fixed, vecs in sorted(groups.items()):
        out += _orthonormal(vecs, "%s bra-sum at %s" % (name, fixed))
    return out


def _expected_free(kind, g1, g2, fixed_outer):
    """All uncoupled labels that can couple to the given outer label."""
    if kind == "block":
        (l,) = fixed_outer
        return {(a, b) for a in so4_content(*g1) for b in so4_content(*g2)
                if triangle(a[0], b[0], l[0]) and triangle(a[1], b[1], l[1])}
    if kind == "chain2-table":
        ms, t = fixed_outer
        c1, c2 = chain2_labels(*g1), chain2_labels(*g2)
        return {(ms1, k1, t1, ms2, k2, t2)
                for (ms1, t1), mu1 in c1.items() for (ms2, t2), mu2 in c2.items()
                if ms1 + ms2 == ms and triangle(t1, t2, t)
                for k1 in range(1, mu1 + 1) for k2 in range(1, mu2 + 1)}
    (l,) = fixed_outer
    c1, c2 = chain3_labels(*g1), chain3_labels(*g2)
    return {(a1, l1, a2, l2)
            for l1, mu1 in c1.items() for l2, mu2 in c2.items()
            if triangle(l1, l2, l)
            for a1 in range(1, mu1 + 1) for a2 in range(1, mu2 + 1)}


def check_ket_sums(payloads):
    """Ket-sum completeness over the whole Kronecker series of one pair.

    payloads: every record of one chain for one (g1, g2), one per product
    irrep g.  For each outer label with the multiplicity index dropped
    ((XY); (M_S, T); L) the coefficients form a square matrix over
    rows (g, rho, multiplicity index) and the uncoupled labels, and its
    columns must be orthonormal.
    """
    if not payloads:
        return ["empty series"]
    kind = payloads[0]["kind"]
    g1, g2 = pair(payloads[0]["g1"]), pair(payloads[0]["g2"])
    name = "%s %s x %s" % (kind, payloads[0]["g1"], payloads[0]["g2"])
    cols = {}   # outer -> {row id -> {free: value}}
    try:
        for p in payloads:
            for fixed, free, vals in _rows_of(p):
                if kind == "block":
                    outer, k = fixed, 0
                elif kind == "chain2-table":
                    outer, k = (fixed[0], fixed[2]), fixed[1]
                else:
                    outer, k = (fixed[1],), fixed[0]
                for rho, v in enumerate(vals):
                    cols.setdefault(outer, {}).setdefault(
                        (p["g"], rho, k), {})[free] = v
    except (ValueError, KeyError) as e:
        return ["%s: unreadable (%s)" % (name, e)]
    out = []
    for outer, rows in sorted(cols.items()):
        free = _expected_free(kind, g1, g2, outer)
        extra = {f for r in rows.values() for f in r} - free
        if extra:
            out.append("%s at %s: labels outside the coupling %s"
                       % (name, outer, sorted(extra)[:3]))
        if len(rows) != len(free):
            out.append("%s ket-sum at %s: %d coupled states for %d product states"
                       % (name, outer, len(rows), len(free)))
            continue
        order = sorted(free)
        colvecs = [{rid: r[f] for rid, r in rows.items() if f in r} for f in order]
        out += _orthonormal(colvecs, "%s ket-sum at %s" % (name, outer))
    return out


# -- published values -------------------------------------------------------

# (1/2,1/2) x (1/2,0) -> (1/2,0), the vector-coupling block.
VECTOR_BLOCK = [
    (("(0,0)", "(0,1/2)", "(0,1/2)"), "-sqrt(1/5)"),
    (("(1/2,1/2)", "(1/2,0)", "(0,1/2)"), "-sqrt(4/5)"),
    (("(0,0)", "(1/2,0)", "(1/2,0)"), "sqrt(1/5)"),
    (("(1/2,1/2)", "(0,1/2)", "(1/2,0)"), "sqrt(4/5)"),
]

# Isospin-chain factors of (1,0) x (1,1/2) -> (1,1/2): every row that is
# not identically zero, keyed (MS1, MS2, MS, T1, T2, T), values for
# rho = 1, 2.
ISOSPIN_TABLE = [
    (("1", "1/2", "3/2", "1", "1/2", "1/2"), "sqrt(1/3)", "-sqrt(1/7)"),
    (("1", "1/2", "3/2", "1", "3/2", "1/2"), "sqrt(4/15)", "sqrt(16/35)"),
    (("1", "-1/2", "1/2", "1", "1/2", "1/2"), "-sqrt(4/45)", "-sqrt(12/35)"),
    (("1", "-1/2", "1/2", "1", "1/2", "3/2"), "sqrt(2/9)", "0"),
    (("1", "-1/2", "1/2", "1", "3/2", "1/2"), "-sqrt(4/9)", "0"),
    (("1", "-1/2", "1/2", "1", "3/2", "3/2"), "-sqrt(1/9)", "sqrt(3/7)"),
    (("1", "-3/2", "-1/2", "1", "1/2", "1/2"), "-sqrt(1/3)", "sqrt(1/7)"),
    (("1", "-3/2", "-1/2", "1", "1/2", "3/2"), "sqrt(2/15)", "sqrt(8/35)"),
    (("0", "3/2", "3/2", "0", "1/2", "1/2"), "-sqrt(3/10)", "-sqrt(1/70)"),
    (("0", "3/2", "3/2", "1", "1/2", "1/2"), "-sqrt(1/10)", "sqrt(27/70)"),
    (("0", "1/2", "1/2", "0", "1/2", "1/2"), "-sqrt(1/30)", "-sqrt(9/70)"),
    (("0", "1/2", "1/2", "0", "3/2", "3/2"), "-sqrt(1/30)", "sqrt(9/70)"),
    (("0", "1/2", "1/2", "1", "1/2", "1/2"), "-sqrt(1/10)", "sqrt(1/210)"),
    (("0", "1/2", "1/2", "1", "1/2", "3/2"), "0", "-sqrt(4/21)"),
    (("0", "1/2", "1/2", "1", "3/2", "1/2"), "0", "sqrt(8/21)"),
    (("0", "1/2", "1/2", "1", "3/2", "3/2"), "-sqrt(1/2)", "-sqrt(1/42)"),
    (("0", "-1/2", "-1/2", "0", "1/2", "1/2"), "sqrt(1/30)", "sqrt(9/70)"),
    (("0", "-1/2", "-1/2", "0", "3/2", "3/2"), "sqrt(1/30)", "-sqrt(9/70)"),
    (("0", "-1/2", "-1/2", "1", "1/2", "1/2"), "-sqrt(1/10)", "sqrt(1/210)"),
    (("0", "-1/2", "-1/2", "1", "1/2", "3/2"), "0", "-sqrt(4/21)"),
    (("0", "-1/2", "-1/2", "1", "3/2", "1/2"), "0", "sqrt(8/21)"),
    (("0", "-1/2", "-1/2", "1", "3/2", "3/2"), "-sqrt(1/2)", "-sqrt(1/42)"),
    (("0", "-3/2", "-3/2", "0", "1/2", "1/2"), "sqrt(3/10)", "sqrt(1/70)"),
    (("0", "-3/2", "-3/2", "1", "1/2", "1/2"), "-sqrt(1/10)", "sqrt(27/70)"),
    (("-1", "3/2", "1/2", "1", "1/2", "1/2"), "sqrt(1/3)", "-sqrt(1/7)"),
    (("-1", "3/2", "1/2", "1", "1/2", "3/2"), "-sqrt(2/15)", "-sqrt(8/35)"),
    (("-1", "1/2", "-1/2", "1", "1/2", "1/2"), "-sqrt(4/45)", "-sqrt(12/35)"),
    (("-1", "1/2", "-1/2", "1", "1/2", "3/2"), "sqrt(2/9)", "0"),
    (("-1", "1/2", "-1/2", "1", "3/2", "1/2"), "-sqrt(4/9)", "0"),
    (("-1", "1/2", "-1/2", "1", "3/2", "3/2"), "-sqrt(1/9)", "sqrt(3/7)"),
    (("-1", "-1/2", "-3/2", "1", "1/2", "1/2"), "-sqrt(1/3)", "sqrt(1/7)"),
    (("-1", "-1/2", "-3/2", "1", "3/2", "1/2"), "-sqrt(4/15)", "-sqrt(16/35)"),
]


def _match_up_to_sign(pairs, where):
    """pairs: (key, want Surd, have Surd) of one rho; one global sign."""
    sigma = 0
    out = []
    for key, want, have in pairs:
        if want.is_zero():
            if not have.is_zero():
                out.append("%s %s: %r, want 0" % (where, key, have.terms))
            continue
        if sigma == 0:
            sigma = 1 if have == want else -1 if have == -want else 0
            if sigma == 0:
                out.append("%s %s: %r, want +-%r" % (where, key, have.terms, want.terms))
                continue
        if have != (want if sigma == 1 else -want):
            out.append("%s %s: %r, want %s%r" % (where, key, have.terms,
                                                  "" if sigma == 1 else "-", want.terms))
    return out


def check_published(payload):
    """Compare with the published tables where the payload is one of them;
    returns (matched, problems)."""
    key = (payload["kind"], payload["g1"], payload["g2"], payload["g"])
    if key == ("block", "(1/2,1/2)", "(1/2,0)", "(1/2,0)"):
        try:
            got = {tuple(c): parse(payload["vectors"][0][i])
                   for i, c in enumerate(payload["columns"])}
        except (ValueError, KeyError, IndexError) as e:
            return True, ["vector block unreadable (%s)" % e]
        out = []
        if len(payload["vectors"]) != 1 or set(got) != {c for c, _ in VECTOR_BLOCK}:
            out.append("vector block: columns %s" % sorted(got))
            return True, out
        out += _match_up_to_sign(
            [(c, parse(v), got[c]) for c, v in VECTOR_BLOCK], "vector block")
        return True, out
    if key == ("chain2-table", "(1,0)", "(1,1/2)", "(1,1/2)"):
        got = {}
        try:
            for d in payload["rows"]:
                if (d["k1"], d["k2"], d["k"]) != (1, 1, 1):
                    return True, ["isospin table: multiplicity label above 1"]
                got[(d["ms1"], d["ms2"], d["ms"], d["t1"], d["t2"], d["t"])] = \
                    [parse(v) for v in d["values"]]
        except (ValueError, KeyError) as e:
            return True, ["isospin table unreadable (%s)" % e]
        if set(got) != {k for k, _, _ in ISOSPIN_TABLE}:
            return True, ["isospin table: row set differs (%d rows, want %d)"
                          % (len(got), len(ISOSPIN_TABLE))]
        out = []
        for rho in (0, 1):
            out += _match_up_to_sign(
                [(k, parse((a, b)[rho]), got[k][rho]) for k, a, b in ISOSPIN_TABLE],
                "isospin table rho=%d" % (rho + 1))
        return True, out
    return False, []


# -- store records and query outputs ----------------------------------------


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("utf-8")


def check_record_file(name, blob):
    """A record file: its name is the SHA-256 of its payload's canonical
    JSON, the stored meta hash agrees, and the file is itself canonical.
    Returns (payload or None, problems)."""
    try:
        record = json.loads(blob)
        payload = record["payload"]
    except (ValueError, KeyError, TypeError) as e:
        return None, ["%s: unreadable (%s)" % (name, e)]
    h = hashlib.sha256(canonical_json(payload)).hexdigest()
    out = []
    if name != h + ".json":
        out.append("%s: payload hashes to %s" % (name, h[:12]))
    if record.get("meta", {}).get("hash") != h:
        out.append("%s: meta hash differs from the payload hash" % name)
    if canonical_json(record) != blob:
        out.append("%s: file is not in canonical form" % name)
    return payload, out


def _value_cells(fmt, text, payload):
    """Value cells of each table line of a rendered record, in order."""
    lines = text.rstrip("\n").split("\n")
    d = _nrho(payload)
    if fmt == "csv":
        body = [ln.split(",") for ln in lines[1:]]
    else:
        body = [re.split(r"\s{2,}", ln.strip()) for ln in lines[2:]]
    return [cells[len(cells) - d:] if d else [] for cells in body]


def _stored_values(payload):
    if payload["kind"] == "block":
        vecs = payload["vectors"]
        return [[v[i] for v in vecs] for i in range(len(payload["columns"]))]
    return [list(d["values"]) for d in payload["rows"]]


def check_query_output(fmt, text, payload, digits=16):
    """One query's output carries the stored payload's values, in order."""
    where = "%s %s %s x %s -> %s" % (fmt, payload["chain"], payload["g1"],
                                     payload["g2"], payload["g"])
    if fmt == "json":
        try:
            return [] if json.loads(text) == payload else ["%s: payload differs" % where]
        except ValueError:
            return ["%s: not JSON" % where]
    want = _stored_values(payload)
    got = _value_cells(fmt, text, payload)
    if len(got) != len(want):
        return ["%s: %d rows, stored %d" % (where, len(got), len(want))]
    out = []
    for i, (g, w) in enumerate(zip(got, want)):
        if fmt == "float":
            tol = 10.0 ** (1 - digits)
            try:
                ok = len(g) == len(w) and all(
                    abs(float(a) - float(parse(b))) <= tol for a, b in zip(g, w))
            except ValueError:
                ok = False
        else:
            ok = g == w
        if not ok:
            out.append("%s: row %d reads %s, stored %s" % (where, i, g, w))
            break
    return out
