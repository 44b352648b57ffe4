"""Self-describing records for blocks and chain tables, plus text, csv,
and decimal rendering.

A record is a plain-JSON payload dict: labels as canonical strings,
values as canonical radical strings ("-sqrt(4/5)"), convention flags
stamped inside.  Records are hashed, diffed and rendered but never read
back into engine objects: `verify` re-derives each one from its key.
"""

import json

from .exact import parse_value, render_value
from .racah import CONVENTIONS

# per table record kind: its chain, the convention flags it adds to the
# canonical ones, and its display columns in order as (header, field,
# whether the field is a multiplicity index); multiplicity columns are
# shown only when some multiplicity exceeds 1
_TABLES = {
    "chain2-table": (
        "isospin",
        {"seed": "top-positive", "completion": "canonical-so4-ascending"},
        [("MS1", "ms1", False), ("MS2", "ms2", False), ("MS", "ms", False),
         ("T1", "t1", False), ("T2", "t2", False), ("T", "t", False),
         ("K1", "k1", True), ("K2", "k2", True), ("K", "k", True)]),
    "chain3-table": (
        "angmom",
        {"alpha": "gram-schmidt-order", "completion": "canonical-so4-mx-ascending"},
        [("A1", "a1", True), ("L1", "l1", False), ("A2", "a2", True),
         ("L2", "l2", False), ("A", "a", True), ("L", "l", False)]),
}


def canonical_json(obj):
    """Stable byte serialization used for hashing and on-disk records."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True).encode("utf-8")


# -- records ---------------------------------------------------------------

def block_record(block):
    return {
        "kind": "block",
        "chain": "so4",
        "g1": str(block.g1),
        "g2": str(block.g2),
        "g": str(block.g),
        "conventions": dict(CONVENTIONS),
        "columns": [[str(l1), str(l2), str(l)] for l1, l2, l in block.columns],
        "vectors": [[render_value(v) for v in vec] for vec in block.vectors],
    }


def _table_record(kind, g1, g2, g, rows):
    """Record of a chain table; each row's fields come from its namedtuple,
    multiplicity indices as ints and labels as strings."""
    chain, conventions, _ = _TABLES[kind]
    out = []
    for r in rows:
        d = {f: x if isinstance(x, int) else str(x)
             for f, x in zip(r._fields, r) if f != "values"}
        d["values"] = [render_value(v) for v in r.values]
        out.append(d)
    return {
        "kind": kind,
        "chain": chain,
        "g1": str(g1), "g2": str(g2), "g": str(g),
        "conventions": {**CONVENTIONS, **conventions},
        "rows": out,
    }


def chain2_record(g1, g2, g, rows):
    return _table_record("chain2-table", g1, g2, g, rows)


def chain3_record(g1, g2, g, rows):
    return _table_record("chain3-table", g1, g2, g, rows)


# -- rendering -------------------------------------------------------------

def _dvalue(s, digits):
    return str(parse_value(s).decimal(digits))


def _tabulate_text(header, rows):
    widths = [max(len(header[i]), max((len(r[i]) for r in rows), default=0))
              for i in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _nrho(rec):
    if rec["kind"] == "block":
        return len(rec["vectors"])
    return len(rec["rows"][0]["values"]) if rec["rows"] else 0


def _block_cells(rec, digits=None, split=False):
    if split:
        head = ["X1", "Y1", "X2", "Y2", "X", "Y"]
    else:
        head = ["(X1,Y1)", "(X2,Y2)", "(X,Y)"]
    head += ["rho=%d" % (i + 1) for i in range(_nrho(rec))]
    rows = []
    for i, col in enumerate(rec["columns"]):
        vals = [vec[i] for vec in rec["vectors"]]
        if digits is not None:
            vals = [_dvalue(v, digits) for v in vals]
        if split:
            cells = []
            for s in col:
                cells += s[1:-1].split(",")
        else:
            cells = list(col)
        rows.append(cells + vals)
    return head, rows


def _table_cells(rec, columns, digits=None):
    with_mult = any(d[f] > 1 for d in rec["rows"] for _, f, mult in columns if mult)
    shown = [(h, f) for h, f, mult in columns if with_mult or not mult]
    head = [h for h, _ in shown] + ["rho=%d" % (i + 1) for i in range(_nrho(rec))]
    rows = []
    for d in rec["rows"]:
        vals = list(d["values"])
        if digits is not None:
            vals = [_dvalue(v, digits) for v in vals]
        rows.append([str(d[f]) for _, f in shown] + vals)
    return head, rows


def _cells(rec, digits=None, split=False):
    if rec["kind"] == "block":
        return _block_cells(rec, digits, split)
    if rec["kind"] in _TABLES:
        return _table_cells(rec, _TABLES[rec["kind"]][2], digits)
    raise ValueError("unknown record kind %r" % rec.get("kind"))


def render_record(rec, fmt="text", digits=16):
    """Render a record payload as text, csv, json, or float."""
    if fmt == "json":
        return json.dumps(rec, sort_keys=True, indent=2) + "\n"
    if fmt == "csv":
        head, rows = _cells(rec, split=True)
        return "\n".join([",".join(head)] + [",".join(r) for r in rows]) + "\n"
    if fmt == "float":
        head, rows = _cells(rec, digits=digits)
    elif fmt == "text":
        head, rows = _cells(rec)
    else:
        raise ValueError("unknown format %r" % fmt)
    title = "%s x %s -> %s  [%s, D=%d]\n" % (
        rec["g1"], rec["g2"], rec["g"], rec["chain"], _nrho(rec))
    return title + _tabulate_text(head, rows)
