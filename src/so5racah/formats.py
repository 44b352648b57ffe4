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

def _tabulate_text(header, rows):
    widths = [max(len(header[i]), max((len(r[i]) for r in rows), default=0))
              for i in range(len(header))]
    lines = ["  ".join(h.rjust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"


def _cells(rec, digits, split):
    """(header, rows, D) of a block or chain-table record: the label
    cells of its kind, then one value per outer multiplicity rho, as
    decimals if digits is not None.  A block shows its three "(X,Y)"
    labels, two cells each if split; a chain table shows its display
    columns, the multiplicity ones only when one of them exceeds 1."""
    if rec["kind"] == "block":
        if split:
            head = ["X1", "Y1", "X2", "Y2", "X", "Y"]
            labels = ([c for s in col for c in s[1:-1].split(",")]
                      for col in rec["columns"])
        else:
            head = ["(X1,Y1)", "(X2,Y2)", "(X,Y)"]
            labels = (list(col) for col in rec["columns"])
        vectors = rec["vectors"]
        values = ([vec[i] for vec in vectors] for i in range(len(rec["columns"])))
        D = len(vectors)
    elif rec["kind"] in _TABLES:
        columns = _TABLES[rec["kind"]][2]
        rows = rec["rows"]
        with_mult = any(d[f] > 1 for d in rows for _, f, mult in columns if mult)
        shown = [(h, f) for h, f, mult in columns if with_mult or not mult]
        head = [h for h, _ in shown]
        labels = ([str(d[f]) for _, f in shown] for d in rows)
        values = (d["values"] for d in rows)
        D = len(rows[0]["values"]) if rows else 0
    else:
        raise ValueError("unknown record kind %r" % rec.get("kind"))
    if digits is not None:
        values = ([str(parse_value(v).decimal(digits)) for v in vals]
                  for vals in values)
    head += ["rho=%d" % rho for rho in range(1, D + 1)]
    # built one row at a time, its values first, so a damaged record
    # reports the first bad cell of its first bad row
    return head, [[*cells, *vals] for vals, cells in zip(values, labels)], D


def render_record(rec, fmt="text", digits=16):
    """Render a record payload as text, csv, json, or float."""
    if fmt == "json":
        return json.dumps(rec, sort_keys=True, indent=2) + "\n"
    if fmt not in ("text", "csv", "float"):
        raise ValueError("unknown format %r" % fmt)
    head, rows, D = _cells(rec, digits if fmt == "float" else None, fmt == "csv")
    if fmt == "csv":
        return "\n".join([",".join(r) for r in [head] + rows]) + "\n"
    title = "%s x %s -> %s  [%s, D=%d]\n" % (
        rec["g1"], rec["g2"], rec["g"], rec["chain"], D)
    return title + _tabulate_text(head, rows)
