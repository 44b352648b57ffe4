"""Each output check rejects a corrupted output.

    python3 -m pytest perfbench/test_checks.py      (from the repository root)

Genuine outputs come from the program for the series (1,0) x (1,1/2),
which holds the published isospin table, and for the vector-coupling
block; each test corrupts one of them and expects the check to fail.
"""

import copy
import hashlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from so5racah import cli  # noqa: E402
from so5racah.angmom import chain3_transform  # noqa: E402
from so5racah.isospin import chain2_transform  # noqa: E402
from so5racah.racah import solve_isoscalars  # noqa: E402
from so5racah.so5 import So5Irrep, so5_kronecker  # noqa: E402

G1, G2 = So5Irrep.parse("(1,0)"), So5Irrep.parse("(1,1/2)")
TABLE = ("chain2-table", "(1,0)", "(1,1/2)", "(1,1/2)")


@pytest.fixture(scope="module")
def series():
    """{kind: [payload per product irrep]} for (1,0) x (1,1/2)."""
    out = {"block": [], "chain2-table": [], "chain3-table": []}
    for g in so5_kronecker(G1, G2):
        blk = solve_isoscalars(G1, G2, g)
        out["block"].append(workloads.block_payload(blk))
        out["chain2-table"].append(workloads.chain2_payload(blk, chain2_transform(blk)))
        out["chain3-table"].append(workloads.chain3_payload(blk, chain3_transform(blk)))
    return out


def _table(payloads):
    return next(p for p in payloads if (p["kind"], p["g1"], p["g2"], p["g"]) == TABLE)


def _negate(text):
    return text[1:] if text.startswith("-") else "-" + text


def test_genuine_outputs_pass(series):
    for kind, payloads in series.items():
        for p in payloads:
            assert oracle.check_bra_sums(p) == [], p["g"]
        assert oracle.check_ket_sums(payloads) == [], kind
    assert oracle.check_published(_table(series["chain2-table"])) == (True, [])
    vec = workloads.block_payload(solve_isoscalars(
        So5Irrep.parse("(1/2,1/2)"), So5Irrep.parse("(1/2,0)"), So5Irrep.parse("(1/2,0)")))
    assert oracle.check_published(vec) == (True, [])
    assert oracle.check_kronecker((2, 0), (2, 1), {g.key(): d for g, d in
                                                    so5_kronecker(G1, G2).items()}) == []


def test_flipped_sign(series):
    bad = copy.deepcopy(series["chain2-table"])
    table = _table(bad)
    row = next(d for d in table["rows"] if d["values"][0] != "sqrt(0)")
    row["values"][0] = _negate(row["values"][0])
    assert oracle.check_ket_sums(bad) != []
    assert oracle.check_published(table)[1] != []
    blocks = copy.deepcopy(series["block"])
    blocks[0]["vectors"][0][0] = _negate(blocks[0]["vectors"][0][0])
    assert oracle.check_ket_sums(blocks) != []


def test_wrong_radical(series):
    for kind in ("block", "chain2-table", "chain3-table"):
        bad = copy.deepcopy(series[kind])
        p = bad[-1]
        if kind == "block":
            p["vectors"][0][0] = p["vectors"][0][0].replace(")", "1)", 1)
        else:
            d = next(d for d in p["rows"] if d["values"][0] != "sqrt(0)")
            d["values"][0] = d["values"][0].replace(")", "1)", 1)
        assert oracle.check_bra_sums(p) != [], kind


def test_dropped_row(series):
    for kind in ("chain2-table", "chain3-table"):
        bad = copy.deepcopy(series[kind])
        for p in bad:
            p["rows"].pop()
            assert oracle.check_bra_sums(p) != [], (kind, p["g"])
    bad = copy.deepcopy(series["block"])
    p = bad[-1]
    p["columns"].pop()
    for v in p["vectors"]:
        v.pop()
    assert oracle.check_bra_sums(p) != []


def _record_file(payload):
    h = hashlib.sha256(oracle.canonical_json(payload)).hexdigest()
    blob = oracle.canonical_json({"payload": payload, "meta": {"engine": "0.1.0", "hash": h}})
    return h + ".json", blob


def test_edited_record_rehashed_honestly(series):
    bad = copy.deepcopy(series["chain2-table"])
    table = _table(bad)
    row = next(d for d in table["rows"] if d["values"][0] != "sqrt(0)")
    row["values"][0] = "sqrt(1/2)"
    name, blob = _record_file(table)
    payload, problems = oracle.check_record_file(name, blob)
    assert problems == []          # the hash alone cannot tell
    assert oracle.check_bra_sums(payload) != []
    assert oracle.check_ket_sums(bad) != []
    assert oracle.check_published(payload)[1] != []


def test_edited_record_not_rehashed(series):
    name, blob = _record_file(_table(series["chain2-table"]))
    edited = blob.replace(b"sqrt(1/3)", b"sqrt(1/2)", 1)
    assert edited != blob
    assert oracle.check_record_file(name, edited)[1] != []


def test_kronecker_member_dropped():
    s = {g.key(): d for g, d in so5_kronecker(G1, G2).items()}
    s.pop(max(s))
    assert oracle.check_kronecker((2, 0), (2, 1), s) != []


@pytest.mark.parametrize("fmt", workloads.FORMATS)
def test_query_output_corrupted(fmt):
    argv = ["couple", "--g1", "(1/2,1/2)", "--g2", "(1/2,0)", "--g", "(1/2,0)",
            "--format", fmt]
    code, out = workloads.invoke(cli.main, argv)
    assert code == 0
    payload = workloads.block_payload(solve_isoscalars(
        So5Irrep.parse("(1/2,1/2)"), So5Irrep.parse("(1/2,0)"), So5Irrep.parse("(1/2,0)")))
    if fmt == "json":
        payload = json.loads(out)
    assert oracle.check_query_output(fmt, out, payload) == []
    if fmt == "float":
        bad = out.replace("0.4472135954999579", "0.4472135954999479", 1)
    else:
        bad = out.replace("sqrt(4/5)", "sqrt(3/5)", 1)
    assert bad != out
    assert oracle.check_query_output(fmt, bad, payload) != []
