import hashlib
import json
from fractions import Fraction

import pytest

from so5racah.angmom import chain3_transform
from so5racah.exact import parse_value, render_value
from so5racah.formats import block_record, canonical_json, chain2_record, \
    chain3_record, render_record
from so5racah.isospin import chain2_transform
from so5racah.racah import solve_isoscalars
from so5racah.so5 import So5Irrep, so5_kronecker

H = Fraction(1, 2)


@pytest.fixture(scope="module")
def block():
    return solve_isoscalars(So5Irrep(H, H), So5Irrep(H, 0), So5Irrep(H, 0))


@pytest.fixture(scope="module")
def big_block():
    return solve_isoscalars(So5Irrep(1, 0), So5Irrep(1, H), So5Irrep(1, H))


def test_canonical_json_is_stable():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == b'{"a":[1,2],"b":1}'


def test_block_record_round_trip(block):
    rec = block_record(block)
    # survive a JSON round trip byte-exactly
    rec2 = json.loads(canonical_json(rec))
    assert canonical_json(rec2) == canonical_json(rec)
    for vec in block.vectors:
        for v in vec:
            assert parse_value(render_value(v)) == v


def test_text_render(block):
    out = render_record(block_record(block))
    lines = out.splitlines()
    assert lines[0] == "(1/2,1/2) x (1/2,0) -> (1/2,0)  [so4, D=1]"
    assert "rho=1" in lines[1]
    assert any("-sqrt(4/5)" in ln for ln in lines)


def test_csv_render_has_no_embedded_commas(block):
    out = render_record(block_record(block), "csv")
    lines = out.splitlines()
    assert lines[0] == "X1,Y1,X2,Y2,X,Y,rho=1"
    width = len(lines[0].split(","))
    for ln in lines[1:]:
        assert len(ln.split(",")) == width


def test_csv_render_chain2(big_block):
    rows = chain2_transform(big_block)
    rec = chain2_record(big_block.g1, big_block.g2, big_block.g, rows)
    out = render_record(rec, "csv")
    lines = out.splitlines()
    # no label multiplicity above 1 here, so no kappa columns
    assert lines[0] == "MS1,MS2,MS,T1,T2,T,rho=1,rho=2"
    assert len(lines) == 33
    # forcing a kappa above 1 turns the columns on
    rec["rows"][0]["k1"] = 2
    out = render_record(rec, "csv")
    assert out.splitlines()[0] == "MS1,MS2,MS,T1,T2,T,K1,K2,K,rho=1,rho=2"


def test_float_render_digits(block):
    out = render_record(block_record(block), "float", digits=6)
    assert "-0.894427" in out
    out = render_record(block_record(block), "float", digits=3)
    assert "-0.894" in out and "-0.894427" not in out


def test_json_render_parses_back(block):
    rec = block_record(block)
    assert json.loads(render_record(rec, "json")) == rec


def test_unknown_format_rejected(block):
    with pytest.raises(ValueError):
        render_record(block_record(block), "yaml")


@pytest.mark.parametrize("fmt", ["text", "csv", "float"])
def test_unknown_kind_rejected(block, fmt):
    rec = dict(block_record(block), kind="foo")
    with pytest.raises(ValueError, match="unknown record kind 'foo'"):
        render_record(rec, fmt)
    # json shows the payload as it is
    assert json.loads(render_record(rec, "json")) == rec


# SHA-256 of the text, csv and float (6 digits) renders of every block and
# chain table of (1,0) x (1,1/2), in series order
RENDERS_DIGEST = "e7844702d513045be79a3268025bb5af16b60b711755fc91e4f8ee13f41688a2"


def test_renders_frozen():
    g1, g2 = So5Irrep(1, 0), So5Irrep(1, H)
    out = []
    for g in so5_kronecker(g1, g2):
        blk = solve_isoscalars(g1, g2, g)
        for rec in (block_record(blk),
                    chain2_record(g1, g2, g, chain2_transform(blk)),
                    chain3_record(g1, g2, g, chain3_transform(blk))):
            for fmt in ("text", "csv", "float"):
                out.append(render_record(rec, fmt, 6))
    assert hashlib.sha256("".join(out).encode()).hexdigest() == RENDERS_DIGEST
