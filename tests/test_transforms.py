"""The chain transforms against frozen output, and their m check.

The digests are the SHA-256 of the canonical JSON of the chain (II)
and chain (III) table records, one per line: over every coupling with
R1,R2 <= 1, for (3/2,1/2) x (1,1) -> (3/2,1/2), which has D = 2, and
for (3/2,1) x (3/2,1) -> (3,2), the largest table with R1,R2 <= 3/2.
They were taken from the transform that summed every coefficient term
by term over the three brackets, which the staged contraction
replaced, so they pin row order, labels and every rendered value.
"""

import hashlib

import pytest

from so5racah.angmom import chain3_transform
from so5racah.errors import InternalInconsistency
from so5racah.formats import canonical_json, chain2_record, chain3_record
from so5racah.halfint import HalfInt
from so5racah.isospin import chain2_transform
from so5racah.racah import IsoscalarBlock, solve_isoscalars
from so5racah.so5 import So5Irrep, so5_kronecker

CHAINS = {
    "isospin": (chain2_transform, chain2_record),
    "angmom": (chain3_transform, chain3_record),
}

IRREPS_R1 = [So5Irrep(HalfInt(tr), HalfInt(ts))
             for tr in range(3) for ts in range(tr + 1)]

DIGESTS = {
    ("r1", "isospin"):
        "8b5ae016de7caae696626da57b911d09c87fe8d1a0330039c73d360872b0ff9c",
    ("r1", "angmom"):
        "96e1d6236524cd839384c71194193e4b357361912302058cea877b83484af798",
    ("d2", "isospin"):
        "2fd71ac8fa890f6365ecda4bd9f2078ffc3c6633b7f96f8bcaa9761509eb20bd",
    ("d2", "angmom"):
        "435600bec273b421b39c3b0f7b56365debf05a23e470df915b3596b36504d600",
    ("largest", "isospin"):
        "ee6db80d1a5ff8e90c59fef9b32196f7dc49fa454d5d4481ecf40fd529868ef2",
    ("largest", "angmom"):
        "23f2fda6bfe12d783119c0cc437c9d950defe355ef0af1e1ed14c8cacaaa633c",
}


def _couplings(which):
    if which == "r1":
        return [(g1, g2, g) for g1 in IRREPS_R1 for g2 in IRREPS_R1
                for g in so5_kronecker(g1, g2)]
    labels = {"d2": ("(3/2,1/2)", "(1,1)", "(3/2,1/2)"),
              "largest": ("(3/2,1)", "(3/2,1)", "(3,2)")}[which]
    return [tuple(So5Irrep.parse(s) for s in labels)]


@pytest.fixture(scope="module")
def blocks():
    return {which: [solve_isoscalars(*c) for c in _couplings(which)]
            for which in ("r1", "d2", "largest")}


@pytest.mark.parametrize("which,chain", sorted(DIGESTS))
def test_transform_rows_frozen(blocks, which, chain):
    transform, record = CHAINS[chain]
    if which == "r1":
        assert len(blocks[which]) == 109
    if which == "d2":
        assert blocks[which][0].D == 2
    lines = [canonical_json(record(b.g1, b.g2, b.g, transform(b)))
             for b in blocks[which]]
    digest = hashlib.sha256(b"\n".join(lines)).hexdigest()
    assert digest == DIGESTS[(which, chain)]


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_transform_rejects_m_dependence(chain):
    # one negated coefficient breaks SO(4) covariance, so the value of
    # some row at m = j - 1 no longer matches the one at m = j
    g1, g2, g = (So5Irrep.parse(s) for s in ("(1,0)", "(1,1/2)", "(1,1/2)"))
    blk = solve_isoscalars(g1, g2, g)
    vectors = [list(v) for v in blk.vectors]
    vectors[0][0] = -vectors[0][0]
    bad = IsoscalarBlock(g1, g2, g, blk.columns, vectors, blk.meta)
    with pytest.raises(InternalInconsistency):
        CHAINS[chain][0](bad)
