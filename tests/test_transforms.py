"""The chain transforms against frozen output, and their m check.

The digests are the SHA-256 of the canonical JSON of the chain (II)
and chain (III) table records, one per line: over every coupling with
R1,R2 <= 1, for (3/2,1/2) x (1,1) -> (3/2,1/2), which has D = 2, and
for (3/2,1) x (3/2,1) -> (3,2), the largest table with R1,R2 <= 3/2.
They were taken from the transform that summed every coefficient term
by term over the three brackets, which the staged contraction
replaced, so they pin row order, labels and every rendered value.

The slow test pins one digest per chain over every coupling with
R1,R2 <= 3/2 (501 couplings), where half-integer X and Y and the larger
labels exercise the transform's index arithmetic most.  Those digests
were taken from the transform that coupled each canonical state by
SU(2) CGs over HalfInt weights, before the integer-indexed tables.
The default run deselects it; run it with ``pytest -m slow``.
"""

import hashlib

import pytest

from so5racah.angmom import Chain3Row, chain3_brackets, chain3_transform
from so5racah.chains import BracketSet, _so4_coupling, transform
from so5racah.errors import InternalInconsistency
from so5racah.formats import canonical_json, chain2_record, chain3_record
from so5racah.halfint import HalfInt
from so5racah.isospin import Chain2Row, chain2_brackets, chain2_transform
from so5racah.racah import IsoscalarBlock, enumerate_columns, solve_isoscalars
from so5racah.so4 import so4_cg
from so5racah.so5 import So5Irrep, so5_kronecker
from so5racah.su2 import _cg_t

CHAINS = {
    "isospin": (chain2_transform, chain2_record),
    "angmom": (chain3_transform, chain3_record),
}


def _irreps(max_twice):
    return [So5Irrep(HalfInt(tr), HalfInt(ts))
            for tr in range(max_twice + 1) for ts in range(tr + 1)]


IRREPS_R1 = _irreps(2)

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

DIGESTS_R3_2 = {
    "isospin": "b7b909c0701b76c1916fa4da7ff52178f58107ea23429359b251ad7c2754d6ee",
    "angmom": "a9dc39e76b3e90c9111076a3b63641ab0ece1ac0af3268ba723bf9e2df28b4fe",
}


def _digest(chain, blocks):
    transform, record = CHAINS[chain]
    lines = [canonical_json(record(b.g1, b.g2, b.g, transform(b))) for b in blocks]
    return hashlib.sha256(b"\n".join(lines)).hexdigest()


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
    if which == "r1":
        assert len(blocks[which]) == 109
    if which == "d2":
        assert blocks[which][0].D == 2
    assert _digest(chain, blocks[which]) == DIGESTS[(which, chain)]


@pytest.mark.slow
def test_transform_rows_frozen_to_r3_2():
    irreps = _irreps(3)
    blocks = [solve_isoscalars(g1, g2, g) for g1 in irreps for g2 in irreps
              for g in so5_kronecker(g1, g2)]
    assert len(blocks) == 501
    assert {chain: _digest(chain, blocks) for chain in CHAINS} == DIGESTS_R3_2


def test_so4_coupling_tables_match_so4_cg():
    # the tables take the X and Y CGs on doubled ints; so4_cg takes them
    # through su2_cg on HalfInt weights
    triples = {c for g1 in IRREPS_R1 for g2 in IRREPS_R1
               for g in so5_kronecker(g1, g2)
               for c in enumerate_columns(g1, g2, g)}
    for lam1, lam2, lam in triples:
        table = _so4_coupling(lam1, lam2, lam)
        weights1, weights2 = lam1.weights(), lam2.weights()
        index2 = {w: i for i, w in enumerate(weights2)}
        assert len(table) == lam.dim
        for w, terms in zip(lam.weights(), table):
            want = {}
            for i1, w1 in enumerate(weights1):
                w2 = (w[0] - w1[0], w[1] - w1[1])
                if w2 in index2:
                    cg = so4_cg(lam1, w1, lam2, w2, lam, w)
                    if not cg.is_zero():
                        want[i1, index2[w2]] = cg
            assert [(i1, i2) for i1, i2, _ in terms] == sorted(want)
            assert {(i1, i2): cg for i1, i2, cg in terms} == want


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


# -- planted faults in the brackets -----------------------------------------
#
# transform reads each value at m = j off the stretched product term,
# which takes the top (m1 = j1) vector of each g1 multiplet, and checks it
# against the full SU(2) projection at m = j - 1, which takes every m1,
# or at m = 0 when j = 0.  Negating one g1 bracket vector must make the
# two disagree wherever that vector enters.

BRACKETS = {"isospin": (chain2_brackets, Chain2Row), "angmom": (chain3_brackets, Chain3Row)}


def _negated(bs, key):
    entries = dict(bs.entries)
    entries[key] = tuple((i, -c) for i, c in entries[key])
    return BracketSet(bs.basis, entries)


def _with_g1_set(brackets, block, g1_set):
    # transform asks for the sets of g1, g2 and g in that order; g1 and g2
    # may be the same irrep, so the call order picks out g1's
    sets = iter([g1_set, brackets(block.g2), brackets(block.g)])
    return lambda g: next(sets)


def _planted(chain, labels, offset):
    """A transform call for each multiplet of g1 with j >= 1, its vector
    at m = j - offset negated; make each call before taking the next."""
    g1, g2, g = (So5Irrep.parse(s) for s in labels)
    blk = solve_isoscalars(g1, g2, g)
    brackets, row = BRACKETS[chain]
    bs = brackets(g1)
    for lab, tj, _, _ in bs.multiplets:
        if tj >= 2:
            g1_set = _negated(bs, lab + (lab[-1] - offset,))
            yield lambda: transform(blk, _with_g1_set(brackets, blk, g1_set), row,
                                    lambda r: 0)


PLANTED = ("(1,1)", "(1/2,1/2)", "(3/2,1/2)")
# the multiplets of (1,1) with j >= 1 in each chain
PLANTED_J1 = {"isospin": 3, "angmom": 2}


@pytest.mark.parametrize("offset", [0, 1], ids=["top", "below-top"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_transform_rejects_a_negated_g1_vector(chain, offset):
    count = 0
    for call in _planted(chain, PLANTED, offset):
        with pytest.raises(InternalInconsistency, match="m dependence"):
            call()
        count += 1
    assert count == PLANTED_J1[chain]


@pytest.mark.parametrize("g", ["(1/2,1/2)", "(1,0)", "(1,1)", "(3/2,1/2)"])
@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_transform_checks_rows_with_j_zero(chain, g):
    # in g x g -> (0,0) every row has j = 0, so no m = j - 1 check exists;
    # the read-off is compared with the projection at m = 0 instead
    count = 0
    for call in _planted(chain, (g, g, "(0,0)"), 0):
        with pytest.raises(InternalInconsistency, match="projection mismatch"):
            call()
        count += 1
    assert count


def test_stretched_cg_is_positive():
    # <j1 j1; j2 j-j1 | j j> > 0 in the Condon-Shortley convention, on
    # every triangle with 2j1, 2j2 <= 20, so the read-off divides by a
    # nonzero value with a known sign
    count = 0
    for tj1 in range(21):
        for tj2 in range(21):
            for tj in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
                cg = _cg_t(tj1, tj1, tj2, tj - tj1, tj, tj)
                assert cg.num > 0, (tj1, tj2, tj)
                count += 1
    assert count == 3311
