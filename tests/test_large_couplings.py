"""Large couplings against frozen output, under the slow marker.

(2,1) x (2,1) -> (3,2) has D = 3 and (2,1) x (2,1) -> (2,1) has D = 4.
Each is solved, checked with verify_block and sent through both chain
transforms.  The digest is the SHA-256 of one line per canonical
coefficient and per chain row, every label and value written with
str.  It was taken while the engine still summed over RadicalSum, so
it also pins that these couplings need no sum of two radical classes.

A second digest pins the canonical blocks alone of the four large
couplings (2,1) x (2,1) -> (3,2), (2,1) x (2,3/2) -> (4,5/2),
(3,2) x (3,2) -> (4,2) and (3,3/2) x (3,1) -> (5,3/2), the largest
relation matrices the solver meets below R = 4.  It was taken while
the null space still came from Gauss-Jordan on the whole matrix.

The default run deselects this module; run it with ``pytest -m slow``.
"""

import hashlib

import pytest

from so5racah.angmom import chain3_transform
from so5racah.isospin import chain2_transform
from so5racah.racah import build_system, solve_isoscalars, verify_block
from so5racah.so5 import So5Irrep

pytestmark = pytest.mark.slow

COUPLINGS = {"(3,2)": 3, "(2,1)": 4}

DIGEST = "d17e0013de6ecd42232ff45e2bf864e8d7a2715106053ab13b9f9639eb76c803"


def _lines(g):
    g1 = So5Irrep.parse("(2,1)")
    system = build_system(g1, g1, g)
    blk = solve_isoscalars(g1, g1, g, system)
    assert blk.D == COUPLINGS[str(g)]
    assert verify_block(blk, system) == []
    yield "%s x %s -> %s, D=%d" % (g1, g1, g, blk.D)
    for col, *values in zip(blk.columns, *blk.vectors):
        yield " ".join(map(str, (*col, *values)))
    for transform in (chain2_transform, chain3_transform):
        for row in transform(blk):
            yield " ".join(map(str, (*row[:-1], *row.values)))


def test_r2_blocks_and_transforms_frozen():
    lines = [line for g in COUPLINGS for line in _lines(So5Irrep.parse(g))]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == DIGEST


# The four large canonical blocks of the R >= 2 benchmark list: shape of
# the relation matrix and the outer multiplicity D of each
LARGE = {("(2,1)", "(2,1)", "(3,2)"): (992, 317, 3),
         ("(2,1)", "(2,3/2)", "(4,5/2)"): (1128, 336, 1),
         ("(3,2)", "(3,2)", "(4,2)"): (5166, 1532, 5),
         ("(3,3/2)", "(3,1)", "(5,3/2)"): (5024, 1462, 4)}

LARGE_DIGEST = "9db18b8b765e448041c64b885128a328b57dbd620cc565c64e61148050801392"


def test_large_canonical_blocks_frozen():
    # one header per coupling (D and the sign fallback) and one line per
    # column, its labels and its D values; the blocks must also pass
    # verify_block, every relation row annihilating every vector
    lines = []
    for labels, shape in LARGE.items():
        g1, g2, g = map(So5Irrep.parse, labels)
        system = build_system(g1, g2, g)
        blk = solve_isoscalars(g1, g2, g, system)
        assert (system.matrix.nrows, system.matrix.ncols, blk.D) == shape
        assert verify_block(blk, system) == []
        lines.append("%s x %s -> %s, D=%d, sign_fallback=%s"
                     % (g1, g2, g, blk.D, blk.meta["sign_fallback"]))
        for col, *values in zip(blk.columns, *blk.vectors):
            lines.append(" ".join(map(str, (*col, *values))))
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LARGE_DIGEST
