"""Two R = 2 couplings against frozen output, under the slow marker.

(2,1) x (2,1) -> (3,2) has D = 3 and (2,1) x (2,1) -> (2,1) has D = 4.
Each is solved, checked with verify_block and sent through both chain
transforms.  The digest is the SHA-256 of one line per canonical
coefficient and per chain row, every label and value written with
str.  It was taken while the engine still summed over RadicalSum, so
it also pins that these couplings need no sum of two radical classes.

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
