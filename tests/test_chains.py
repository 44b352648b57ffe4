"""The chain engine against frozen output: the SHA-256 of the
`brackets` command output for every irrep with R <= 2 in both chains.

The digests were taken from the two hand-written laddering loops the
engine replaced, so they pin keys, key order, term order and every
rendered value of the brackets.  Each key is also checked to be its
chain's row labels plus m, which `chains.transform` relies on.
"""

import hashlib
from collections import Counter

import pytest
from click.testing import CliRunner

from so5racah.angmom import chain3_brackets, chain3_level
from so5racah.chains import branch, ladder, weight_basis
from so5racah.cli import main
from so5racah.errors import InternalInconsistency, LadderNullUnexpected
from so5racah.halfint import HalfInt, mrange
from so5racah.isospin import chain2_brackets, chain2_level, chain2_lowering
from so5racah.so5 import So5Irrep

DIGESTS = {
    ("isospin", "(0,0)"):
        "36eeb39df84260de8b2227a89cc6b2f8ad0ea985f0a95dda22e507cc8ebe3a59",
    ("isospin", "(1/2,0)"):
        "90cdcc3fe949ab82753ebddabf68467678c46b4de3bc634da62372cbfc617681",
    ("isospin", "(1/2,1/2)"):
        "8166c6ef2ba29b678ea7d5b2ae267fdbe2a006272aad85f7839a4510a7f62499",
    ("isospin", "(1,0)"):
        "28d0702c1e18c849ad85c099509ca763beb7fb0074839d0cc7f68951f4a9d8bc",
    ("isospin", "(1,1/2)"):
        "0c2dad565206d00dd1817f8a70c2ffcad9ce53a5d58609009fa5d49d82e1b33b",
    ("isospin", "(1,1)"):
        "7608dc180f6fdf709f7d768f980ff2a9f48dab256fbe9a14d509419f799fff47",
    ("isospin", "(3/2,0)"):
        "2d0bd61453e131893e66c704a95bcdd986dd89967ff5aeca057f4d860f730d49",
    ("isospin", "(3/2,1/2)"):
        "99ae6b946aaa699483c7167bdf79b8b1e38755257404734b7c6d9732b4b29455",
    ("isospin", "(3/2,1)"):
        "d34c208e7311dc346210acf29fd4d7544aabbebb41c512ecc6cf88d4b7d751ea",
    ("isospin", "(3/2,3/2)"):
        "d3f3352605d1eea86b2e419d67df70adefff8f764f4c7b00bc3495960cb3e677",
    ("isospin", "(2,0)"):
        "c0b1f2be3583a49a45e52c84c7aa28229b84f53ae057a4bf99e383e91e76e4a7",
    ("isospin", "(2,1/2)"):
        "51180ebbc54372c45e6fcaa110c0333d72924b116b49861eae51f3661ec5f968",
    ("isospin", "(2,1)"):
        "401d9ede65fd82ce90740a7df2d771007184fdceed1eb1505f3b449c4fff8444",
    ("isospin", "(2,3/2)"):
        "a71f803e8b7fa688b9221803d4e48e71e146c4286189792b09cbb173ee71ec77",
    ("isospin", "(2,2)"):
        "cd5195f7bfdb6f883f252a859eae02fd2e965f82ce343377b852433712b6e232",
    ("angmom", "(0,0)"):
        "32fff110464f9c1fb3b864e2a9aefcda0f95c7f5acfbb9908e1f091fb17cf334",
    ("angmom", "(1/2,0)"):
        "b0582f867371b67232fed880ea71eb618c7e691f18623480deafb3dd95e1f243",
    ("angmom", "(1/2,1/2)"):
        "3deeeb3d343bbcb57d781f42351b52669e81507a1b244763299c94184dd0a856",
    ("angmom", "(1,0)"):
        "3d6c87af4a945462329482ed764124d086b4b455b6f48aee345fed88c54734ae",
    ("angmom", "(1,1/2)"):
        "eaebf7edcd217a7a0c1ed4bbe0423694e7fa21bf395f7bfaf3c4fdac34125e5f",
    ("angmom", "(1,1)"):
        "75738db1031635b7f6d422da6e75dd73ddbc442464f920b3ab0eb3a5ce6f2660",
    ("angmom", "(3/2,0)"):
        "b127939fe2a5cadd56efabedacd7859fda2f3aeff3789de8d7443e0a52163530",
    ("angmom", "(3/2,1/2)"):
        "69d51a17c98ee113fd0a22932d2f1a371508f651ef669776044d07d44c5761e3",
    ("angmom", "(3/2,1)"):
        "7ba3fc3ea0a950463d9ab3660763c2df214c630ccbecdcefb07ea2ee2a017bc2",
    ("angmom", "(3/2,3/2)"):
        "1c348f44f8efdd1c73edafb338304d6f4a4cab54be4a0552f3d943e7be946652",
    ("angmom", "(2,0)"):
        "5c58f2e3cb129f3067f8ad400bcec5d21c8d5318be45c7639df5f4bf56ebf28f",
    ("angmom", "(2,1/2)"):
        "eeb15985147f3d5fb44ad035d18d5ac781ff53faf60100681fb576391ef03722",
    ("angmom", "(2,1)"):
        "08a81e2ffadafb4d570eeb4c3e787ffe21cf48f344c2e0601225a6e7f8312470",
    ("angmom", "(2,3/2)"):
        "ae6f4be43a1d3c4b32a00f901107f901a531f1eba4c86248a113bcdf5c46546b",
    ("angmom", "(2,2)"):
        "25dd5b0c8d6e819d01e188533779785382c8b86fb7a2ceb5a372831664f6ca51",
}


@pytest.mark.parametrize("chain,g", sorted(DIGESTS))
def test_brackets_output_frozen(chain, g):
    r = CliRunner().invoke(main, ["brackets", "--g", g, "--chain", chain])
    assert r.exit_code == 0, r.output
    assert hashlib.sha256(r.output.encode()).hexdigest() == DIGESTS[(chain, g)]


@pytest.mark.parametrize("g", sorted({g for _, g in DIGESTS}))
def test_bracket_keys_are_row_labels(g):
    # a key is sector + (k, j, m): the labels of its chain's rows plus m
    irrep = So5Irrep.parse(g)
    shapes = ((chain2_brackets, (HalfInt, int, HalfInt, HalfInt)),
              (chain3_brackets, (int, HalfInt, HalfInt)))
    for brackets, shape in shapes:
        for key in brackets(irrep).labels():
            assert tuple(map(type, key)) == shape, key
            assert key[-1] in mrange(key[-2]), key


def test_branch_rejects_a_level_that_outgrows_the_one_below():
    # a synthetic one-sector basis whose states are their doubled level
    # weights: two states at m = 1 over one at m = 0 would make the
    # multiplicity of j = 0 negative
    def level(twice_m):
        return (), HalfInt(twice_m)
    assert branch([2, 0, 0, -2], level) == [(HalfInt(0), 1), (HalfInt(2), 1)]
    with pytest.raises(InternalInconsistency, match="outgrows"):
        branch([2, 2, 0, -2, -2], level)
    # ladder seats the multiplets branch counts, so it stops there too
    with pytest.raises(InternalInconsistency, match="outgrows"):
        ladder([2, 2, 0, -2, -2], level, {})


def test_ladder_rejects_a_lowering_that_annihilates_a_multiplet():
    # no lowering operator at all: the top vector of the first sector
    # has nowhere to go one level down
    with pytest.raises(LadderNullUnexpected, match="lowering annihilated"):
        ladder(weight_basis(So5Irrep.parse("(1,1/2)")), chain2_level, {})


def test_ladder_rejects_a_level_with_more_vectors_than_states():
    # every negative M_T moved down by one: the lowered vectors of a
    # level no longer fit the states the level function puts there
    g = So5Irrep.parse("(1,1/2)")
    basis = weight_basis(g)

    def shifted(state):
        sector, m = chain2_level(state)
        return sector, m - 1 if m < 0 else m
    with pytest.raises(InternalInconsistency, match=r"vectors for \d+ states"):
        ladder(basis, shifted, chain2_lowering(g, basis))


@pytest.mark.parametrize("level", [chain2_level, chain3_level])
def test_branch_counts_only_nonnegative_m(level):
    # a real irrep's levels shrink below m = 0, which is no violation
    g = So5Irrep(1, HalfInt(1))
    basis = weight_basis(g)
    sizes = Counter(map(level, basis))
    assert any(sizes[sec, m] < sizes[sec, m + 1]
               for sec, m in sizes if m < 0)
    out = branch(basis, level)
    assert sum((lab[-2].twice + 1) * lab[-1] for lab in out) == g.dim
