"""Bracket sets are built once per irrep and process: every caller gets
the same read-only object, and cache_clear() starts over."""

import pytest

from so5racah.angmom import chain3_brackets, chain3_transform
from so5racah.chains import _so4_coupling
from so5racah.isospin import chain2_brackets, chain2_transform
from so5racah.racah import solve_isoscalars
from so5racah.so5 import So5Irrep

CHAINS = [(chain2_brackets, chain2_transform), (chain3_brackets, chain3_transform)]


@pytest.mark.parametrize("brackets", [chain2_brackets, chain3_brackets])
def test_bracket_sets_are_shared_and_read_only(brackets):
    g = So5Irrep.parse("(1,1/2)")
    bs = brackets(g)
    assert brackets(So5Irrep.parse("(1,1/2)")) is bs
    key = next(iter(bs.entries))
    with pytest.raises(TypeError):
        bs.entries[key] = ()


@pytest.mark.parametrize("brackets,transform", CHAINS)
def test_transform_unchanged_by_cache_clear(brackets, transform):
    # the benchmark empties every functools cache before each round
    g1, g2, g = (So5Irrep.parse(s) for s in ("(1,0)", "(1,1/2)", "(1,1/2)"))
    block = solve_isoscalars(g1, g2, g)
    warm = transform(block)
    before = brackets(g2)
    table = _so4_coupling(*block.columns[0])
    brackets.cache_clear()
    _so4_coupling.cache_clear()
    assert _so4_coupling.cache_info().currsize == 0
    cold = transform(block)
    assert brackets(g2) is not before
    assert _so4_coupling(*block.columns[0]) is not table
    assert cold == warm
