"""The bracket checks catch broken brackets: on (2,1), which has a
branching multiplicity in both chains, a tampered copy of the clean set
fails verify_chain2_brackets/verify_chain3_brackets."""

import pytest

from so5racah.angmom import chain3_brackets, verify_chain3_brackets
from so5racah.chains import BracketSet
from so5racah.isospin import chain2_brackets, verify_chain2_brackets
from so5racah.so5 import So5Irrep

G = So5Irrep.parse("(2,1)")


def _negate_term(entries):
    key = next(k for k, terms in entries.items() if len(terms) > 1)
    (i, c), *rest = entries[key]
    entries[key] = ((i, -c), *rest)


def _swap_at_level(entries):
    # two keys of one level (sector and m) with different j
    a, b = next((a, b) for a in entries for b in entries
                if a[:-3] == b[:-3] and a[-1] == b[-1] and a[-2] != b[-2])
    entries[a], entries[b] = entries[b], entries[a]


def _drop_key(entries):
    del entries[next(iter(entries))]


@pytest.mark.parametrize("brackets, check", [
    (chain2_brackets, verify_chain2_brackets),
    (chain3_brackets, verify_chain3_brackets),
], ids=["isospin", "angmom"])
@pytest.mark.parametrize("tamper", [_negate_term, _swap_at_level, _drop_key],
                         ids=["negated-term", "swapped", "dropped"])
def test_bracket_check_catches_tampering(brackets, check, tamper):
    bs = brackets(G)
    assert check(G, bs) == []
    entries = dict(bs.entries)
    tamper(entries)
    assert check(G, BracketSet(bs.basis, entries)) != []
