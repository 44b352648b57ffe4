"""The R <= 3/2 store of all three chains against a frozen digest, under
the slow marker.

Acceptance criterion 6 pins only the R <= 1 store.  Here `tabulate
--max-r 3/2 --jobs 2` fills one store with the so4, isospin and angmom
chains (1,503 records), and the digest is the SHA-256 of one line per
file, "<path> <sha256 of its bytes>", in sorted path order, records and
index.json alike.  It was taken before tabulate wrote records as its
workers return them, when every payload was gathered first.

The default run deselects this module; run it with ``pytest -m slow``.
"""

import hashlib
import os

import pytest
from click.testing import CliRunner

from so5racah.cli import main

pytestmark = pytest.mark.slow

DIGEST = "67160b5965c5c9661331efc77502be07f59382ac5d9c343fa13f419e19df63fe"


def store_digest(root):
    lines = []
    for d, _, files in os.walk(root):
        for name in files:
            path = os.path.join(d, name)
            with open(path, "rb") as f:
                blob = f.read()
            name = os.path.relpath(path, root).replace(os.sep, "/")
            lines.append("%s %s" % (name, hashlib.sha256(blob).hexdigest()))
    return hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()


def test_r32_store_of_three_chains_frozen(tmp_path):
    store = str(tmp_path / "store")
    for chain in ("so4", "isospin", "angmom"):
        r = CliRunner().invoke(main, ["tabulate", "--max-r", "3/2", "--chain",
                                      chain, "--jobs", "2", "--store", store])
        assert r.exit_code == 0, r.output
    assert len(os.listdir(os.path.join(store, "records"))) == 1503
    assert store_digest(store) == DIGEST
