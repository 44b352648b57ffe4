"""The worked example in README.md is what the program prints.

The README shows one `couple` command and its output table; this test
runs the command and compares the output with the table byte for byte,
so the only worked output in the docs cannot drift from the code.
"""

import os
import re
import shlex

from click.testing import CliRunner

from so5racah.cli import main

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def test_couple_example_matches_readme():
    with open(README, encoding="utf-8") as f:
        text = f.read()
    # the command's code block and the output block right after it
    m = re.search(r"```\n(so5racah couple [^\n]*)\n```\n\n```\n(.*?)```", text, re.S)
    assert m, "README has no couple example followed by its output"
    argv = shlex.split(m.group(1))[1:]
    r = CliRunner().invoke(main, argv)
    assert r.exit_code == 0, r.output
    assert r.output == m.group(2)
