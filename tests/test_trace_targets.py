"""Every function the benchmark's traced run wraps exists in the program.

The tracer skips a target the program no longer has, and its per-layer
metrics then read 0 without a word; this test turns a rename into a
failure instead.  It reads perfbench and changes nothing there.
"""

import importlib
import os
import sys

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)

import workloads  # noqa: E402

# listed by the benchmark, gone from the program on purpose
GONE = {"formats.block_from_record", "exact.exact_sign", "exact.canonicalize",
        "exact.root_of_rational"} | {
    "exact.RadicalSum." + meth for meth in ("__mul__", "__rmul__", "__add__", "__radd__",
                                            "__sub__", "__rsub__", "invert")}


def _resolves(t):
    mod = importlib.import_module(t.owner)
    if "." not in t.attr:
        return callable(getattr(mod, t.attr, None))
    cls_name, meth = t.attr.split(".")
    # the tracer wraps only a method the class itself defines
    return meth in vars(getattr(mod, cls_name, object))


def test_every_trace_target_resolves():
    targets = workloads.targets(workloads.LayerStats())
    names = {"%s.%s" % (t.owner.split(".", 1)[1], t.attr): t for t in targets}
    missing = {name for name, t in names.items() if not _resolves(t)}
    assert missing == GONE & set(names)
