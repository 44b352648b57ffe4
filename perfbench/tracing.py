"""Per-layer tracing from outside the program, for the traced run only.

A Tracer replaces public functions and methods of so5racah with
wrappers that count calls and record spans, and puts the originals
back when it is uninstalled.  Functions are replaced wherever a module
of the package holds them, because the modules import each other's
names directly.  A target the program no longer has is skipped, and
its metrics read 0.

Each wrapper belongs to a layer.  A layer's self time is the time
inside its wrappers minus the time of wrapped calls of other layers
made from within; a call into the same layer from within counts but
is not timed again, which keeps the hot arithmetic wrappers cheap.
"""

import sys
from collections import Counter, defaultdict
from time import perf_counter


class Target:
    """What to wrap: `owner` is a module name, `attr` a function or
    "Class.method"; `span` accumulates inclusive time, `count` calls,
    `on_call` sees (args, result) after the call."""

    def __init__(self, owner, attr, layer, span=None, count=None, on_call=None):
        self.owner = owner
        self.attr = attr
        self.layer = layer
        self.span = span
        self.count = count
        self.on_call = on_call


PACKAGE = "so5racah"


class Tracer:
    def __init__(self):
        self.spans = defaultdict(float)
        self.counts = Counter()
        self.self_s = defaultdict(float)
        self.hook_s = 0.0
        self._stack = []
        self._open = Counter()
        self._undo = []

    def _wrapper(self, fn, t):
        counts, stack, opened = self.counts, self._stack, self._open
        spans, self_s = self.spans, self.self_s
        layer, span, count, on_call = t.layer, t.span, t.count, t.on_call

        def wrapped(*args, **kwargs):
            if count:
                counts[count] += 1
            if span is None and stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            if span:
                opened[span] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                if span:
                    opened[span] -= 1
                    if not opened[span]:
                        spans[span] += dt
            if on_call is not None:
                h0 = perf_counter()
                on_call(args, result)
                self.hook_s += perf_counter() - h0
            return result

        wrapped.__name__ = getattr(fn, "__name__", "wrapped")
        wrapped.__qualname__ = getattr(fn, "__qualname__", wrapped.__name__)
        wrapped.__module__ = getattr(fn, "__module__", None)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self, targets):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and name.split(".")[0] == PACKAGE]
        for t in targets:
            mod = sys.modules.get(t.owner)
            if mod is None:
                continue
            if "." in t.attr:
                cls_name, meth = t.attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is None or meth not in vars(cls):
                    continue
                orig = vars(cls)[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrapper(orig, t))
                continue
            orig = getattr(mod, t.attr, None)
            if orig is None:
                continue
            w = self._wrapper(orig, t)
            for m in modules:
                for name, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, name, orig))
                        setattr(m, name, w)

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo = []
