"""The benchmark's three workloads.

Each workload has a set-up step (import the program, enumerate the
inputs, make its directories), a round (the timed work, the same
operations every time), the traced targets and per-layer metrics of
its round, and checks on the outputs that run after the timed region.
The seed only fixes the order of the operations inside a round; the
set of operations is the same for every seed, so rounds of different
seeds do the same work.
"""

import bisect
import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import shutil
import statistics
import sys
import types
from fractions import Fraction
from time import perf_counter

import oracle
from tracing import Target

PACKAGE = "so5racah"
CHAINS = ("so4", "isospin", "angmom")
FORMATS = ("text", "csv", "json", "float")

# so4-sweep: every coupling with R1, R2 <= 1 (whole Kronecker series, so
# ket sums close; four of them have D = 2), plus from the couplings with
# an R = 3/2 factor: the four augmented blocks, the largest block and a
# sample drawn once with SWEEP_SAMPLE_SEED, which holds two more D = 2
# blocks.  The whole R <= 3/2 sweep takes minutes; this takes seconds.
SWEEP_SAMPLE_SEED = 44
SWEEP_SAMPLE_SIZE = 12
LARGEST_BLOCK = ((3, 2), (3, 2), (6, 4))     # (3/2,1) x (3/2,1) -> (3,2)


def import_modules(names):
    """The program's modules by short name, imported afresh by each set-up."""
    return types.SimpleNamespace(**{
        name: importlib.import_module("%s.%s" % (PACKAGE, name)) for name in names})


def purge_modules():
    """Drop the program and click from sys.modules, so the next import
    runs their module code again."""
    for name in list(sys.modules):
        if name.split(".")[0] in (PACKAGE, "click"):
            del sys.modules[name]


def clear_caches():
    """Empty every functools cache in the program, so that every round
    starts from the state a fresh process has after import."""
    for name, mod in list(sys.modules.items()):
        if mod is None or name.split(".")[0] != PACKAGE:
            continue
        for value in list(vars(mod).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def irreps(max_twice):
    """(tR, tS) for every irrep with R <= max_twice/2."""
    return [(tr, ts) for tr in range(max_twice + 1) for ts in range(tr + 1)]


def irrep_obj(m, t):
    hi = m.halfint.HalfInt
    return m.so5.So5Irrep(hi(t[0]), hi(t[1]))


def series_of(m, max_twice):
    """{(g1, g2): {g: D}} over every pair with R1, R2 <= max_twice/2,
    as doubled labels, from the program's Kronecker series."""
    out = {}
    for a in irreps(max_twice):
        for b in irreps(max_twice):
            s = m.so5.so5_kronecker(irrep_obj(m, a), irrep_obj(m, b))
            out[(a, b)] = {g.key(): d for g, d in s.items()}
    return out


def label(t):
    return "(%s,%s)" % tuple(str(Fraction(x, 2)) for x in t)


# -- payloads of in-memory results, in the store's record shape ------------

def block_payload(blk):
    return {"kind": "block", "chain": "so4",
            "g1": str(blk.g1), "g2": str(blk.g2), "g": str(blk.g),
            "columns": [[str(x) for x in c] for c in blk.columns],
            "vectors": [[str(v) for v in vec] for vec in blk.vectors]}


def chain2_payload(blk, rows):
    return {"kind": "chain2-table", "chain": "isospin",
            "g1": str(blk.g1), "g2": str(blk.g2), "g": str(blk.g),
            "rows": [{"ms1": str(r.ms1), "k1": r.k1, "t1": str(r.t1),
                      "ms2": str(r.ms2), "k2": r.k2, "t2": str(r.t2),
                      "ms": str(r.ms), "k": r.k, "t": str(r.t),
                      "values": [str(v) for v in r.values]} for r in rows]}


def chain3_payload(blk, rows):
    return {"kind": "chain3-table", "chain": "angmom",
            "g1": str(blk.g1), "g2": str(blk.g2), "g": str(blk.g),
            "rows": [{"a1": r.a1, "l1": str(r.l1), "a2": r.a2, "l2": str(r.l2),
                      "a": r.a, "l": str(r.l),
                      "values": [str(v) for v in r.values]} for r in rows]}


def check_payloads(payloads, series):
    """Bra sums of every payload, ket sums of every complete series, and
    the published tables.  Returns (problems, published tables seen)."""
    problems, seen = [], set()
    by_series = {}
    for p in payloads:
        problems += oracle.check_bra_sums(p)
        matched, probs = oracle.check_published(p)
        if matched:
            seen.add((p["kind"], p["g1"], p["g2"], p["g"]))
        problems += probs
        by_series.setdefault((p["kind"], p["g1"], p["g2"]), []).append(p)
    for (kind, g1, g2), ps in sorted(by_series.items()):
        want = series.get((oracle.pair(g1), oracle.pair(g2)), {})
        if {oracle.pair(p["g"]) for p in ps} == set(want):
            problems += oracle.check_ket_sums(ps)
    return problems, seen


def check_series(series):
    out = []
    for (a, b), s in sorted(series.items()):
        out += oracle.check_kronecker(a, b, s)
    return out


# -- the workloads ---------------------------------------------------------

# A shared machine's speed drifts by 10-25% over seconds to minutes, and
# within one run that drift cannot be averaged away.  A round therefore
# times a fixed 8 ms slice of stdlib-only work (Fraction arithmetic, gcd,
# dict and tuple traffic, the mix the program runs on) between
# operations, at most every PROBE_INTERVAL_S, with the collector off.
# PROBE_REF_S / slice time says how fast the machine ran, against the
# reference machine the constant was measured on (2 cores, Python
# 3.11.7).  Each operation's time is multiplied by that factor, taken as
# the median over the slices within PROBE_WINDOW_S of the operation.
PROBE_INTERVAL_S = 0.25
PROBE_WINDOW_S = 1.0
PROBE_REF_S = 0.0080


def speed_kernel():
    acc, d = Fraction(0), {}
    for i in range(1, 1600):
        f = Fraction(i % 17 + 1, i % 13 + 2)
        acc = acc + f * f
        d[(i % 211, math.gcd(i, 360))] = acc
    return acc


class Round:
    """One round: per-operation seconds in the round's fixed order (None
    where the operation failed), the round's wall time without the speed
    probes, the probes (end time, slice seconds) and the outputs."""

    def __init__(self):
        self.ops = []
        self.op_times = []
        self.total = 0.0
        self.failed = 0
        self.errors = []
        self.outputs = None
        self.extra = {}
        self.probes = []
        self.probe_s = 0.0          # probe time inside the timed phase
        self._last_probe = perf_counter()

    @property
    def attempted(self):
        return len(self.ops)

    @property
    def speed(self):
        """The round's speed factor: PROBE_REF_S over the median slice."""
        return PROBE_REF_S / statistics.median(p for _, p in self.probes)

    def scaled_ops(self):
        """Operation times times the local speed factor: PROBE_REF_S over
        the median of the slices taken within PROBE_WINDOW_S of the
        operation (the round's factor if there are none)."""
        ends = [t for t, _ in self.probes]
        out = []
        for t, (t0, t1) in zip(self.ops, self.op_times):
            lo = bisect.bisect_left(ends, t0 - PROBE_WINDOW_S)
            hi = bisect.bisect_right(ends, t1 + PROBE_WINDOW_S)
            near = [p for _, p in self.probes[lo:hi]]
            speed = PROBE_REF_S / statistics.median(near) if near else self.speed
            out.append(None if t is None else t * speed)
        return out

    def probe(self, force=False):
        """Time one slice of speed_kernel if PROBE_INTERVAL_S has passed
        since the last; returns the seconds spent."""
        t0 = perf_counter()
        if not force and t0 - self._last_probe < PROBE_INTERVAL_S:
            return 0.0
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            speed_kernel()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.probes.append((t1, t1 - t0))
        self._last_probe = t1
        return perf_counter() - t0


class Workload:
    """Base: subclasses fill in the module list, inputs and round.

    wall_ops and item_ops select the operations whose times make up
    wall_s and the per-operation percentiles."""

    name = None
    modules = ()
    wall_ops = item_ops = slice(None)

    def setup(self, seed, run_dir):
        self.mods = import_modules(self.modules)
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.rng = random.Random(seed)
        self.round_problems = []
        self.prepare()

    def prepare(self):
        raise NotImplementedError

    def run_round(self, k, traced=False):
        raise NotImplementedError

    def absorb(self, first, r):
        """Compare a later round's outputs with the first round's, then
        drop them, so memory does not grow with the number of rounds."""
        if r.outputs != first.outputs:
            self.round_problems.append("round outputs differ from the first round's")
        r.outputs = None

    def check(self, first):
        raise NotImplementedError

    def finish(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.run_dir))
        except OSError:
            pass  # other runs still use it


def _timed(r, fn, what):
    """Run one operation, append its seconds (None on failure) to r.ops;
    a speed probe may run first, outside the operation's time."""
    r.probe_s += r.probe()
    t0 = perf_counter()
    try:
        out = fn()
    except Exception as e:  # a failed operation is counted; the round goes on
        r.ops.append(None)
        r.op_times.append((t0, perf_counter()))
        r.failed += 1
        r.errors.append("%s: %r" % (what, e))
        return None
    t1 = perf_counter()
    r.ops.append(t1 - t0)
    r.op_times.append((t0, t1))
    return out


def _solve(m, g1, g2, g):
    system = m.racah.build_system(g1, g2, g)
    return m.racah.solve_isoscalars(g1, g2, g, system)


class So4Sweep(Workload):
    name = "so4-sweep"
    modules = ("halfint", "so5", "racah")

    def prepare(self):
        self.series = series_of(self.mods, 3)
        small = [(a, b, g) for (a, b), s in self.series.items()
                 if a[0] <= 2 and b[0] <= 2 for g in s]
        rest = [(a, b, g) for (a, b), s in self.series.items()
                if not (a[0] <= 2 and b[0] <= 2) for g in s]
        augmented = [c for c in rest if c[0] == c[1] and c[2] == (0, 0)]
        others = [c for c in rest if c not in augmented and c != LARGEST_BLOCK]
        sample = random.Random(SWEEP_SAMPLE_SEED).sample(others, SWEEP_SAMPLE_SIZE)
        chosen = small + augmented + [LARGEST_BLOCK] + sample
        self.rng.shuffle(chosen)
        self.items = [tuple(irrep_obj(self.mods, t) for t in c) for c in chosen]
        self.per_round = len(chosen)

    def run_round(self, k, traced=False):
        r, m = Round(), self.mods
        blocks = []
        r.probe(force=True)
        t_start = perf_counter()
        for g1, g2, g in self.items:
            blk = _timed(r, lambda: _solve(m, g1, g2, g), "%s x %s -> %s" % (g1, g2, g))
            if blk is not None:
                blocks.append(blk)
        r.total = perf_counter() - t_start - r.probe_s
        r.probe(force=True)
        r.outputs = [block_payload(b) for b in blocks]
        r.extra["output_bytes"] = sum(len(oracle.canonical_json(p)) for p in r.outputs)
        return r

    def check(self, first):
        problems = check_series(self.series) + self.round_problems
        probs, seen = check_payloads(first.outputs, self.series)
        problems += probs
        if ("block", "(1/2,1/2)", "(1/2,0)", "(1/2,0)") not in seen:
            problems.append("the published vector-coupling block was not produced")
        return problems


class ChainTables(Workload):
    name = "chain-tables"
    modules = ("halfint", "so5", "racah", "isospin", "angmom")

    def prepare(self):
        self.series = series_of(self.mods, 2)
        chosen = [(a, b, g) for (a, b), s in self.series.items() for g in s]
        self.rng.shuffle(chosen)
        self.items = [tuple(irrep_obj(self.mods, t) for t in c) for c in chosen]
        self.per_round = len(chosen)

    def run_round(self, k, traced=False):
        r, m = Round(), self.mods

        def one(g1, g2, g):
            blk = _solve(m, g1, g2, g)
            return blk, m.isospin.chain2_transform(blk), m.angmom.chain3_transform(blk)

        results = []
        r.probe(force=True)
        t_start = perf_counter()
        for g1, g2, g in self.items:
            out = _timed(r, lambda: one(g1, g2, g), "%s x %s -> %s" % (g1, g2, g))
            if out is not None:
                results.append(out)
        r.total = perf_counter() - t_start - r.probe_s
        r.probe(force=True)
        r.outputs = [p for blk, rows2, rows3 in results
                     for p in (block_payload(blk), chain2_payload(blk, rows2),
                               chain3_payload(blk, rows3))]
        r.extra["output_bytes"] = sum(len(oracle.canonical_json(p)) for p in r.outputs)
        return r

    def check(self, first):
        problems = check_series(self.series) + self.round_problems
        probs, seen = check_payloads(first.outputs, self.series)
        problems += probs
        for want in (("block", "(1/2,1/2)", "(1/2,0)", "(1/2,0)"),
                     ("chain2-table", "(1,0)", "(1,1/2)", "(1,1/2)")):
            if want not in seen:
                problems.append("published table %s was not produced" % (want,))
        return problems


def invoke(main, argv):
    """Run one so5racah command in process through its click entry point;
    returns (exit code, stdout text)."""
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf):
        try:
            main.main(args=argv, prog_name="so5racah", standalone_mode=False)
        except SystemExit as e:
            code = e.code if isinstance(e.code, int) else 1
        except Exception as e:  # the command failed; the caller counts it
            code = -1
            buf.write("\n%r" % e)
    return code, buf.getvalue()


def key_of(chain, g1, g2, g):
    return "%s|%s x %s -> %s" % (chain, g1, g2, g)


def _read_files(store):
    rec_dir = os.path.join(store, "records")
    files = {}
    if os.path.isdir(rec_dir):
        for f in sorted(os.listdir(rec_dir)):
            with open(os.path.join(rec_dir, f), "rb") as fh:
                files[f] = fh.read()
    index = os.path.join(store, "index.json")
    if os.path.exists(index):
        with open(index, "rb") as fh:
            files["index.json"] = fh.read()
    return files


class TabulateR1(Workload):
    name = "tabulate-r1"
    modules = ("halfint", "so5", "cli")
    jobs = 2
    # the three tabulate commands are the write phase, the queries follow
    wall_ops = slice(0, len(CHAINS))
    item_ops = slice(len(CHAINS), None)

    def prepare(self):
        self.series = series_of(self.mods, 2)
        self.keys = []
        for (a, b), s in self.series.items():
            for g in s:
                for chain in CHAINS:
                    self.keys.append((chain, label(a), label(b), label(g)))
        queries = [(k, fmt) for k in self.keys for fmt in FORMATS]
        self.rng.shuffle(queries)
        self.queries = queries
        self.per_round = len(self.keys)

    def _argv(self, key, fmt, store):
        chain, g1, g2, g = key
        head = ["couple"] if chain == "so4" else ["transform", "--to", chain]
        return head + ["--g1", g1, "--g2", g2, "--g", g,
                       "--format", fmt, "--store", store]

    def run_round(self, k, traced=False):
        """The write phase runs the pool at --jobs 2, or at 1 in a traced
        run so that the workers' calls are traced in this process."""
        r, main = Round(), self.mods.cli.main
        store = os.path.join(self.run_dir, "store-%d" % k)
        jobs = 1 if traced else self.jobs

        def command(argv):
            code, out = invoke(main, argv)
            if code != 0:
                raise RuntimeError("exit %s: %s" % (code, out[-300:]))
            return out

        r.probe(force=True)
        t_start = perf_counter()
        for chain in CHAINS:
            _timed(r, lambda: command(["tabulate", "--max-r", "1", "--chain", chain,
                                       "--jobs", str(jobs), "--store", store]),
                   "tabulate " + chain)
        write_probe_s = r.probe_s
        files = _read_files(store)
        r.extra["index_bytes"] = len(files.get("index.json", b""))
        r.extra["record_bytes"] = sum(len(b) for f, b in files.items() if f != "index.json")
        r.extra["output_bytes"] = r.extra["index_bytes"] + r.extra["record_bytes"]
        t_read = perf_counter()
        outputs = []
        for key, fmt in self.queries:
            outputs.append(_timed(r, lambda: command(self._argv(key, fmt, store)),
                                  "query %s %s" % (key, fmt)))
        t_end = perf_counter()
        probe_s = r.probe_s
        r.total = (t_end - t_start) - probe_s
        r.extra["read_s"] = (t_end - t_read) - (probe_s - write_probe_s)
        r.probe(force=True)
        r.outputs = (store, files, outputs)
        return r

    def absorb(self, first, r):
        store, files, outputs = r.outputs
        if files != first.outputs[1]:
            self.round_problems.append("store %s differs from the first round's" % store)
        if outputs != first.outputs[2]:
            self.round_problems.append("query outputs differ from the first round's")
        shutil.rmtree(store, ignore_errors=True)
        r.outputs = None

    def check(self, first):
        """Every record file, the index, the record values and every query
        output of the first round; later rounds were compared with it."""
        problems = check_series(self.series) + self.round_problems
        _, files, outputs = first.outputs
        payloads = {}
        for f, blob in files.items():
            if f != "index.json":
                payload, probs = oracle.check_record_file(f, blob)
                problems += probs
                payloads[f[:-len(".json")]] = payload
        try:
            index = json.loads(files["index.json"])["records"]
        except (KeyError, ValueError) as e:
            return problems + ["index.json unreadable (%r)" % e]
        want = {key_of(*k) for k in self.keys}
        if set(index) != want:
            problems.append("index holds %d keys, want %d" % (len(index), len(want)))
        by_key = {}
        for key, h in sorted(index.items()):
            p = payloads.get(h)
            if p is None:
                problems.append("index entry %s has no record file" % key)
                continue
            if key_of(p["chain"], p["g1"], p["g2"], p["g"]) != key:
                problems.append("record under %s is for another coupling" % key)
            by_key[key] = p
        probs, seen = check_payloads(list(by_key.values()), self.series)
        problems += probs
        for want_t in (("block", "(1/2,1/2)", "(1/2,0)", "(1/2,0)"),
                       ("chain2-table", "(1,0)", "(1,1/2)", "(1,1/2)")):
            if want_t not in seen:
                problems.append("published table %s is not in the store" % (want_t,))
        for (key, fmt), out in zip(self.queries, outputs):
            p = by_key.get(key_of(*key))
            if out is None:
                continue
            if p is None:
                problems.append("query for %s has no stored record" % (key,))
                continue
            problems += oracle.check_query_output(fmt, out, p)
        return problems


WORKLOADS = {w.name: w for w in (So4Sweep, ChainTables, TabulateR1)}


# -- traced targets and per-layer metrics ----------------------------------

class LayerStats:
    """Counts taken from call results in the traced round."""

    def __init__(self):
        self.rows = self.cols = self.rank = self.augmented = self.nonzero = 0
        self.irreps = {"isospin": set(), "angmom": set()}
        self.out_rows = {"isospin": 0, "angmom": 0}

    def on_system(self, args, system):
        m = getattr(system, "matrix", None)
        self.rows += getattr(m, "nrows", 0)
        self.cols += getattr(m, "ncols", 0)
        self.augmented += getattr(system, "n_augmented", 0)
        for row in getattr(m, "rows", ()):
            self.nonzero += sum(1 for x in row if not x.is_zero())

    def on_block(self, args, blk):
        self.rank += len(blk.columns) - blk.D

    def brackets(self, chain):
        def hook(args, result):
            self.irreps[chain].add(str(args[0]))
        return hook

    def transform(self, chain):
        def hook(args, result):
            self.out_rows[chain] += len(result)
        return hook


def targets(stats):
    p = PACKAGE + "."
    T = Target
    out = [
        T(p + "racah", "build_system", "racah", span="racah.build_system",
          on_call=stats.on_system),
        T(p + "racah", "solve_isoscalars", "racah", span="racah.solve",
          on_call=stats.on_block),
        T(p + "linalg", "ExactMatrix.rref", "linalg", span="linalg.rref"),
        T(p + "linalg", "ExactMatrix.nullspace", "linalg", span="linalg.nullspace"),
        T(p + "so5", "generator_rme", "symbols", count="so5.generator_rme_calls"),
        T(p + "so4", "so4_usixj", "symbols", count="so4.so4_usixj_calls"),
        T(p + "so4", "so4_cg", "symbols", count="so4.so4_cg_calls"),
        T(p + "so4", "so4_phi", "symbols"),
        T(p + "su2", "su2_cg", "symbols", count="su2.su2_cg_calls"),
        T(p + "su2", "su2_sixj", "symbols"),
        T(p + "su2", "su2_usixj", "symbols"),
        T(p + "su2", "su2_phi", "symbols"),
        T(p + "isospin", "chain2_brackets", "isospin", span="isospin.brackets",
          count="isospin.brackets_calls", on_call=stats.brackets("isospin")),
        T(p + "isospin", "chain2_transform", "isospin", span="isospin.transform",
          on_call=stats.transform("isospin")),
        T(p + "angmom", "chain3_generator_matrices", "angmom",
          span="angmom.generator_matrices"),
        T(p + "angmom", "chain3_brackets", "angmom", span="angmom.brackets",
          count="angmom.brackets_calls", on_call=stats.brackets("angmom")),
        T(p + "angmom", "chain3_transform", "angmom", span="angmom.transform",
          on_call=stats.transform("angmom")),
        T(p + "store", "Store.write_record", "store", span="store.write",
          count="store.writes"),
        T(p + "store", "Store.flush_index", "store", span="store.flush_index"),
        T(p + "store", "Store.hash_for", "store", span="store.read"),
        T(p + "store", "Store.read_record", "store", span="store.read",
          count="store.reads"),
        T(p + "formats", "render_record", "formats", span="formats.render"),
    ]
    for fn in ("block_record", "chain2_record", "chain3_record", "canonical_json",
               "block_from_record"):
        out.append(T(p + "formats", fn, "formats", span="formats.record"))
    ops = {"__mul__": "mul", "__rmul__": "mul", "__add__": "add", "__radd__": "add",
           "__sub__": "sub", "__rsub__": "sub", "invert": "invert"}
    for meth, op in ops.items():
        out.append(T(p + "exact", "RadicalSum." + meth, "exact",
                     count="exact.%s_calls" % op))
    for meth in ("__mul__", "__rmul__"):
        out.append(T(p + "exact", "Radical." + meth, "exact", count="exact.mul_calls"))
    for fn in ("canonicalize", "root_of_rational", "exact_sign", "render_value",
               "parse_value"):
        out.append(T(p + "exact", fn, "exact"))
    return out


def layer_metrics(tracer, stats, traced, untraced_wall):
    """Per-layer metrics of one traced round, by name, as (value, unit);
    untraced_wall is the same round's wall time without tracing."""
    sp, ct, ss = tracer.spans, tracer.counts, tracer.self_s
    traced_wall = traced.total - tracer.hook_s
    query_s = traced.extra.get("read_s", 0.0)
    m = {
        "racah.build_system_s": (sp["racah.build_system"], "s"),
        "racah.solve_s": (sp["racah.solve"], "s"),
        "racah.rows": (stats.rows, "count"),
        "racah.cols": (stats.cols, "count"),
        "racah.rank": (stats.rank, "count"),
        "racah.rank_per_row": (stats.rank / stats.rows if stats.rows else 0.0, "ratio"),
        "racah.augmented_rows": (stats.augmented, "count"),
        "linalg.rref_s": (sp["linalg.rref"], "s"),
        "linalg.nullspace_s": (sp["linalg.nullspace"], "s"),
        "linalg.nonzero_entries": (stats.nonzero, "count"),
        "exact.mul_calls": (ct["exact.mul_calls"], "count"),
        "exact.add_calls": (ct["exact.add_calls"], "count"),
        "exact.sub_calls": (ct["exact.sub_calls"], "count"),
        "exact.invert_calls": (ct["exact.invert_calls"], "count"),
        "exact.self_s": (ss["exact"], "s"),
        "so5.generator_rme_calls": (ct["so5.generator_rme_calls"], "count"),
        "so4.so4_usixj_calls": (ct["so4.so4_usixj_calls"], "count"),
        "so4.so4_cg_calls": (ct["so4.so4_cg_calls"], "count"),
        "su2.su2_cg_calls": (ct["su2.su2_cg_calls"], "count"),
        "symbols.self_s": (ss["symbols"], "s"),
    }
    for chain in ("isospin", "angmom"):
        m[chain + ".brackets_s"] = (sp[chain + ".brackets"], "s")
        m[chain + ".brackets_calls"] = (ct[chain + ".brackets_calls"], "count")
        m[chain + ".brackets_irreps"] = (len(stats.irreps[chain]), "count")
        m[chain + ".transform_s"] = (sp[chain + ".transform"], "s")
        m[chain + ".rows"] = (stats.out_rows[chain], "count")
    m["angmom.generator_matrices_s"] = (sp["angmom.generator_matrices"], "s")
    m.update({
        "formats.record_s": (sp["formats.record"], "s"),
        "formats.render_s": (sp["formats.render"], "s"),
        "formats.record_bytes": (traced.extra.get("record_bytes", 0), "bytes"),
        "store.write_s": (sp["store.write"], "s"),
        "store.writes": (ct["store.writes"], "count"),
        "store.flush_index_s": (sp["store.flush_index"], "s"),
        "store.read_s": (sp["store.read"], "s"),
        "store.reads": (ct["store.reads"], "count"),
        "store.index_bytes": (traced.extra.get("index_bytes", 0), "bytes"),
        "cli.query_overhead_s": (
            max(0.0, query_s - sp["store.read"] - sp["formats.render"]), "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.traced_wall_s": (traced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
    })
    return m
