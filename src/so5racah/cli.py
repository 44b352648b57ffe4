"""Command-line tabulator for exact coupling coefficients.

Exit codes: 0 success, 1 verification failure, 2 argument or parse
error, 3 coupling not in the Kronecker series, 4 store I/O failure.
"""

import functools
import multiprocessing
import sys

import click

from .angmom import chain3_branch, chain3_brackets, chain3_transform, \
    verify_chain3_brackets
from .errors import NotInSeries, So5Error, StoreError
from .formats import block_from_record, block_record, chain2_record, \
    chain3_record, render_record
from .halfint import HalfInt
from .isospin import chain2_branch, chain2_brackets, chain2_transform, \
    verify_chain2_brackets
from .racah import build_system, solve_isoscalars, verify_block
from .so5 import So5Irrep, so5_branch_so4, so5_kronecker
from .store import Store, record_key

STORE_ENV = "SO5RACAH_STORE"

CHAINS = ("so4", "isospin", "angmom")
FORMATS = ("text", "csv", "json", "float")


def guarded(fn):
    """Map engine exceptions to the documented exit codes."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except NotInSeries as e:
            click.echo("error: %s" % e, err=True)
            sys.exit(3)
        except StoreError as e:
            click.echo("store error: %s" % e, err=True)
            sys.exit(4)
        except So5Error as e:
            click.echo("verification error: %s" % e, err=True)
            sys.exit(1)
    return wrapper


def _parse_irrep(s):
    try:
        return So5Irrep.parse(s)
    except (So5Error, ValueError) as e:
        raise click.UsageError("bad irrep %r: %s" % (s, e))


def _parse_halfint(s):
    try:
        return HalfInt.parse(s)
    except ValueError as e:
        raise click.UsageError("bad half-integer %r: %s" % (s, e))


def _compute_payload(chain, g1, g2, g):
    """Build the record payload for one coupling from a freshly solved
    canonical block."""
    block = solve_isoscalars(g1, g2, g)
    if chain == "so4":
        return block_record(block)
    if chain == "isospin":
        return chain2_record(g1, g2, g, chain2_transform(block))
    return chain3_record(g1, g2, g, chain3_transform(block))


def _load_or_compute(store_path, chain, g1, g2, g):
    if store_path is None:
        return _compute_payload(chain, g1, g2, g)
    st = Store(store_path)
    key = record_key(chain, str(g1), str(g2), str(g))
    if st.hash_for(key) is not None:
        return st.read_record(key)["payload"]
    payload = _compute_payload(chain, g1, g2, g)
    st.write_record(key, payload)
    st.flush_index()
    return payload


def _emit(text, output):
    if output is None:
        click.echo(text, nl=False)
    else:
        with open(output, "w") as f:
            f.write(text)


@click.group()
def main():
    """Exact SO(5) > SO(4) reduced coupling coefficients."""


@main.command()
@click.option("--g1", required=True, help="first factor irrep, e.g. \"(1,1/2)\"")
@click.option("--g2", required=True, help="second factor irrep")
@click.option("--g", required=True, help="product irrep")
@click.option("--chain", default="so4", type=click.Choice(CHAINS),
              show_default=True)
@click.option("--format", "fmt", default="text", type=click.Choice(FORMATS),
              show_default=True)
@click.option("--digits", default=16, type=click.IntRange(1, 30),
              show_default=True, help="decimal digits for --format float")
@click.option("--output", default=None, type=click.Path(dir_okay=False),
              help="write to a file instead of stdout")
@click.option("--store", "store_path", default=None, envvar=STORE_ENV,
              help="record store to read from / write into")
@guarded
def couple(g1, g2, g, chain, fmt, digits, output, store_path):
    """One coupling: solve (or load) and print the coefficient table."""
    t1, t2, t = _parse_irrep(g1), _parse_irrep(g2), _parse_irrep(g)
    payload = _load_or_compute(store_path, chain, t1, t2, t)
    _emit(render_record(payload, fmt, digits), output)


@main.command()
@click.option("--g1", required=True)
@click.option("--g2", required=True)
@click.option("--g", required=True)
@click.option("--to", "target", required=True,
              type=click.Choice(("isospin", "angmom")))
@click.option("--format", "fmt", default="text", type=click.Choice(FORMATS),
              show_default=True)
@click.option("--digits", default=16, type=click.IntRange(1, 30),
              show_default=True)
@click.option("--output", default=None, type=click.Path(dir_okay=False))
@click.option("--store", "store_path", default=None, envvar=STORE_ENV)
@guarded
def transform(g1, g2, g, target, fmt, digits, output, store_path):
    """Transform a canonical-chain block to another subalgebra chain."""
    t1, t2, t = _parse_irrep(g1), _parse_irrep(g2), _parse_irrep(g)
    payload = _load_or_compute(store_path, target, t1, t2, t)
    _emit(render_record(payload, fmt, digits), output)


@main.command()
@click.option("--g", required=True)
@click.option("--chain", default="so4", type=click.Choice(CHAINS),
              show_default=True)
@click.option("--ms", default=None, help="restrict isospin output to one M_S")
@guarded
def branch(g, chain, ms):
    """Branching content of one irrep in the chosen chain."""
    t = _parse_irrep(g)
    if chain == "so4":
        for lam in so5_branch_so4(t):
            click.echo(str(lam))
        return
    if chain == "angmom":
        if ms is not None:
            raise click.UsageError("--ms only applies to --chain isospin")
        parts = []
        for l, mu in chain3_branch(t):
            parts.append(str(l) if mu == 1 else "%s^%d" % (l, mu))
        click.echo("L = " + ", ".join(parts))
        return
    rows = {}
    for m, tt, mu in chain2_branch(t):
        rows.setdefault(m, []).append((tt, mu))
    want = _parse_halfint(ms) if ms is not None else None
    for m in sorted(rows, key=lambda h: -h.twice):
        if want is not None and m != want:
            continue
        parts = [str(tt) if mu == 1 else "%s^%d" % (tt, mu)
                 for tt, mu in rows[m]]
        click.echo("MS=%s: T = %s" % (m, ", ".join(parts)))


def _fmt_weight(w):
    return "(%s,%s)" % (w[0], w[1])


def _fmt_terms(pairs):
    terms = []
    for (lam, w), c in pairs:
        s = str(c)
        if not s.startswith("-"):
            s = "+" + s
        terms.append("%s |%s;%s>" % (s, lam, _fmt_weight(w)))
    return "  ".join(terms)


@main.command()
@click.option("--g", required=True)
@click.option("--chain", required=True, type=click.Choice(("isospin", "angmom")))
@guarded
def brackets(g, chain):
    """Transformation brackets of one irrep, one chain vector per line."""
    t = _parse_irrep(g)
    if chain == "isospin":
        bs = chain2_brackets(t)
        for (ms, kappa, tt, mt) in bs.labels():
            click.echo("|MS=%s k=%d T=%s MT=%s> = %s"
                       % (ms, kappa, tt, mt,
                          _fmt_terms(bs.vector((ms, kappa, tt, mt)))))
    else:
        bs = chain3_brackets(t)
        for (a, l, ml) in bs.labels():
            click.echo("|a=%d L=%s ML=%s> = %s"
                       % (a, l, ml, _fmt_terms(bs.vector((a, l, ml)))))


def _irreps_up_to(max_r):
    out = []
    for tr in range(0, max_r.twice + 1):
        for ts in range(0, tr + 1):
            out.append(So5Irrep(HalfInt(tr), HalfInt(ts)))
    return out


def _tabulate_worker(args):
    chain, g1s, g2s, gs = args
    g1 = So5Irrep.parse(g1s)
    g2 = So5Irrep.parse(g2s)
    g = So5Irrep.parse(gs)
    return record_key(chain, g1s, g2s, gs), _compute_payload(chain, g1, g2, g)


@main.command()
@click.option("--max-r", "max_r", required=True,
              help="largest R of the factor irreps, e.g. \"1\" or \"3/2\"")
@click.option("--chain", default="so4", type=click.Choice(CHAINS),
              show_default=True)
@click.option("--jobs", default=1, type=click.IntRange(1, 64),
              show_default=True)
@click.option("--store", "store_path", required=True, envvar=STORE_ENV)
@guarded
def tabulate(max_r, chain, jobs, store_path):
    """Compute every coupling with R1, R2 up to a bound into the store.

    Records already present are skipped.  Output bytes are independent
    of --jobs: records are content-addressed and the index is written
    once, in sorted key order.
    """
    bound = _parse_halfint(max_r)
    st = Store(store_path)
    have = st.index()
    irreps = _irreps_up_to(bound)
    work = []
    skipped = 0
    for g1 in irreps:
        for g2 in irreps:
            series = so5_kronecker(g1, g2)
            for g in sorted(series, key=lambda h: (h.R.twice, h.S.twice)):
                key = record_key(chain, str(g1), str(g2), str(g))
                if key in have:
                    skipped += 1
                else:
                    work.append((chain, str(g1), str(g2), str(g)))
    work.sort()
    if work:
        if jobs == 1:
            results = [_tabulate_worker(a) for a in work]
        else:
            with multiprocessing.Pool(processes=jobs) as pool:
                results = list(pool.imap_unordered(_tabulate_worker, work,
                                                   chunksize=1))
        for key, payload in sorted(results, key=lambda kv: kv[0]):
            st.write_record(key, payload)
        st.flush_index()
    click.echo("%d records written, %d already present, store %s"
               % (len(work), skipped, store_path))


_TABLE_CHAINS = {
    "chain2-table": ("isospin", chain2_brackets, verify_chain2_brackets),
    "chain3-table": ("angmom", chain3_brackets, verify_chain3_brackets),
}


def _verify_payload(payload, checked):
    """Problems of one record.  checked maps (chain, irrep) to the
    problems of that irrep's bracket check, so one verify run checks
    each irrep once."""
    kind = payload.get("kind")
    if kind != "block" and kind not in _TABLE_CHAINS:
        return ["unknown record kind %r" % kind]
    irreps = [So5Irrep.parse(payload[slot]) for slot in ("g1", "g2", "g")]
    if kind == "block":
        # one assembly serves the stored block's checks and the fresh solve
        block = block_from_record(payload)
        system = build_system(*irreps)
        problems = verify_block(block, system)
        fresh = block_record(solve_isoscalars(*irreps, system=system))
    else:
        chain, brackets, check = _TABLE_CHAINS[kind]
        problems = []
        for g in dict.fromkeys(irreps):
            if (chain, g) not in checked:
                checked[chain, g] = check(g, brackets(g))
            problems += checked[chain, g]
        fresh = _compute_payload(chain, *irreps)
    if fresh != payload:
        problems.append("record differs from the one recomputed from a "
                        "freshly solved canonical block")
    return problems


@main.command()
@click.option("--store", "store_path", required=True, envvar=STORE_ENV)
@guarded
def verify(store_path):
    """Re-check every stored record: content hashes, then the exactness
    reports (row annihilation, orthonormality, bracket unitarity,
    eigen-relations); every record is also recomputed and compared.
    One line per record; exit 1 if anything fails."""
    st = Store(store_path)
    keys = st.keys()
    bad = 0
    checked = {}
    for key in keys:
        try:
            payload, problems = st.check_record(key)
        except StoreError as e:
            payload, problems = None, [str(e)]
        if payload is not None and not problems:
            try:
                problems = _verify_payload(payload, checked)
            except So5Error as e:
                problems = [str(e)]
        click.echo("%s %s" % ("ok  " if not problems else "FAIL", key))
        for p in problems:
            click.echo("     - %s" % p)
        if problems:
            bad += 1
    click.echo("%d records checked, %d failed" % (len(keys), bad))
    if bad:
        sys.exit(1)


if __name__ == "__main__":
    main()
