"""Command-line tabulator for exact coupling coefficients.

Exit codes: 0 success, 1 verification failure, 2 argument or parse
error, 3 coupling not in the Kronecker series, 4 store I/O failure.
"""

import multiprocessing
import os
import sys
from contextlib import nullcontext

import click

from .angmom import chain3_brackets, chain3_level, chain3_transform, \
    verify_chain3_brackets
from .chains import branch as chain_branch, weight_basis
from .errors import NotInSeries, So5Error, StoreError
from .formats import block_record, chain2_record, chain3_record, \
    render_record
from .halfint import HalfInt
from .isospin import chain2_brackets, chain2_level, chain2_transform, \
    verify_chain2_brackets
from .racah import bra_sums, build_system, solve_isoscalars, verify_block
from .so5 import So5Irrep, so5_branch_so4, so5_kronecker
from .store import Store, parse_key, payload_hash, record_key

STORE_ENV = "SO5RACAH_STORE"

# per physical chain: its level function, brackets, their check, label names
_TABLE_CHAINS = {
    "isospin": (chain2_level, chain2_brackets, verify_chain2_brackets,
                ("MS", "k", "T", "MT")),
    "angmom": (chain3_level, chain3_brackets, verify_chain3_brackets,
               ("a", "L", "ML")),
}
CHAINS = ("so4",) + tuple(_TABLE_CHAINS)
FORMATS = ("text", "csv", "json", "float")


def _parse(parse, what, s):
    try:
        return parse(s)
    except (So5Error, ValueError) as e:
        raise click.UsageError("bad %s %r: %s" % (what, s, e))


def _payload(chain, block):
    """The record payload of a coupling in one chain, derived from its
    canonical block, and the chain-table rows it holds (None for so4)."""
    if chain == "so4":
        return block_record(block), None
    if chain == "isospin":
        rows = chain2_transform(block)
        return chain2_record(block.g1, block.g2, block.g, rows), rows
    rows = chain3_transform(block)
    return chain3_record(block.g1, block.g2, block.g, rows), rows


def _product_label(row):
    """The product label of a chain-table row as "ms=0 k=1 t=0".  A row's
    fields are lab1, lab2, lab and values, the labels of equal length, as
    chains.transform makes them."""
    n = len(row) // 3
    return " ".join("%s=%s" % fv for fv in zip(row._fields[2 * n:3 * n],
                                                row[2 * n:3 * n]))


def _rendered(store_path, chain, g1, g2, g, fmt, digits):
    """One coupling's record rendered: read from the store if it holds
    the key, else solved (and written to the store if one is given).
    A stored record that fails the store's checked read or does not
    render is a store error."""
    st = None if store_path is None else Store(store_path)
    key = record_key(chain, str(g1), str(g2), str(g))
    if st is None or st.hash_for(key) is None:
        payload = _payload(chain, solve_isoscalars(g1, g2, g))[0]
        if st is not None:
            st.write_record(key, payload)
            st.flush_index()
        return render_record(payload, fmt, digits)
    payload = st.read_record(key)["payload"]
    try:
        return render_record(payload, fmt, digits)
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as e:
        raise StoreError("record %r is unusable: %s" % (key, e)) from None


def _emit(text, output):
    if output is None:
        click.echo(text, nl=False)
        return
    try:
        with open(output, "w") as f:
            f.write(text)
    except OSError as e:
        raise click.UsageError("cannot write %s: %s" % (output, e.strerror))


class _Commands(click.Group):
    """Maps engine exceptions to the documented exit codes, for every command."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except NotInSeries as e:
            click.echo("error: %s" % e, err=True)
            sys.exit(3)
        except StoreError as e:
            click.echo("store error: %s" % e, err=True)
            sys.exit(4)
        except So5Error as e:
            click.echo("verification error: %s" % e, err=True)
            sys.exit(1)


@click.group(cls=_Commands)
def main():
    """Exact SO(5) > SO(4) reduced coupling coefficients."""


def _coupling_options(chain_option):
    """couple's and transform's options; chain_option binds chain."""
    options = (
        click.option("--g1", required=True,
                     help="first factor irrep, e.g. \"(1,1/2)\""),
        click.option("--g2", required=True, help="second factor irrep"),
        click.option("--g", required=True, help="product irrep"),
        chain_option,
        click.option("--format", "fmt", default="text",
                     type=click.Choice(FORMATS), show_default=True),
        click.option("--digits", default=16, type=click.IntRange(1, 30),
                     show_default=True, help="decimal digits for --format float"),
        click.option("--output", default=None, type=click.Path(dir_okay=False),
                     help="write to a file instead of stdout"),
        click.option("--store", "store_path", default=None, envvar=STORE_ENV,
                     help="record store to read from / write into"),
    )

    def decorate(fn):
        for option in reversed(options):
            fn = option(fn)
        return fn
    return decorate


@main.command()
@_coupling_options(click.option("--chain", default="so4", show_default=True,
                                type=click.Choice(CHAINS)))
def couple(g1, g2, g, chain, fmt, digits, output, store_path):
    """One coupling: solve (or load) and print the coefficient table."""
    t1, t2, t = (_parse(So5Irrep.parse, "irrep", s) for s in (g1, g2, g))
    _emit(_rendered(store_path, chain, t1, t2, t, fmt, digits), output)


@main.command()
@_coupling_options(click.option("--to", "chain", required=True,
                                type=click.Choice(tuple(_TABLE_CHAINS))))
def transform(g1, g2, g, chain, fmt, digits, output, store_path):
    """Transform a canonical-chain block to another subalgebra chain."""
    t1, t2, t = (_parse(So5Irrep.parse, "irrep", s) for s in (g1, g2, g))
    _emit(_rendered(store_path, chain, t1, t2, t, fmt, digits), output)


@main.command()
@click.option("--g", required=True)
@click.option("--chain", default="so4", type=click.Choice(CHAINS),
              show_default=True)
@click.option("--ms", default=None, help="restrict isospin output to one M_S")
def branch(g, chain, ms):
    """Branching content of one irrep in the chosen chain."""
    t = _parse(So5Irrep.parse, "irrep", g)
    if ms is not None and chain != "isospin":
        raise click.UsageError("--ms only applies to --chain isospin")
    if chain == "so4":
        for lam in so5_branch_so4(t):
            click.echo(str(lam))
        return
    level, _, _, names = _TABLE_CHAINS[chain]
    rows = {}
    for *sector, j, mu in chain_branch(weight_basis(t), level):
        rows.setdefault(tuple(sector), []).append(
            str(j) if mu == 1 else "%s^%d" % (j, mu))
    shown = list(rows) if ms is None \
        else [(_parse(HalfInt.parse, "half-integer", ms),)]
    if shown[0] not in rows:
        raise click.UsageError("M_S=%s does not occur in %s" % (shown[0][0], t))
    for sector in shown:
        prefix = "".join("%s=%s: " % pair for pair in zip(names[:-3], sector))
        click.echo("%s%s = %s" % (prefix, names[-2], ", ".join(rows[sector])))


def _fmt_terms(pairs):
    terms = []
    for (lam, (mx, my)), c in pairs:
        s = str(c)
        if not s.startswith("-"):
            s = "+" + s
        terms.append("%s |%s;(%s,%s)>" % (s, lam, mx, my))
    return "  ".join(terms)


@main.command()
@click.option("--g", required=True)
@click.option("--chain", required=True, type=click.Choice(tuple(_TABLE_CHAINS)))
def brackets(g, chain):
    """Transformation brackets of one irrep, one chain vector per line."""
    _, ladder, _, names = _TABLE_CHAINS[chain]
    bs = ladder(_parse(So5Irrep.parse, "irrep", g))
    for key in bs.labels():
        label = " ".join("%s=%s" % pair for pair in zip(names, key))
        click.echo("|%s> = %s" % (label, _fmt_terms(bs.vector(key))))


def _tabulate_worker(args):
    chain, *labels = args
    block = solve_isoscalars(*(So5Irrep.parse(s) for s in labels))
    return record_key(chain, *labels), _payload(chain, block)[0]


@main.command()
@click.option("--max-r", "max_r", required=True,
              help="largest R of the factor irreps, e.g. \"1\" or \"3/2\"")
@click.option("--chain", default="so4", type=click.Choice(CHAINS),
              show_default=True)
@click.option("--jobs", default=1, type=click.IntRange(1, 64),
              show_default=True)
@click.option("--store", "store_path", required=True, envvar=STORE_ENV)
def tabulate(max_r, chain, jobs, store_path):
    """Compute every coupling with R1, R2 up to a bound into the store.

    Records already present are skipped.  Each record is written as its
    worker returns it, and the index once at the end, in sorted key
    order; records are content-addressed, so output bytes are
    independent of --jobs.
    """
    bound = _parse(HalfInt.parse, "half-integer", max_r)
    if bound.twice < 0:
        raise click.UsageError("--max-r must not be negative, got %s" % bound)
    st = Store(store_path)
    irreps = [So5Irrep(HalfInt(tr), HalfInt(ts))
              for tr in range(bound.twice + 1) for ts in range(tr + 1)]
    couplings = [(chain, str(g1), str(g2), str(g)) for g1 in irreps
                 for g2 in irreps for g in so5_kronecker(g1, g2)]
    # sorted: the pool hands the couplings out in this order
    work = sorted(c for c in couplings if record_key(*c) not in st.index())
    jobs = min(jobs, len(work))
    # one job maps in this process, where a tracer sees the workers' calls
    with multiprocessing.Pool(jobs) if jobs > 1 else nullcontext() as pool:
        for key, payload in (pool.imap_unordered(_tabulate_worker, work, chunksize=1)
                             if pool else map(_tabulate_worker, work)):
            st.write_record(key, payload)
    if work:
        st.flush_index()
    click.echo("%d records written, %d already present, store %s"
               % (len(work), len(couplings) - len(work), store_path))


def _verify_record(key, h, checked):
    """Problems of the record stored under key with content hash h, whose
    coupling is solved afresh: the block must pass verify_block, a chain
    table's irreps their bracket check and the derived table its bra
    sums, and h must be the hash of the derived payload.  Each block and
    bracket check runs once per run: checked maps a coupling (g1, g2, g)
    to its (block, problems) and (chain, irrep) to the irrep's bracket
    problems."""
    try:
        chain, *labels = parse_key(key)
        irreps = [So5Irrep.parse(s) for s in labels]
    except ValueError as e:
        return [str(e)]
    if chain not in CHAINS or [str(t) for t in irreps] != labels:
        return ["%r is not a canonical record key" % key]
    coupling = tuple(irreps)
    if coupling not in checked:
        system = build_system(*irreps)
        block = solve_isoscalars(*irreps, system=system)
        checked[coupling] = block, verify_block(block, system)
    block, problems = checked[coupling]
    problems = list(problems)
    payload, rows = _payload(chain, block)
    if chain in _TABLE_CHAINS:
        _, brackets, check, _ = _TABLE_CHAINS[chain]
        for g in dict.fromkeys(irreps):
            if (chain, g) not in checked:
                checked[chain, g] = check(g, brackets(g))
            problems += checked[chain, g]
        problems += bra_sums([(_product_label(r),) for r in rows],
                             list(zip(*(r.values for r in rows))))
    if payload_hash(payload) != h:
        problems.append("record differs from the one re-derived from the "
                        "coupling its key names")
    return problems


@main.command()
@click.option("--store", "store_path", required=True, envvar=STORE_ENV)
def verify(store_path):
    """Re-check every stored record: content hashes, then the record its
    key names is re-derived from a freshly solved block that must pass
    the exactness reports (row annihilation, orthonormality, bracket
    unitarity, eigen-relations, chain-table bra sums) and equal the
    stored one.  One line per record; exit 1 if anything fails."""
    st = Store(store_path)
    if not os.path.exists(st.index_path):
        raise StoreError("no store at %s: index.json is missing" % store_path)
    keys = st.keys()
    bad = 0
    checked = {}
    for key in keys:
        try:
            problems = _verify_record(key, st.read_record(key)["meta"]["hash"],
                                      checked)
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
