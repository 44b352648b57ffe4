"""End-to-end tests of the command-line interface."""

import hashlib
import json
import os

import pytest
from click.testing import CliRunner

from so5racah.cli import main
from so5racah.errors import InternalInconsistency
from so5racah.exact import parse_value, render_value
from so5racah.formats import canonical_json
from so5racah.store import Store, record_key


def run(*args, **kw):
    runner = CliRunner()
    return runner.invoke(main, list(args), **kw)


def test_couple_text():
    r = run("couple", "--g1", "(1/2,1/2)", "--g2", "(1/2,0)", "--g", "(1/2,0)")
    assert r.exit_code == 0
    assert "(1/2,1/2) x (1/2,0) -> (1/2,0)" in r.output
    assert "[so4, D=1]" in r.output
    assert "-sqrt(1/5)" in r.output
    assert "-sqrt(4/5)" in r.output
    # four data rows under one header pair
    assert len(r.output.strip().splitlines()) == 6


def test_couple_huge_factor_not_in_series():
    # the Kronecker series of a scalar with a huge irrep is that irrep
    # alone, found without walking its weights
    r = run("couple", "--g1", "(0,0)", "--g2", "(99999999999999999999,0)",
            "--g", "(0,0)")
    assert r.exit_code == 3
    assert "not in" in r.output


def test_couple_csv_no_embedded_commas():
    r = run("couple", "--g1", "(1/2,1/2)", "--g2", "(1/2,0)", "--g", "(1/2,0)",
            "--format", "csv")
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[0] == "X1,Y1,X2,Y2,X,Y,rho=1"
    assert "0,0,0,1/2,0,1/2,-sqrt(1/5)" in lines
    assert len(set(l.count(",") for l in lines)) == 1


def test_couple_float_digits():
    r = run("couple", "--g1", "(1/2,1/2)", "--g2", "(1/2,0)", "--g", "(1/2,0)",
            "--format", "float", "--digits", "6")
    assert r.exit_code == 0
    assert "-0.447214" in r.output
    assert "-0.894427" in r.output


def test_couple_json_parses():
    r = run("couple", "--g1", "(1/2,1/2)", "--g2", "(1/2,0)", "--g", "(1/2,0)",
            "--format", "json")
    rec = json.loads(r.output)
    assert rec["kind"] == "block"
    assert rec["g"] == "(1/2,0)"


def test_couple_output_file(tmp_path):
    out = tmp_path / "table.csv"
    r = run("couple", "--g1", "(1/2,1/2)", "--g2", "(1/2,0)", "--g", "(1/2,0)",
            "--format", "csv", "--output", str(out))
    assert r.exit_code == 0
    assert out.read_text().startswith("X1,Y1,")


@pytest.mark.parametrize("command", [
    ("couple",), ("transform", "--to", "angmom"),
], ids=["couple", "transform"])
def test_output_into_missing_directory_is_a_usage_error(tmp_path, command):
    out = str(tmp_path / "no-such-dir" / "x.txt")
    r = run(*command, "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
            "--output", out)
    assert r.exit_code == 2, r.output
    assert isinstance(r.exception, SystemExit)
    assert out in r.output


def test_transform_isospin():
    r = run("transform", "--g1", "(1/2,1/2)", "--g2", "(1/2,0)",
            "--g", "(1/2,0)", "--to", "isospin")
    assert r.exit_code == 0
    assert "[isospin, D=1]" in r.output
    assert "sqrt(2/5)" in r.output
    assert "-sqrt(3/5)" in r.output


def test_transform_angmom_scalar_product():
    r = run("transform", "--g1", "(1/2,1/2)", "--g2", "(1/2,1/2)",
            "--g", "(0,0)", "--to", "angmom")
    assert r.exit_code == 0
    lines = r.output.strip().splitlines()
    assert lines[-1].split() == ["2", "2", "0", "sqrt(1)"]


def test_branch_so4():
    r = run("branch", "--g", "(1/2,1/2)")
    assert r.output.strip().splitlines() == ["(0,0)", "(1/2,1/2)"]


def test_branch_isospin_ms_filter():
    r = run("branch", "--g", "(7/2,3/2)", "--chain", "isospin", "--ms", "2")
    assert r.output.strip() == "MS=2: T = 1^2, 2^2, 3^2, 4, 5"


@pytest.mark.parametrize("chain", ["so4", "angmom"])
def test_branch_ms_needs_isospin(chain):
    r = run("branch", "--g", "(1,0)", "--chain", chain, "--ms", "1")
    assert r.exit_code == 2
    assert "--ms only applies to --chain isospin" in r.output


def test_branch_angmom():
    r = run("branch", "--g", "(1,0)", "--chain", "angmom")
    assert r.output.strip() == "L = 1, 3"


def test_branch_isospin_golden():
    # every M_S line of one irrep, M_S descending and T ascending
    r = run("branch", "--g", "(7/2,3/2)", "--chain", "isospin")
    assert r.exit_code == 0
    assert r.output == "\n".join([
        "MS=5: T = 2",
        "MS=4: T = 1, 2, 3",
        "MS=3: T = 0, 1, 2^2, 3, 4",
        "MS=2: T = 1^2, 2^2, 3^2, 4, 5",
        "MS=1: T = 0, 1, 2^3, 3^2, 4^2, 5",
        "MS=0: T = 1^2, 2^2, 3^3, 4^2, 5",
        "MS=-1: T = 0, 1, 2^3, 3^2, 4^2, 5",
        "MS=-2: T = 1^2, 2^2, 3^2, 4, 5",
        "MS=-3: T = 0, 1, 2^2, 3, 4",
        "MS=-4: T = 1, 2, 3",
        "MS=-5: T = 2",
    ]) + "\n"


def test_branch_angmom_multiplicities():
    r = run("branch", "--g", "(2,1)", "--chain", "angmom")
    assert r.exit_code == 0
    assert r.output == "L = 1, 2, 3^2, 4, 5^2, 6, 7\n"


def test_brackets_isospin_mixing():
    r = run("brackets", "--g", "(1,1/2)", "--chain", "isospin")
    assert r.exit_code == 0
    assert ("|MS=1/2 k=1 T=3/2 MT=1/2> = +sqrt(5/6) |(1/2,0);(1/2,0)>"
            "  +sqrt(1/6) |(1/2,1);(1/2,0)>") in r.output
    assert "-sqrt(5/6)" in r.output


def test_brackets_angmom_top():
    r = run("brackets", "--g", "(1,0)", "--chain", "angmom")
    assert r.exit_code == 0
    assert "|a=1 L=3 ML=3> = +sqrt(1) |(0,1);(0,1)>" in r.output


def test_exit_code_bad_irrep():
    r = run("couple", "--g1", "(1,2)", "--g2", "(1/2,0)", "--g", "(1/2,0)")
    assert r.exit_code == 2


@pytest.mark.parametrize("args, message", [
    (("couple", "--g1", "(1/0,0)", "--g2", "(1/2,0)", "--g", "(1/2,0)"),
     "zero denominator"),
    (("transform", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,1/0)",
      "--to", "isospin"), "zero denominator"),
    (("brackets", "--g", "(1/0,0)", "--chain", "angmom"), "zero denominator"),
    (("branch", "--g", "(1,0)", "--chain", "isospin", "--ms", "1/0"),
     "zero denominator"),
    (("tabulate", "--max-r", "1/0"), "zero denominator"),
    (("tabulate", "--max-r", "-1"), "must not be negative"),
    (("branch", "--g", "(1,0)", "--chain", "isospin", "--ms", "7/2"),
     "M_S=7/2 does not occur in (1,0)"),
    (("branch", "--g", "(0,0)", "--chain", "isospin", "--ms", "1"),
     "M_S=1 does not occur in (0,0)"),
    (("couple", "--g1", "1/2,0", "--g2", "(1/2,0)", "--g", "(1/2,0)"),
     "bad irrep '1/2,0': cannot parse irrep '1/2,0'"),
    (("brackets", "--g", "(0,1)", "--chain", "isospin"),
     "bad irrep '(0,1)': need R >= S >= 0"),
    (("branch", "--g", "(1,0)", "--chain", "isospin", "--ms", "1/3"),
     "bad half-integer '1/3': 1/3 is not a half-integer"),
], ids=["couple", "transform", "brackets", "branch", "tabulate",
        "tabulate-negative", "branch-ms-out-of-range", "branch-ms-absent",
        "couple-unparsable", "brackets-out-of-range", "branch-ms-not-half"])
def test_zero_denominator_is_a_usage_error(tmp_path, args, message):
    # so is a negative --max-r, which would otherwise tabulate nothing,
    # and an --ms the irrep lacks, which would otherwise print nothing
    r = run(*args, env={"SO5RACAH_STORE": str(tmp_path / "st")})
    assert r.exit_code == 2, r.output
    assert message in r.output
    assert not os.path.exists(tmp_path / "st")


def test_exit_code_not_in_series():
    r = run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(1,1)")
    assert r.exit_code == 3


def _inconsistent(*args, **kw):
    raise InternalInconsistency("planted self-check failure")


@pytest.mark.parametrize("command, name", [
    (("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(1,0)"),
     "solve_isoscalars"),
    (("transform", "--to", "angmom", "--g1", "(1/2,0)", "--g2", "(1/2,0)",
      "--g", "(1,0)"), "solve_isoscalars"),
    (("tabulate", "--max-r", "0", "--jobs", "1", "--store", "st"),
     "solve_isoscalars"),
    (("branch", "--g", "(1/2,0)"), "so5_branch_so4"),
    (("brackets", "--g", "(1/2,0)", "--chain", "isospin"), "_TABLE_CHAINS"),
], ids=["couple", "transform", "tabulate", "branch", "brackets"])
def test_engine_failure_is_exit_1(tmp_path, monkeypatch, command, name):
    # every command maps an engine self-check failure to exit 1
    from so5racah import cli
    if name == "_TABLE_CHAINS":
        level, _, check, names = cli._TABLE_CHAINS["isospin"]
        monkeypatch.setitem(cli._TABLE_CHAINS, "isospin",
                            (level, _inconsistent, check, names))
    else:
        monkeypatch.setattr(cli, name, _inconsistent)
    monkeypatch.chdir(tmp_path)
    r = run(*command)
    assert r.exit_code == 1, r.output
    assert isinstance(r.exception, SystemExit)
    assert "verification error: planted self-check failure" in r.output


def test_tabulate_starts_no_more_workers_than_couplings(tmp_path, monkeypatch):
    # --max-r 0 has one coupling, so it is solved in process whatever --jobs
    from so5racah import cli

    def no_pool(*args, **kw):
        raise AssertionError("a worker pool was started")

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("tabulate", "--max-r", "0", "--store", a).exit_code == 0
    monkeypatch.setattr(cli.multiprocessing, "Pool", no_pool)
    r = run("tabulate", "--max-r", "0", "--jobs", "8", "--store", b)
    assert r.exit_code == 0, r.output
    assert r.output.startswith("1 records written, 0 already present")
    assert _store_bytes(b) == _store_bytes(a)


def test_tabulate_writes_each_record_as_its_worker_returns(tmp_path,
                                                          monkeypatch):
    # at --jobs 1, record k is written before coupling k + 1 is computed
    from so5racah import cli
    worker, write = cli._tabulate_worker, Store.write_record
    written, seen = [], []

    def counted_write(self, key, payload):
        written.append(key)
        return write(self, key, payload)

    def counted_worker(args):
        seen.append(len(written))
        return worker(args)

    monkeypatch.setattr(Store, "write_record", counted_write)
    monkeypatch.setattr(cli, "_tabulate_worker", counted_worker)
    r = run("tabulate", "--max-r", "1/2", "--store", str(tmp_path / "st"))
    assert r.exit_code == 0, r.output
    assert len(seen) > 1 and seen == list(range(len(seen)))
    assert len(written) == len(seen)


def _store_bytes(root):
    """{path under root: bytes} of every file of a store."""
    out = {}
    for d, _, files in os.walk(root):
        for name in files:
            with open(os.path.join(d, name), "rb") as f:
                out[os.path.relpath(os.path.join(d, name), root)] = f.read()
    return out


NESTED = b"[" * 100000 + b"]" * 100000

# every command that reads a store
_store_commands = pytest.mark.parametrize("command", [
    ("verify",),
    ("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)"),
    ("transform", "--to", "isospin", "--g1", "(1/2,0)", "--g2", "(1/2,0)",
     "--g", "(0,0)"),
    ("tabulate", "--max-r", "0"),
], ids=["verify", "couple", "transform", "tabulate"])


def test_exit_code_store_error(tmp_path):
    (tmp_path / "index.json").write_text("not json at all {")
    r = run("verify", "--store", str(tmp_path))
    assert r.exit_code == 4


def test_verify_without_store_is_an_error(tmp_path):
    # a mistyped store path must not pass as an empty store
    r = run("verify", "--store", str(tmp_path / "no-such-store"))
    assert r.exit_code == 4
    assert "index.json" in r.output
    assert not os.path.exists(tmp_path / "no-such-store")


@pytest.mark.parametrize("index", [
    [],
    {"schema": "so5racah-store@1"},
    {"schema": "so5racah-store@1", "records": {"k": 5}},
    {"schema": "so5racah-store@1", "records": {"k": "../../elsewhere/rec"}},
], ids=["list", "no-records", "non-string-hash", "non-hex-hash"])
@_store_commands
def test_malformed_index_is_a_store_error(tmp_path, index, command):
    # valid JSON of the wrong shape is reported, not a traceback
    (tmp_path / "index.json").write_text(json.dumps(index))
    r = run(*command, "--store", str(tmp_path))
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "store error" in r.output


@_store_commands
def test_deeply_nested_index_is_a_store_error(tmp_path, command):
    # too deep for the json parser: a store error, not a RecursionError
    (tmp_path / "index.json").write_bytes(NESTED)
    r = run(*command, "--store", str(tmp_path))
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "store error" in r.output


def test_deeply_nested_record_is_a_store_error(tmp_path):
    # couple reports it; verify fails that record and checks the rest
    store = str(tmp_path / "st")
    args = ("--g1", "(1/2,0)", "--g2", "(1/2,0)", "--store", store)
    for g in ("(0,0)", "(1,0)"):
        assert run("couple", *args, "--g", g).exit_code == 0
    st = Store(store)
    bad = "so4|(1/2,0) x (1/2,0) -> (0,0)"
    with open(st.record_path(st.hash_for(bad)), "wb") as f:
        f.write(NESTED)
    r = run("couple", *args, "--g", "(0,0)")
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "store error" in r.output and bad in r.output
    v = run("verify", "--store", store)
    assert v.exit_code == 1, v.output
    lines = v.output.splitlines()
    assert "FAIL " + bad in lines
    assert "ok   so4|(1/2,0) x (1/2,0) -> (1,0)" in lines
    assert lines[-1] == "2 records checked, 1 failed"


def _drop_g1(payload):
    del payload["g1"]


def _bad_g1(payload):
    payload["g1"] = "(1/3,0)"


def _short_vector(payload):
    payload["vectors"][0].pop()


def _zero_denominator(payload):
    payload["vectors"][0][0] = "sqrt(1/0)"


@pytest.mark.parametrize("chain, edit", [
    ("isospin", None),
    ("isospin", _drop_g1),
    ("isospin", _bad_g1),
    ("so4", _drop_g1),
    ("so4", _bad_g1),
    ("so4", _short_vector),
    ("so4", _zero_denominator),
], ids=["not-an-object", "isospin-no-g1", "isospin-bad-g1", "so4-no-g1",
        "so4-bad-g1", "so4-short-vector", "so4-zero-denominator"])
def test_verify_reports_malformed_record(tmp_path, chain, edit):
    # a hand-edited record is reported as one FAIL line, and the other
    # record is still checked
    store = str(tmp_path / "st")
    for c in ("so4", "isospin"):
        r = run("couple", "--chain", c, "--g1", "(1/2,0)", "--g2", "(1/2,0)",
                "--g", "(0,0)", "--store", store)
        assert r.exit_code == 0
    st = Store(store)
    key = "%s|(1/2,0) x (1/2,0) -> (0,0)" % chain
    if edit is None:
        with open(st.record_path(st.hash_for(key)), "w") as f:
            f.write("[]")
    else:
        # honestly re-hashed, so only the shape checks can catch it
        payload = st.read_record(key)["payload"]
        edit(payload)
        st.write_record(key, payload)
        st.flush_index()
    v = run("verify", "--store", store)
    assert v.exit_code == 1, v.output
    assert v.exception is None or isinstance(v.exception, SystemExit)
    lines = v.output.splitlines()
    assert "FAIL %s" % key in lines
    assert sum(l.startswith("ok   ") for l in lines) == 1
    assert lines[-1] == "2 records checked, 1 failed"


# the last value is 65537*65539*65543, too large to split past 2**16
@pytest.mark.parametrize("value", ["sqrt(1/0)", "sqrt(x)", "sqrt(1) + sqrt(2)",
                                   "sqrt(1/281522223382549)"])
@pytest.mark.parametrize("command, chain", [
    (("couple", "--chain", "so4"), "so4"),
    (("transform", "--to", "isospin"), "isospin"),
], ids=["couple", "transform"])
def test_unrenderable_stored_value_is_a_store_error(tmp_path, command, chain,
                                                    value):
    # a re-hashed record whose value does not parse is named, not a traceback
    args = command + ("--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
                      "--format", "float", "--store", str(tmp_path / "st"))
    assert run(*args).exit_code == 0
    st = Store(str(tmp_path / "st"))
    key = "%s|(1/2,0) x (1/2,0) -> (0,0)" % chain
    payload = st.read_record(key)["payload"]
    if chain == "so4":
        payload["vectors"][0][0] = value
    else:
        payload["rows"][0]["values"][0] = value
    st.write_record(key, payload)
    st.flush_index()
    r = run(*args)
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "store error" in r.output and key in r.output


def test_stored_label_of_wrong_type_is_a_store_error(tmp_path):
    # a re-hashed block whose label cell is a list, not a string, is
    # named as a store error, not an AttributeError traceback
    args = ("couple", "--g1", "(1,0)", "--g2", "(1,0)", "--g", "(1,1)",
            "--format", "csv", "--store", str(tmp_path / "st"))
    assert run(*args).exit_code == 0
    st = Store(str(tmp_path / "st"))
    key = "so4|(1,0) x (1,0) -> (1,1)"
    payload = st.read_record(key)["payload"]
    payload["columns"][0][0] = ["(0,0)"]
    st.write_record(key, payload)
    st.flush_index()
    r = run(*args)
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "store error" in r.output and key in r.output


@pytest.mark.parametrize("command, chain", [
    (("couple", "--chain", "so4"), "so4"),
    (("transform", "--to", "isospin"), "isospin"),
], ids=["couple", "transform"])
def test_unhashed_edit_is_a_store_error(tmp_path, command, chain):
    # a record edited by hand without re-hashing is not served
    args = command + ("--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
                      "--store", str(tmp_path / "st"))
    assert run(*args).exit_code == 0
    st = Store(str(tmp_path / "st"))
    key = "%s|(1/2,0) x (1/2,0) -> (0,0)" % chain
    path = st.record_path(st.hash_for(key))
    with open(path) as f:
        record = json.load(f)
    if chain == "so4":
        record["payload"]["vectors"][0][0] = "sqrt(1/7)"
    else:
        record["payload"]["rows"][0]["values"][0] = "sqrt(1/7)"
    with open(path, "w") as f:
        json.dump(record, f)
    r = run(*args)
    assert r.exit_code == 4, r.output
    assert "sqrt(1/7)" not in r.output
    assert "store error" in r.output and key in r.output


@pytest.mark.parametrize("command", [
    ("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(1,0)"),
    ("tabulate", "--max-r", "1/2"),
], ids=["couple", "tabulate"])
def test_resolving_replaces_a_damaged_record(tmp_path, command):
    # a record file damaged without re-hashing is written anew when its
    # coupling is solved again, instead of being listed as it lies
    store = str(tmp_path / "st")
    key = "so4|(1/2,0) x (1/2,0) -> (1,0)"
    assert run(*command, "--store", store).exit_code == 0
    st = Store(store)
    path = st.record_path(st.hash_for(key))
    with open(path, "rb") as f:
        good = f.read()
    record = json.loads(good)
    record["payload"]["vectors"][0][0] = "sqrt(1/7)"
    with open(path, "wb") as f:
        f.write(canonical_json(record))
    assert run("verify", "--store", store).exit_code == 1
    with open(os.path.join(store, "index.json"), "w") as f:
        f.write('{"records":{},"schema":"so5racah-store@1"}')
    assert run(*command, "--store", store).exit_code == 0
    with open(path, "rb") as f:
        assert f.read() == good
    v = run("verify", "--store", store)
    assert v.exit_code == 0, v.output
    r = run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(1,0)",
            "--store", store)
    assert r.exit_code == 0, r.output


@pytest.mark.parametrize("layout", [
    lambda record: json.dumps(record, indent=2).encode(),
    lambda record: canonical_json(dict(record, extra=1)),
], ids=["indented", "extra-key"])
def test_record_in_another_layout_is_a_store_error(tmp_path, layout):
    # honestly hashed, but not the bytes write_record writes
    args = ("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
            "--store", str(tmp_path / "st"))
    assert run(*args).exit_code == 0
    st = Store(str(tmp_path / "st"))
    key = "so4|(1/2,0) x (1/2,0) -> (0,0)"
    path = st.record_path(st.hash_for(key))
    with open(path, "rb") as f:
        record = json.load(f)
    with open(path, "wb") as f:
        f.write(layout(record))
    r = run(*args)
    assert r.exit_code == 4, r.output
    assert "store error" in r.output and key in r.output
    v = run("verify", "--store", str(tmp_path / "st"))
    assert v.exit_code == 1, v.output
    assert "FAIL %s" % key in v.output.splitlines()


def test_verify_fails_non_canonical_payload_bytes(tmp_path):
    # reads hash the payload bytes as they lie, so a payload re-spaced and
    # hashed over its new bytes is served; verify compares the hash with
    # that of the re-derived payload and fails it
    store = str(tmp_path / "st")
    assert run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
               "--store", store).exit_code == 0
    st = Store(store)
    key = st.keys()[0]
    with open(st.record_path(st.hash_for(key)), "rb") as f:
        record = json.load(f)
    spaced = json.dumps(record["payload"], sort_keys=True).encode()
    record["meta"]["hash"] = hashlib.sha256(spaced).hexdigest()
    with open(st.record_path(record["meta"]["hash"]), "wb") as f:
        f.write(b'{"meta":%s,"payload":%s}' % (canonical_json(record["meta"]),
                                              spaced))
    st.index()[key] = record["meta"]["hash"]
    st.flush_index()
    v = run("verify", "--store", store)
    assert v.exit_code == 1, v.output
    assert "FAIL %s" % key in v.output.splitlines()


@pytest.mark.parametrize("chain, field", [
    ("so4", "columns"), ("so4", "vectors"), ("isospin", "rows"),
])
def test_stored_record_without_field_is_a_store_error(tmp_path, chain, field):
    # a re-hashed record that lacks a field is named, not a traceback
    args = ("couple", "--chain", chain, "--g1", "(1/2,0)", "--g2", "(1/2,0)",
            "--g", "(0,0)", "--store", str(tmp_path / "st"))
    assert run(*args).exit_code == 0
    st = Store(str(tmp_path / "st"))
    key = "%s|(1/2,0) x (1/2,0) -> (0,0)" % chain
    payload = st.read_record(key)["payload"]
    del payload[field]
    st.write_record(key, payload)
    st.flush_index()
    r = run(*args)
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "store error" in r.output and key in r.output


SCALAR = "so4|(1/2,0) x (1/2,0) -> (0,0)"
VECTOR = "so4|(1/2,0) x (1/2,0) -> (1,0)"


def _misfiled_store(tmp_path):
    """A store whose SCALAR entry points at the VECTOR record."""
    store = str(tmp_path / "st")
    for g in ("(0,0)", "(1,0)"):
        r = run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", g,
                "--store", store)
        assert r.exit_code == 0
    st = Store(store)
    st.index()[SCALAR] = st.hash_for(VECTOR)
    st.flush_index()
    return store


def test_misfiled_record_is_a_store_error(tmp_path):
    # the record's own labels must make the requested key
    store = _misfiled_store(tmp_path)
    r = run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
            "--store", store)
    assert r.exit_code == 4, r.output
    assert "store error" in r.output and SCALAR in r.output


def test_verify_rederives_the_record_its_key_names(tmp_path):
    # the misfiled record is itself intact; only its key is wrong
    v = run("verify", "--store", _misfiled_store(tmp_path))
    assert v.exit_code == 1, v.output
    lines = v.output.splitlines()
    assert "FAIL %s" % SCALAR in lines and "ok   %s" % VECTOR in lines
    assert lines[-1] == "2 records checked, 1 failed"


@pytest.mark.parametrize("bad", [
    "so4|junk",
    "so4|(1/2, 0) x (1/2,0) -> (0,0)",
    "so4|(1/0,0) x (1/2,0) -> (0,0)",
], ids=["junk", "non-canonical", "zero-denominator"])
def test_verify_reports_bad_key(tmp_path, bad):
    # an index key that record_key would not write is one FAIL line, even
    # when it points at a valid record of the coupling it spells
    store = str(tmp_path / "st")
    r = run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
            "--store", store)
    assert r.exit_code == 0
    st = Store(store)
    st.index()[bad] = st.hash_for(SCALAR)
    st.flush_index()
    v = run("verify", "--store", store)
    assert v.exit_code == 1, v.output
    assert v.exception is None or isinstance(v.exception, SystemExit)
    lines = v.output.splitlines()
    assert "FAIL %s" % bad in lines and "ok   %s" % SCALAR in lines
    assert lines[-1] == "2 records checked, 1 failed"


@pytest.mark.parametrize("field, value, problem", [
    ("g1", "(1/2, 0)", "is not a canonical record key"),
    ("g1", "(1/0,0)", "zero denominator"),
    ("chain", "foo", "is not a canonical record key"),
], ids=["non-canonical", "zero-denominator", "unknown-chain"])
def test_verify_reports_odd_payload_labels(tmp_path, field, value, problem):
    # honestly re-hashed and filed under the key its own labels make, so
    # the store's read passes it and verify's key check must catch it
    store = str(tmp_path / "st")
    for g in ("(0,0)", "(1,0)"):
        assert run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", g,
                   "--store", store).exit_code == 0
    st = Store(store)
    payload = st.read_record(SCALAR)["payload"]
    payload[field] = value
    key = record_key(*map(payload.get, ("chain", "g1", "g2", "g")))
    st.write_record(key, payload)
    st.flush_index()
    assert st.read_record(key)["payload"] == payload
    v = run("verify", "--store", store)
    assert v.exit_code == 1, v.output
    assert v.exception is None or isinstance(v.exception, SystemExit)
    lines = v.output.splitlines()
    assert "FAIL %s" % key in lines
    assert problem in lines[lines.index("FAIL %s" % key) + 1]
    assert "ok   %s" % SCALAR in lines and "ok   %s" % VECTOR in lines
    assert lines[-1] == "3 records checked, 1 failed"


@pytest.mark.parametrize("fmt", ["text", "csv", "float"])
def test_stored_record_of_unknown_kind_is_a_store_error(tmp_path, fmt):
    args = ("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
            "--format", fmt, "--store", str(tmp_path / "st"))
    assert run(*args).exit_code == 0
    st = Store(str(tmp_path / "st"))
    payload = st.read_record(SCALAR)["payload"]
    payload["kind"] = "foo"
    st.write_record(SCALAR, payload)
    st.flush_index()
    r = run(*args)
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "store error" in r.output and "unknown record kind 'foo'" in r.output


def test_edited_meta_hash_is_a_store_error(tmp_path):
    # the payload bytes still hash to the index entry; only the meta
    # hash beside them is wrong
    args = ("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
            "--store", str(tmp_path / "st"))
    assert run(*args).exit_code == 0
    st = Store(str(tmp_path / "st"))
    path = st.record_path(st.hash_for(SCALAR))
    with open(path, "rb") as f:
        record = json.load(f)
    record["meta"]["hash"] = "0" * 64
    with open(path, "wb") as f:
        f.write(canonical_json(record))
    r = run(*args)
    assert r.exit_code == 4, r.output
    assert isinstance(r.exception, SystemExit)
    assert "store error" in r.output and SCALAR in r.output
    assert "stored meta hash does not match payload" in r.output


def test_verify_checks_the_block_of_a_table(tmp_path, monkeypatch):
    # a chain-table record is checked through the block it derives from
    from so5racah import cli
    store = str(tmp_path / "st")
    r = run("couple", "--chain", "isospin", "--g1", "(1/2,0)", "--g2",
            "(1/2,0)", "--g", "(0,0)", "--store", store)
    assert r.exit_code == 0
    monkeypatch.setattr(cli, "verify_block", lambda block, system: ["planted"])
    v = run("verify", "--store", store)
    assert v.exit_code == 1, v.output
    assert "FAIL isospin|(1/2,0) x (1/2,0) -> (0,0)" in v.output
    assert "     - planted" in v.output


def test_verify_checks_chain_table_bra_sums(tmp_path, monkeypatch):
    # a deterministic transform fault re-derives the same faulty table, so
    # the hash compare passes it; the bra sums of the derived table do not
    from so5racah import cli

    def doubling(transform):
        def faulty(block):
            rows = transform(block)
            i = next(i for i, r in enumerate(rows) if not r.values[0].is_zero())
            rows[i] = rows[i]._replace(
                values=(rows[i].values[0] * 2,) + rows[i].values[1:])
            return rows
        return faulty

    monkeypatch.setattr(cli, "chain2_transform", doubling(cli.chain2_transform))
    monkeypatch.setattr(cli, "chain3_transform", doubling(cli.chain3_transform))
    store = str(tmp_path / "st")
    for chain in ("isospin", "angmom"):
        r = run("tabulate", "--max-r", "1/2", "--chain", chain, "--store", store)
        assert r.exit_code == 0, r.output
    v = run("verify", "--store", store)
    assert v.exit_code == 1, v.output
    lines = v.output.splitlines()
    records = [l for l in lines if l.startswith(("ok  ", "FAIL"))]
    assert len(records) > 2 and all(l.startswith("FAIL") for l in records)
    assert lines[-1] == "%d records checked, %d failed" % (len(records),
                                                           len(records))
    assert len([l for l in lines if "- bra-sum at " in l]) >= len(records)
    assert "record differs" not in v.output
    # the labels and sums read as the table's own fields and values
    for record, problem in [
            ("FAIL isospin|(1/2,0) x (1/2,1/2) -> (1/2,0)",
             "     - bra-sum at ms=1/2 k=1 t=1/2: <1|1> = sqrt(196/25)"),
            ("FAIL angmom|(1/2,0) x (1/2,1/2) -> (1,1/2)",
             "     - bra-sum at a=1 l=1/2: <1|1> = sqrt(16)")]:
        assert lines[lines.index(record) + 1] == problem


def test_store_cache_and_reuse(tmp_path):
    store = str(tmp_path / "st")
    args = ("--g1", "(1/2,1/2)", "--g2", "(1/2,0)", "--g", "(1/2,0)")
    first = run("couple", *args, "--store", store)
    assert first.exit_code == 0
    st = Store(store)
    assert "so4|(1/2,1/2) x (1/2,0) -> (1/2,0)" in st.keys()
    second = run("couple", *args, "--store", store)
    assert second.output == first.output
    # the chain transform stores its own record next to the block
    r = run("transform", *args, "--to", "isospin", "--store", store)
    assert r.exit_code == 0
    st = Store(store)
    assert "isospin|(1/2,1/2) x (1/2,0) -> (1/2,0)" in st.keys()


def test_store_env_var(tmp_path):
    store = str(tmp_path / "st")
    r = run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(0,0)",
            env={"SO5RACAH_STORE": store})
    assert r.exit_code == 0
    assert os.path.isdir(store)


def test_tabulate_verify_cycle(tmp_path):
    store = str(tmp_path / "st")
    r = run("tabulate", "--max-r", "1/2", "--store", store)
    assert r.exit_code == 0
    assert "0 records written" not in r.output

    again = run("tabulate", "--max-r", "1/2", "--store", store)
    assert "0 records written" in again.output

    v = run("verify", "--store", store)
    assert v.exit_code == 0
    assert "0 failed" in v.output.strip().splitlines()[-1]
    assert all(l.startswith("ok  ") for l in v.output.splitlines()[:-1])


def test_verify_catches_tampering(tmp_path):
    store = str(tmp_path / "st")
    run("tabulate", "--max-r", "1/2", "--store", store)
    st = Store(store)
    key = sorted(st.keys())[0]
    path = st.record_path(st.hash_for(key))
    rec = json.loads(open(path).read())
    rec["payload"]["conventions"]["phase"] = "tampered"
    with open(path, "w") as f:
        json.dump(rec, f)
    v = run("verify", "--store", store)
    assert v.exit_code == 1
    assert "FAIL %s" % key in v.output


def test_verify_recomputes_chain_table(tmp_path):
    # a wrong value under an honest hash passes every integrity check;
    # only recomputing the table catches it
    store = str(tmp_path / "st")
    r = run("couple", "--chain", "isospin", "--g1", "(1,0)", "--g2", "(1,1/2)",
            "--g", "(1,1/2)", "--store", store)
    assert r.exit_code == 0
    st = Store(store)
    key = "isospin|(1,0) x (1,1/2) -> (1,1/2)"
    payload = st.read_record(key)["payload"]
    row = next(d for d in payload["rows"] if "sqrt(1/3)" in d["values"])
    row["values"][row["values"].index("sqrt(1/3)")] = "sqrt(1/2)"
    st.write_record(key, payload)
    st.flush_index()
    v = run("verify", "--store", store)
    assert v.exit_code == 1
    assert "FAIL %s" % key in v.output


def test_verify_recomputes_block(tmp_path):
    # a negated vector still annihilates every row and is orthonormal;
    # only re-solving the block catches its broken phase convention
    store = str(tmp_path / "st")
    r = run("couple", "--g1", "(1,0)", "--g2", "(1,1/2)", "--g", "(1,1/2)",
            "--store", store)
    assert r.exit_code == 0
    st = Store(store)
    key = "so4|(1,0) x (1,1/2) -> (1,1/2)"
    payload = st.read_record(key)["payload"]
    payload["vectors"][0] = [render_value(-parse_value(v))
                             for v in payload["vectors"][0]]
    st.write_record(key, payload)
    st.flush_index()
    v = run("verify", "--store", store)
    assert v.exit_code == 1
    assert "FAIL %s" % key in v.output


def test_verify_assembles_each_block_once(tmp_path, monkeypatch):
    # the stored block's checks and the fresh solve share one system
    from so5racah import cli, racah
    store = str(tmp_path / "st")
    r = run("couple", "--g1", "(1,0)", "--g2", "(1,1/2)", "--g", "(1,1/2)",
            "--store", store)
    assert r.exit_code == 0
    calls = []
    build = racah.build_system

    def counting(*args, **kw):
        calls.append(args)
        return build(*args, **kw)

    monkeypatch.setattr(racah, "build_system", counting)
    monkeypatch.setattr(cli, "build_system", counting, raising=False)
    v = run("verify", "--store", store)
    assert v.exit_code == 0, v.output
    assert len(calls) == 1


def test_verify_solves_each_coupling_once(tmp_path, monkeypatch):
    # one coupling stored in all three chains is solved once per run; a
    # record that differs from the derived one fails alone
    from so5racah import cli
    store = str(tmp_path / "st")
    labels = ("--g1", "(1,0)", "--g2", "(1,1/2)", "--g", "(1,1/2)")
    for chain in cli.CHAINS:
        r = run("couple", "--chain", chain, *labels, "--store", store)
        assert r.exit_code == 0
    st = Store(store)
    key = "angmom|(1,0) x (1,1/2) -> (1,1/2)"
    payload = st.read_record(key)["payload"]
    values = payload["rows"][0]["values"]
    values[0] = render_value(-parse_value(values[0]))
    st.write_record(key, payload)
    st.flush_index()
    calls = []
    build = cli.build_system

    def counting(*args, **kw):
        calls.append(args)
        return build(*args, **kw)

    monkeypatch.setattr(cli, "build_system", counting)
    v = run("verify", "--store", store)
    assert v.exit_code == 1, v.output
    assert v.output.splitlines() == [
        "FAIL " + key,
        "     - record differs from the one re-derived from the coupling "
        "its key names",
        "ok   isospin|(1,0) x (1,1/2) -> (1,1/2)",
        "ok   so4|(1,0) x (1,1/2) -> (1,1/2)",
        "3 records checked, 1 failed",
    ]
    assert len(calls) == 1


def test_verify_checks_each_irrep_once(tmp_path, monkeypatch):
    # two isospin tables over the same two irreps: each irrep's brackets
    # are checked once per run, and both records still pass
    from so5racah import cli
    store = str(tmp_path / "st")
    for g2, g in (("(1/2,0)", "(1,0)"), ("(1,0)", "(1/2,0)")):
        r = run("couple", "--chain", "isospin", "--g1", "(1/2,0)", "--g2", g2,
                "--g", g, "--store", store)
        assert r.exit_code == 0
    level, brackets, check, names = cli._TABLE_CHAINS["isospin"]
    calls = []

    def counting(g, bs):
        calls.append(str(g))
        return check(g, bs)

    monkeypatch.setitem(cli._TABLE_CHAINS, "isospin",
                        (level, brackets, counting, names))
    v = run("verify", "--store", store)
    assert v.exit_code == 0, v.output
    assert v.output.count("ok   isospin|") == 2
    assert sorted(calls) == ["(1,0)", "(1/2,0)"]


@pytest.mark.parametrize("chain", ["so4", "isospin", "angmom"])
def test_tabulate_jobs_deterministic(tmp_path, chain):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("tabulate", "--max-r", "1/2", "--chain", chain, "--jobs", "1",
               "--store", a).exit_code == 0
    assert run("tabulate", "--max-r", "1/2", "--chain", chain, "--jobs", "2",
               "--store", b).exit_code == 0
    files = _store_bytes(a)
    assert "index.json" in files and len(files) > 1
    assert _store_bytes(b) == files
