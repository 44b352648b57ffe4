"""End-to-end tests of the command-line interface."""

import json
import os

from click.testing import CliRunner

from so5racah.cli import main
from so5racah.exact import parse_value, render_value
from so5racah.store import Store


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


def test_branch_angmom():
    r = run("branch", "--g", "(1,0)", "--chain", "angmom")
    assert r.output.strip() == "L = 1, 3"


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


def test_exit_code_not_in_series():
    r = run("couple", "--g1", "(1/2,0)", "--g2", "(1/2,0)", "--g", "(1,1)")
    assert r.exit_code == 3


def test_exit_code_store_error(tmp_path):
    (tmp_path / "index.json").write_text("not json at all {")
    r = run("verify", "--store", str(tmp_path))
    assert r.exit_code == 4


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


def test_verify_checks_each_irrep_once(tmp_path, monkeypatch):
    # two isospin tables over the same two irreps: each irrep's brackets
    # are checked once per run, and both records still pass
    from so5racah import cli
    store = str(tmp_path / "st")
    for g2, g in (("(1/2,0)", "(1,0)"), ("(1,0)", "(1/2,0)")):
        r = run("couple", "--chain", "isospin", "--g1", "(1/2,0)", "--g2", g2,
                "--g", g, "--store", store)
        assert r.exit_code == 0
    chain, brackets, check = cli._TABLE_CHAINS["chain2-table"]
    calls = []

    def counting(g, bs):
        calls.append(str(g))
        return check(g, bs)

    monkeypatch.setitem(cli._TABLE_CHAINS, "chain2-table",
                        (chain, brackets, counting))
    v = run("verify", "--store", store)
    assert v.exit_code == 0, v.output
    assert v.output.count("ok   isospin|") == 2
    assert sorted(calls) == ["(1,0)", "(1/2,0)"]


def test_tabulate_jobs_deterministic(tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert run("tabulate", "--max-r", "1/2", "--jobs", "1",
               "--store", a).exit_code == 0
    assert run("tabulate", "--max-r", "1/2", "--jobs", "2",
               "--store", b).exit_code == 0
    for name in ("index.json",):
        assert open(os.path.join(a, name), "rb").read() == \
            open(os.path.join(b, name), "rb").read()
    ra = sorted(os.listdir(os.path.join(a, "records")))
    rb = sorted(os.listdir(os.path.join(b, "records")))
    assert ra == rb
    for name in ra:
        pa = open(os.path.join(a, "records", name), "rb").read()
        pb = open(os.path.join(b, "records", name), "rb").read()
        assert pa == pb
