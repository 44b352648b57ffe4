import fcntl
import json
import os
from fractions import Fraction

import pytest

from so5racah.errors import StoreError
from so5racah.formats import block_record, canonical_json
from so5racah.racah import solve_isoscalars
from so5racah.so5 import So5Irrep
from so5racah.store import Store, parse_key, payload_hash, record_key

H = Fraction(1, 2)


@pytest.fixture(scope="module")
def payload():
    return block_record(solve_isoscalars(
        So5Irrep(H, H), So5Irrep(H, 0), So5Irrep(H, 0)))


KEY = "so4|(1/2,1/2) x (1/2,0) -> (1/2,0)"


def test_record_key():
    assert record_key("so4", "(1/2,1/2)", "(1/2,0)", "(1/2,0)") == KEY
    assert parse_key(KEY) == ("so4", "(1/2,1/2)", "(1/2,0)", "(1/2,0)")
    for bad in ("so4|junk", "so4|(1/2,0) x (1/2,0)", "so4 (1/2,0) x a -> b"):
        with pytest.raises(ValueError):
            parse_key(bad)


def test_write_read_round_trip(tmp_path, payload):
    st = Store(str(tmp_path / "s"))
    h = st.write_record(KEY, payload)
    st.flush_index()
    assert payload_hash(payload) == h

    st2 = Store(str(tmp_path / "s"))
    assert st2.keys() == [KEY]
    rec = st2.read_record(KEY)
    assert rec["payload"] == payload
    assert rec["meta"]["hash"] == h


def test_content_addressing_is_idempotent(tmp_path, payload):
    st = Store(str(tmp_path / "s"))
    h1 = st.write_record(KEY, payload)
    st.flush_index()
    mtime = os.path.getmtime(st.record_path(h1))
    h2 = st.write_record(KEY, payload)
    st.flush_index()
    assert h1 == h2
    assert os.path.getmtime(st.record_path(h1)) == mtime
    assert len(os.listdir(st.records_dir)) == 1


def test_no_temp_droppings(tmp_path, payload):
    st = Store(str(tmp_path / "s"))
    st.write_record(KEY, payload)
    st.flush_index()
    names = os.listdir(st.records_dir) + os.listdir(st.root)
    assert not [n for n in names if n.endswith(".tmp")]


def test_missing_key(tmp_path):
    st = Store(str(tmp_path / "s"))
    with pytest.raises(StoreError):
        st.read_record("so4|nope")


def test_corrupt_index_rejected(tmp_path):
    root = tmp_path / "s"
    root.mkdir()
    (root / "index.json").write_text("{ not json")
    with pytest.raises(StoreError):
        Store(str(root)).keys()


def test_deeply_nested_json_is_a_store_error(tmp_path, payload):
    # nesting too deep for the json parser is reported, not a RecursionError
    st = Store(str(tmp_path / "s"))
    h = st.write_record(KEY, payload)
    st.flush_index()
    nested = b"[" * 100000 + b"]" * 100000
    with open(st.record_path(h), "wb") as f:
        f.write(nested)
    with pytest.raises(StoreError, match="cannot read record"):
        Store(str(tmp_path / "s")).read_record(KEY)
    with open(st.index_path, "wb") as f:
        f.write(nested)
    with pytest.raises(StoreError, match="cannot read index"):
        Store(str(tmp_path / "s")).keys()


def test_wrong_schema_rejected(tmp_path):
    root = tmp_path / "s"
    root.mkdir()
    (root / "index.json").write_bytes(canonical_json(
        {"schema": "other@9", "records": {}}))
    with pytest.raises(StoreError):
        Store(str(root)).keys()


def test_bit_flip_detected(tmp_path, payload):
    st = Store(str(tmp_path / "s"))
    h = st.write_record(KEY, payload)
    st.flush_index()
    path = st.record_path(h)
    raw = json.loads(open(path).read())
    raw["payload"]["g1"] = "(9,9)"
    with open(path, "w") as f:
        f.write(canonical_json(raw).decode())
    with pytest.raises(StoreError, match="content hash"):
        Store(str(tmp_path / "s")).read_record(KEY)


def test_hash_covers_conventions(payload):
    tweaked = json.loads(canonical_json(payload))
    tweaked["conventions"]["phase"] = "other"
    assert payload_hash(tweaked) != payload_hash(payload)


def test_concurrent_writers_keep_each_others_keys(tmp_path, payload):
    # two Stores open on one root, each flushing its own write: the second
    # flush must not drop the key the first one wrote
    root = str(tmp_path / "s")
    a, b = Store(root), Store(root)
    assert a.index() == b.index() == {}
    other = block_record(solve_isoscalars(
        So5Irrep(H, 0), So5Irrep(H, 0), So5Irrep(1, 0)))
    kb = record_key("so4", "(1/2,0)", "(1/2,0)", "(1,0)")
    hb = b.write_record(kb, other)
    b.flush_index()
    ha = a.write_record(KEY, payload)
    a.flush_index()
    assert Store(root).index() == {KEY: ha, kb: hb}
    assert Store(root).read_record(kb)["payload"] == other


def test_flush_index_rereads_and_rewrites_under_the_store_lock(
        tmp_path, payload, monkeypatch):
    st = Store(str(tmp_path / "s"))
    st.write_record(KEY, payload)
    locked = []

    def probed(method):
        def probe(self, *args):
            fd = os.open(self.root, os.O_RDONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
                locked.append(False)
            except BlockingIOError:
                locked.append(True)
            finally:
                os.close(fd)
            return method(self, *args)
        return probe

    monkeypatch.setattr(Store, "_read_index", probed(Store._read_index))
    monkeypatch.setattr(Store, "_atomic_write", probed(Store._atomic_write))
    st.flush_index()
    assert locked == [True, True]
    assert Store(st.root).index() == {KEY: payload_hash(payload)}
