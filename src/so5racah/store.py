"""Content-addressed on-disk store for coupling records.

Layout:

    <root>/records/<sha256>.json   one file per record
    <root>/index.json              key -> hash map

A record file holds {"payload": ..., "meta": {"engine": ..., "hash": ...}}
as canonical JSON; the hash is sha256 over the canonical JSON bytes of the
payload alone.  Payloads carry their convention flags, so records produced
under different conventions never collide on a hash.  Writes go through a
temp file and os.replace, so a crashed run leaves no half-written record,
and replace a record file of other bytes.  Store.read_record, the one
reader of record files, accepts only the bytes write_record writes: the
payload bytes in the file must hash to the index hash, a sha256 hex
digest, and to the meta hash, and the labels must make the key.  flush_index
merges into index.json under an exclusive flock on the store directory, so
concurrent writers keep each other's keys.
"""

import fcntl
import hashlib
import json
import os
import tempfile

from . import __version__
from .errors import StoreError
from .formats import canonical_json

INDEX_SCHEMA = "so5racah-store@1"


def record_key(chain, g1, g2, g):
    return "%s|%s x %s -> %s" % (chain, g1, g2, g)


def parse_key(key):
    """The (chain, g1, g2, g) strings of a record key; ValueError unless
    record_key writes them back as this key byte for byte."""
    chain, _, rest = key.partition("|")
    g1, _, rest = rest.partition(" x ")
    g2, _, g = rest.partition(" -> ")
    if record_key(chain, g1, g2, g) != key:
        raise ValueError("%r is not a record key" % key)
    return chain, g1, g2, g


def payload_hash(payload):
    return hashlib.sha256(canonical_json(payload)).hexdigest()


def _sha256_hex(hashes):
    """Whether every hash is 64 lowercase hex digits; checked over all at
    once, as a regex per hash tripled the time to open a 327-key store."""
    if not (set(map(type, hashes)) <= {str} and set(map(len, hashes)) <= {64}):
        return False
    joined = "".join(hashes)
    return joined.isascii() and not joined.encode().translate(
        None, b"0123456789abcdef")


def _index_records(data, path):
    """The key -> hash map of a loaded index; StoreError unless the index
    is an object of the current schema whose records map keys (JSON keys
    are strings) to sha256 hex digests, as a hash becomes a file name."""
    if not isinstance(data, dict):
        raise StoreError("index %s is not a JSON object" % path)
    if data.get("schema") != INDEX_SCHEMA:
        raise StoreError("unexpected index schema %r" % data.get("schema"))
    records = data.get("records")
    if not isinstance(records, dict) or not _sha256_hex(records.values()):
        raise StoreError("index %s: records is not an object of key -> "
                         "sha256 hex strings" % path)
    return records


def _record_problem(key, h, record, blob):
    """The first problem of a record filed under key with index hash h and
    parsed from the file bytes blob, or None: it must be an object with an
    object payload whose bytes in {"meta":<canonical meta>,"payload":...}
    hash to h and the meta hash, and whose chain, g1, g2 and g make key."""
    if not isinstance(record, dict) or not isinstance(record.get("payload"), dict):
        return "not an object with an object payload"
    head = b'{"meta":' + canonical_json(record.get("meta")) + b',"payload":'
    if set(record) != {"meta", "payload"} or not (
            blob.startswith(head) and blob.endswith(b"}")):
        return "not in the canonical layout of a record file"
    payload = record["payload"]
    actual = hashlib.sha256(memoryview(blob)[len(head):-1]).hexdigest()
    if actual != h:
        return "content hash %s does not match index entry %s" % (actual[:12], h[:12])
    meta = record.get("meta")
    if not isinstance(meta, dict) or meta.get("hash") != actual:
        return "stored meta hash does not match payload"
    named = record_key(*map(payload.get, ("chain", "g1", "g2", "g")))
    if named != key:
        return "it holds %r" % named


class Store:
    def __init__(self, root):
        self.root = root
        self.records_dir = os.path.join(root, "records")
        self.index_path = os.path.join(root, "index.json")
        self._index = None

    # -- index -------------------------------------------------------------

    def index(self):
        if self._index is None:
            self._index = self._read_index()
        return self._index

    def _read_index(self):
        if not os.path.exists(self.index_path):
            return {}
        try:
            with open(self.index_path, "rb") as f:
                data = json.load(f)
        except (OSError, ValueError, RecursionError) as e:
            raise StoreError("cannot read index %s: %s" % (self.index_path, e))
        return _index_records(data, self.index_path)

    def keys(self):
        return sorted(self.index())

    def hash_for(self, key):
        return self.index().get(key)

    # -- records -----------------------------------------------------------

    def record_path(self, h):
        return os.path.join(self.records_dir, h + ".json")

    def read_record(self, key):
        """The record filed under key; StoreError if it cannot be read or
        _record_problem finds a problem in it."""
        h = self.hash_for(key)
        if h is None:
            raise StoreError("no record for key %r" % key)
        path = self.record_path(h)
        try:
            with open(path, "rb") as f:
                blob = f.read()
            record = json.loads(blob)
        except (OSError, ValueError, RecursionError) as e:
            raise StoreError("cannot read record %s of %r: %s" % (path, key, e))
        problem = _record_problem(key, h, record, blob)
        if problem:
            raise StoreError("record %r: %s" % (key, problem))
        return record

    def write_record(self, key, payload):
        """Write a payload under a key; returns the content hash.

        The record file is content-addressed, so rewriting identical
        content is a no-op; a file of other bytes, such as a damaged
        record, is replaced.  The in-memory index is updated; call
        flush_index() once after a batch of writes.
        """
        h = payload_hash(payload)
        blob = canonical_json({"payload": payload,
                               "meta": {"engine": __version__, "hash": h}})
        path = self.record_path(h)
        try:
            with open(path, "rb") as f:
                stale = f.read() != blob
        except OSError:
            stale = True
        if stale:
            self._atomic_write(path, blob)
        self.index()[key] = h
        return h

    def flush_index(self):
        """Write this Store's index into index.json.  Under an exclusive
        flock on the store directory (there is no lock file), index.json
        is re-read and checked as index() does and this Store's entries
        are laid over it, so concurrent writers keep each other's keys."""
        try:
            os.makedirs(self.root, exist_ok=True)
            fd = os.open(self.root, os.O_RDONLY)
            try:
                fcntl.flock(fd, fcntl.LOCK_EX)
                records = {**self._read_index(), **self.index()}
                self._atomic_write(self.index_path, canonical_json(
                    {"schema": INDEX_SCHEMA, "records": records}))
            finally:
                os.close(fd)
        except OSError as e:
            raise StoreError("cannot lock store %s: %s" % (self.root, e))

    def _atomic_write(self, path, blob):
        d = os.path.dirname(path)
        try:
            os.makedirs(d, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    f.write(blob)
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        except OSError as e:
            raise StoreError("cannot write %s: %s" % (path, e))
