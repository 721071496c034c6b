"""Every persisted byte, written by one module: the append-only JSON-lines
logs (a run's ``traces.jsonl``, a record/replay cache), the files replaced
whole (``config.json``, ``summary.json``, ``<cache>.index``), and the
replay store that keeps what a cache can serve.

Each kind of file has one crash rule. An append-only file is read one line
at a time; a torn last line (a write cut short) is dropped on load, and a
corrupt line anywhere else is an error. It is appended to through one
:class:`AppendLog`, which holds one ``O_APPEND`` descriptor on it and
repairs the tail it finds when it opens that descriptor: a last line the
reader would drop is cut off, and an intact last record that lacks its
newline gets one. Each file has one writer: the log takes an exclusive
``flock`` on the descriptor it opens, and a file held by another is an
``OSError`` naming the path. A write that fails is cut back at once,
through the same descriptor, to the size before it; if the cut fails, the
descriptor is closed, and the next append opens the file again and repairs
its tail. A file deleted or replaced under its log (no link left) is closed
and the path opened again, so lines always land at the path. A replaced
file is written to a temporary file and renamed over the old one, so a
crash leaves the old file or the new one, never a torn one.

The cache stores one JSON line per *sample*, so a run recorded with
batched sampling replays identically when samples are issued one by one
(and vice versa). Whether a record can be served is decided once, as it
enters the store, and the store keeps only what replay serves of it: its
text and token counts, or the error that serving it raises. What a store
kept of an unchanged cache is reopened from a digest-checked sidecar index
instead of parsing the cache again.
"""
from __future__ import annotations

import fcntl
import hashlib
import itertools
import json
import logging
import marshal
import os
import struct
import sys
import threading
import weakref
from contextlib import contextmanager, suppress
from functools import partial
from typing import Any, Callable, Optional, Sequence, Tuple, Union

from . import core
from .core import Usage, is_count, json_string

logger = logging.getLogger(__name__)


_BLANK = object()  # a blank line's value; one holding ``null`` has a JSON value
_decode_json = json.JSONDecoder().decode  # json.loads without its argument checks


def _parse_line(raw: bytes) -> Any:
    """The JSON value on one line of an append-only file, or ``_BLANK``; a
    ``ValueError`` if the line is not UTF-8 or not JSON. The one rule by
    which a line is both read and repaired."""
    line = raw.decode("utf-8")
    return _decode_json(line) if line.strip() else _BLANK


def read_json_lines(path: str, string_field: Optional[str] = None,
                    keep: Optional[Callable[[dict], Any]] = None,
                    digest: Optional[Any] = None) -> list:
    """The records of an append-only JSON-lines file.

    The file is read one line at a time, so it is never held whole; with
    ``keep``, the list holds ``keep(record)`` in place of each record, and
    the records themselves are not kept. Only ``"\\n"`` ends a line, and a
    line must be UTF-8. A final line that does not parse (a write cut short
    by a crash) is dropped; a corrupt line anywhere else is an error. So is
    a record that is not a JSON object, or, with ``string_field``, one
    without a string under that name, or one that ``keep`` rejects with a
    ``ValueError``, wherever it is. With ``digest``, a ``hashlib`` object,
    every byte read is fed to it, so when a read returns, the digest is
    that of exactly the bytes it parsed: the whole file as it was read.
    Reading never writes the file.
    """
    if not os.path.exists(path):
        return []
    records = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            if digest is not None:
                digest.update(raw)
            try:
                record = _parse_line(raw)
                if record is _BLANK:
                    continue
            except ValueError:
                if fh.readline():
                    raise ValueError(f"{path}: corrupt record at line {lineno}")
                logger.warning("dropping corrupt trailing line in %s", path)
                return records
            if not isinstance(record, dict):
                raise ValueError(f"{path}: record at line {lineno} is not a JSON object")
            if string_field is not None and not isinstance(record.get(string_field), str):
                raise ValueError(f"{path}: record at line {lineno} has no string {string_field!r}")
            try:
                records.append(record if keep is None else keep(record))
            except ValueError as exc:
                raise ValueError(f"{path}: record at line {lineno}: {exc}") from exc
    return records


@contextmanager
def replaced(path: str, mode: str = "w"):
    """A file to write in place of ``path``, as UTF-8 text or, with ``mode``
    ``"wb"``, as bytes: written to a temporary file, which ``os.replace``
    moves over ``path`` once the block ends, so that a crash leaves the old
    file or the new one, never a torn one. A failure removes the temporary
    file and raises."""
    temp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(temp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temp)
        raise


class AppendLog:
    """Appends whole lines to the JSON-lines file at ``path`` by the rule
    above. The descriptor is opened and locked, and the tail it finds
    repaired, at the first append, or on entering the log as a context,
    which creates the file; it is held until the log is closed or dropped,
    and a process that dies lets go of it. Callers serialize appends.
    """

    def __init__(self, path: str):
        self.path = path
        self._fd: Optional[int] = None
        self._close_fd: Optional[weakref.finalize] = None

    def __enter__(self) -> "AppendLog":
        if self._fd is None:
            self._open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        if self._fd is not None:
            self._fd = None
            self._close_fd()

    def append(self, data: bytes) -> None:
        """Write ``data``, whole lines, in one write."""
        status = None if self._fd is None else os.fstat(self._fd)
        if status is None or status.st_nlink == 0:
            status = self._open()
        unwritten = memoryview(data)
        try:
            while unwritten:
                unwritten = unwritten[os.write(self._fd, unwritten):]
        except BaseException:
            # Part of a line may be on disk: cut it off now; if the cut fails,
            # the next append reopens and repairs the tail.
            try:
                os.ftruncate(self._fd, status.st_size)
            except OSError:
                self.close()
            raise

    def _open(self) -> os.stat_result:
        """Open the path for appending in place of any descriptor held
        before, lock it, repair its tail, and return the file's status. A
        failed lock or repair leaves no descriptor held."""
        self.close()
        self._fd = fd = os.open(self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o666)
        self._close_fd = weakref.finalize(self, os.close, fd)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError as exc:
                raise OSError(exc.errno, "held by another writer", self.path) from None
            if _repair_tail(fd):
                self.append(b"\n")
        except BaseException:
            self.close()
            raise
        return os.fstat(fd)


def _repair_tail(fd: int) -> bool:
    """Judge the physically last line of the file open on ``fd``, the one
    after the last newline that does not end the file, as
    :func:`read_json_lines` judges a last line: one it drops is cut off.
    Return whether one it keeps lacks its newline, which the caller appends
    so that the next record gets a line of its own."""
    start = os.fstat(fd).st_size
    line = b""
    while start and b"\n" not in line[:-1]:
        # Each read at least doubles what is held: linear in a long line.
        step = min(start, _READ_CHUNK + len(line))
        start -= step
        line = os.pread(fd, step, start) + line
    cut = line.rfind(b"\n", 0, len(line) - 1) + 1
    start, line = start + cut, line[cut:]
    try:
        _parse_line(line)
    except ValueError:
        os.ftruncate(fd, start)
        return False
    return bool(line) and not line.endswith(b"\n")


def _entry(key: str, texts: Any, prompt: Any, completion: Any) -> Union[Tuple[str, int, int], str]:
    """The one rule of what the store can serve of a record, given its
    fields: ``(text, prompt, completion)`` when ``texts`` is a list of one
    string, as a record serves one sample, and each count is a JSON int >= 0;
    else the message of the ``ValueError`` that serving ``key`` raises."""
    if not (isinstance(texts, list) and len(texts) == 1 and isinstance(texts[0], str)):
        return (f"record {key} has no usable texts: 'texts' must be "
                f"a list of one string, got {texts!r:.80}")
    if not (is_count(prompt) and is_count(completion)):
        return (f"record {key} has no usable token counts: each must be "
                f"an int >= 0, got {prompt!r:.40} and {completion!r:.40}")
    return texts[0], prompt, completion


def _replay_entry(record: dict) -> Union[Tuple[str, int, int], str]:
    """What the store keeps of a parsed cache record: :func:`_entry` of its
    fields, where an absent count or ``usage`` reads as 0 and a ``usage``
    that is not an object as null counts."""
    usage = record.get("usage", {})
    if isinstance(usage, dict):
        prompt, completion = usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0)
    else:
        prompt = completion = None
    return _entry(record["key"], record.get("texts"), prompt, completion)


def check_servable(record: dict) -> None:
    """Raise the ``ValueError`` that serving ``record`` from a store would."""
    entry = _replay_entry(record)
    if isinstance(entry, str):
        raise ValueError(entry)


# The sidecar index a store writes beside its cache, ``<cache>.index``: a
# fixed head, then frames, each the length and SHA-256 of its payload and
# the payload, a marshal dump. The first frame holds the entry count, each
# later one up to _INDEX_FRAME_ENTRIES entries, so neither side holds more
# than one frame's bytes at a time.
INDEX_SUFFIX = ".index"
_INDEX_MAGIC = b"BRDTHIDX"
_INDEX_FORMAT = 1
# magic, format version, marshal version, program digest, cache size, cache
# digest. The size is the cache's after the parse: a cache whose size differs
# is stale without hashing it, and only the digest can tell it is unchanged.
_INDEX_HEAD = struct.Struct("<8sHH32sQ32s")
_INDEX_FRAME = struct.Struct("<I32s")
_INDEX_FRAME_ENTRIES = 256
_READ_CHUNK = 1 << 16


def _source_digest() -> Optional[bytes]:
    """SHA-256 of the interpreter's version and of the source of the two
    modules whose code decides what a store keeps of a record, this one and
    ``core``, or None when a source cannot be read (then no index is read
    or written)."""
    digest = hashlib.sha256(sys.version.encode("utf-8"))
    try:
        for source in (__file__, core.__file__):
            with open(source, "rb") as fh:
                digest.update(fh.read())
    except OSError:
        return None
    return digest.digest()


# Taken at import, as close as possible to the code that runs: an index
# written by other rules is never trusted, whether or not a version constant
# was bumped.
_PROGRAM_DIGEST = _source_digest()


def _file_digest(path: str) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(partial(fh.read, _READ_CHUNK), b""):
            digest.update(block)
    return digest.digest()


def _frame(value) -> bytes:
    payload = marshal.dumps(value)
    return _INDEX_FRAME.pack(len(payload), hashlib.sha256(payload).digest()) + payload


def _read_frame(fh):
    """The next frame's value; ``ValueError`` when it is cut short or its
    payload does not match its digest."""
    head = fh.read(_INDEX_FRAME.size)
    if len(head) != _INDEX_FRAME.size:
        raise ValueError("index frame cut short")
    length, digest = _INDEX_FRAME.unpack(head)
    payload = fh.read(length)
    if len(payload) != length or hashlib.sha256(payload).digest() != digest:
        raise ValueError("index frame does not match its digest")
    return marshal.loads(payload)


class ReplayStore:
    """Append-only JSON-lines store of per-sample responses keyed by digest.

    Each record is checked once, as it enters the store: when the store
    opens, or when ``append`` writes it. ``entries`` maps each key to what
    :func:`_replay_entry` makes of its last record: its text and two token
    counts, or the message of the error that serving it raises; never the
    ``request`` (``breadth cache`` reads full records from the file
    itself). Opening streams the file through :func:`read_json_lines`, and
    an unusable record fails only when it is served.

    After that parse the store writes the entries it kept to
    ``<cache>.index``, under a head holding the SHA-256 of exactly the
    cache bytes parsed and a digest of the code of the rules that made
    the entries. A later open loads the index in place of the
    parse only when the head's versions and program digest match this
    program's, the cache has the size and still the SHA-256 the head
    records, and every frame matches its own SHA-256; anything else parses
    the cache as above. So the index only saves repeating a parse of
    identical bytes, and deleting it is always safe. It is written through
    :func:`replaced`; a failure to read or write it falls back to the
    parse, and a missing cache writes none. A store opened with
    ``record=True`` first opens and locks its :class:`AppendLog`, so a
    cache held by another writer is an ``OSError`` before a line of it is
    read; it then loads a valid index but neither hashes the cache nor
    writes one: its first append would leave the index stale. Opening
    writes the cache only then, when the lock creates it or repairs its
    tail.

    Readers share the entries; appends are serialized, and go through one
    :class:`AppendLog`, so a store that only replays never opens the cache
    for writing, and reads a cache that a recording store holds.
    """

    def __init__(self, path: str, record: bool = False):
        self.path = path
        self._lock = threading.Lock()
        self._log = AppendLog(path)
        if record:
            self._log.append(b"")  # opens and locks the cache before it is read
        self.entries: dict = {}
        loaded = self._load_index()
        if loaded is not None:
            self.entries = loaded
        elif os.path.exists(path):
            digest = None if record or not _PROGRAM_DIGEST else hashlib.sha256()
            self.entries = dict(read_json_lines(
                path, "key", keep=lambda rec: (rec["key"], _replay_entry(rec)),
                digest=digest))
            if digest is not None:
                self._write_index(digest.digest())

    def _load_index(self) -> Optional[dict]:
        """The entries from the index, if it holds what a parse of the
        cache's current bytes would give; else None."""
        try:
            with open(self.path + INDEX_SUFFIX, "rb") as fh:
                head = fh.read(_INDEX_HEAD.size)
                if len(head) != _INDEX_HEAD.size:
                    return None
                *stamp, size, cache_digest = _INDEX_HEAD.unpack(head)
                if stamp != [_INDEX_MAGIC, _INDEX_FORMAT, marshal.version, _PROGRAM_DIGEST]:
                    return None
                if size != os.path.getsize(self.path) or cache_digest != _file_digest(self.path):
                    return None
                count = _read_frame(fh)
                entries: dict = {}
                while len(entries) < count:
                    entries.update(_read_frame(fh))
                if len(entries) != count or fh.read(1):
                    return None
        except (OSError, ValueError, TypeError, EOFError) as exc:
            logger.debug("not reading the index of %s: %s", self.path, exc)
            return None
        return entries

    def _write_index(self, cache_digest: bytes) -> None:
        """Write the index of what the store kept from the cache bytes whose
        SHA-256 is ``cache_digest``, or nothing if any step fails."""
        try:
            head = _INDEX_HEAD.pack(_INDEX_MAGIC, _INDEX_FORMAT, marshal.version,
                                    _PROGRAM_DIGEST, os.path.getsize(self.path), cache_digest)
            with replaced(self.path + INDEX_SUFFIX, "wb") as fh:
                fh.write(head + _frame(len(self.entries)))
                items = iter(self.entries.items())
                for frame in iter(lambda: dict(itertools.islice(items, _INDEX_FRAME_ENTRIES)), {}):
                    fh.write(_frame(frame))
        except OSError as exc:
            logger.debug("not indexing %s: %s", self.path, exc)

    def __len__(self) -> int:
        return len(self.entries)

    def has(self, keys: Sequence[str]) -> bool:
        """Whether every one of ``keys`` has an entry, served or not."""
        entries = self.entries
        for key in keys:
            if key not in entries:
                return False
        return True

    def append(self, records: Sequence[Tuple[str, bytes, str, Usage]]) -> None:
        """Store one response's records, ``(key, request, text, usage)`` each
        with ``request`` in canonical JSON, as one line per record in one
        write; one that could not be served raises ``ValueError`` before
        anything is written. A line is the canonical JSON of ``{"key",
        "request", "texts": [text], "usage"}`` written from the entry kept,
        so its counts are ints, which ``%d`` writes as JSON does, and it
        reads back as that entry; its keys are already in sorted order."""
        kept, lines = {}, []
        for key, request, text, usage in records:
            entry = _entry(key, [text], usage.prompt_tokens, usage.completion_tokens)
            if type(entry) is not tuple:
                raise ValueError(entry)
            text, prompt, completion = entry
            kept[key] = entry
            lines.append(b'{"key":%s,"request":%s,"texts":[%s],'
                         b'"usage":{"completion_tokens":%d,"prompt_tokens":%d}}\n' % (
                             json_string(key).encode("ascii"), request,
                             json_string(text).encode("ascii"), completion, prompt))
        data = b"".join(lines)
        with self._lock:
            self._log.append(data)
            # Only written lines change what the store serves.
            self.entries.update(kept)
