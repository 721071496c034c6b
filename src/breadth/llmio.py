"""Generation backends: live chat-completion HTTP client, scripted mock for
tests, and a content-addressed record/replay cache.

The cache stores one JSON line per *sample* so a run recorded with batched
sampling replays identically when samples are issued one by one (and vice
versa). A torn last line (a write cut short) is dropped on load; a corrupt
line anywhere else is an error. Whether a record can be served is decided
once, as it enters the store, and the store keeps only what replay serves
of it: its text and token counts, or the error that serving it raises.
What a store kept of an unchanged cache is reopened from a digest-checked
sidecar index instead of parsing the cache again.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import logging
import marshal
import math
import os
import struct
import sys
import threading
import time
import weakref
from dataclasses import dataclass, field, fields
from functools import lru_cache, partial
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple, Union

from . import core
from .core import Usage, check_json_fields, is_count, json_string

if TYPE_CHECKING:
    import requests

logger = logging.getLogger(__name__)

DEFAULT_MODEL = "gpt-3.5-turbo-0125"
API_KEY_ENV = "BREADTH_API_KEY"

BACKEND_LIVE = "live"
BACKEND_MOCK = "mock"
BACKEND_REPLAY_HIT = "replay_hit"

# Live calls in flight at once: the limiter's default concurrency, and the
# number of questions a run keeps going under a non-deterministic backend.
MAX_IN_FLIGHT = 4

# The live backend's one retry policy, for transient failures only: up to
# four attempts, backing off 0.5 s and doubling per attempt to at most 8 s.
MAX_ATTEMPTS = 4


def retry_delay(attempt: int) -> float:
    return min(8.0, 0.5 * 2 ** attempt)


class LlmIoError(Exception):
    """Base class for backend failures."""


class NetworkError(LlmIoError):
    """Transport-level failure; retryable with backoff."""


class RateLimitedError(LlmIoError):
    """HTTP 429; ``retry_after`` is the server's delay in seconds, or None
    when it gave none that parses."""

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


class MalformedResponseError(LlmIoError):
    """Unusable response body; never retried."""


class CacheMissError(LlmIoError):
    """Replay-only mode saw a request that was never recorded."""


class NoScriptMatchError(LlmIoError):
    """No scripted rule matches the request input."""


class ScriptExhaustedError(LlmIoError):
    """A scripted rule's response list ran out."""


class _computed_once:
    """``functools.cached_property`` without the lock it takes on every first
    read before Python 3.12: the first read computes the value and keeps it
    in the instance dict, where later reads find it. The value is a pure
    function of a frozen instance, so two threads that both compute it
    store equal values."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.func(instance)
        return value


@dataclass(frozen=True)
class CompletionRequest:
    """One generation request against a chat-completion backend."""

    model: str
    user_text: str
    temperature: float = 1.0
    n_samples: int = 1
    sample_batch_id: int = 0  # a sample's index in its key; rewrite retries vary it

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        # False for NaN too. A finite float's repr is what the encoder writes.
        if not 0 <= self.temperature < math.inf:
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")

    @classmethod
    def from_dict(cls, d: dict) -> "CompletionRequest":
        """The request whose fields ``d`` holds by name, as a cache record's
        ``request`` does. Anything but an object with the eight fields
        :attr:`sample_payloads` writes, each of its JSON type, is a
        ``ValueError``; the slots ``max_tokens``, ``system_text`` and
        ``top_k`` must be null."""
        kwargs = check_json_fields(cls, d)
        stored = sorted([f.name for f in fields(cls)] + list(_NULL_SLOTS))
        if sorted(d) != stored:
            raise ValueError(f"request fields {sorted(d)} are not {stored}")
        for name in _NULL_SLOTS:
            if d[name] is not None:
                raise ValueError(f"request field {name!r} must be null, got {d[name]!r:.80}")
        return cls(**kwargs)

    @_computed_once
    def sample_payloads(self) -> Tuple[bytes, ...]:
        """Each sample's own request in canonical JSON, in sample order.

        That is the request itself when it has one sample, else the request
        with ``n_samples`` 1 and ``sample_batch_id`` i, so batched and
        sequential sampling share records. :func:`cache_key` digests these
        bytes and the cache stores them, so a request is encoded once. The
        fields are written in sorted order: strings through
        :func:`~breadth.core.json_string`, ints with ``%d`` and a float
        temperature with ``float.__repr__``, as the encoder writes them. The
        layout also holds ``max_tokens``, ``system_text`` and ``top_k``,
        always ``null``: no request sets them, and keeping their slots keeps
        every key and record this program has written. The bytes around the
        batch id that only the model and temperature decide come from
        :func:`_request_layout`.
        """
        temperature = self.temperature
        # -0.0 == 0.0, so the sign is part of the memo's key.
        head, middle = _request_layout(self.model, temperature, math.copysign(1.0, temperature))
        # json_string writes ASCII only.
        tail = b"%s%s}" % (middle, json_string(self.user_text).encode("ascii"))
        if self.n_samples == 1:
            return (b"%s%d%s" % (head, self.sample_batch_id, tail),)
        return tuple([b"%s%d%s" % (head, i, tail) for i in range(self.n_samples)])


@lru_cache(maxsize=64, typed=True)
def _request_layout(model: str, temperature: float, sign: float) -> Tuple[bytes, bytes]:
    """The constant bytes of a request's layout before and after its
    ``sample_batch_id``, up to its ``user_text``. Memoized by type as well
    as value, since the int 1 writes ``1`` and the float 1.0 writes
    ``1.0``; ``sign`` keeps 0.0 and -0.0 apart."""
    head = '{"max_tokens":null,"model":%s,"n_samples":1,"sample_batch_id":' % json_string(model)
    middle = ',"system_text":null,"temperature":%s,"top_k":null,"user_text":' % (
        float.__repr__(temperature) if isinstance(temperature, float) else "%d" % temperature)
    return head.encode("ascii"), middle.encode("ascii")


# The slots of the fields no request sets, which every stored request holds
# as null; see ``CompletionRequest.sample_payloads``.
_NULL_SLOTS = ("max_tokens", "system_text", "top_k")


@dataclass(frozen=True)
class CompletionResponse:
    texts: tuple
    usage: Usage = field(default_factory=Usage)
    backend: str = BACKEND_MOCK

    def __post_init__(self):
        if type(self.texts) is not tuple:
            object.__setattr__(self, "texts", tuple(self.texts))


def cache_key(req: CompletionRequest) -> Tuple[str, ...]:
    """The request's per-sample cache keys, in sample order: the SHA-256 of
    each of :attr:`CompletionRequest.sample_payloads`."""
    return tuple([hashlib.sha256(payload).hexdigest() for payload in req.sample_payloads])


class Backend:
    """Minimal backend interface: ``complete`` plus a default model name.

    ``deterministic`` marks backends whose responses (and latencies) are
    reproducible byte for byte, which lets the runner zero out wall times.
    """

    model: str = DEFAULT_MODEL
    deterministic: bool = False

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        raise NotImplementedError


def call(backend: Backend, user_text: str, temperature: float, n_samples: int = 1,
         sample_batch_id: int = 0) -> Tuple[CompletionResponse, int]:
    """Send one request with the backend's model: the one place a request is
    built and sent. Returns the response and the milliseconds
    ``backend.complete`` took, which is 0 under a deterministic backend so
    that its runs are byte-identical."""
    request = CompletionRequest(model=backend.model, user_text=user_text,
                                temperature=temperature, n_samples=n_samples,
                                sample_batch_id=sample_batch_id)
    started = time.monotonic()
    response = backend.complete(request)
    latency_ms = 0 if backend.deterministic else int((time.monotonic() - started) * 1000)
    return response, latency_ms


class TokenBucketLimiter:
    """Gates live requests: bounded concurrency plus a requests/minute budget."""

    def __init__(self, max_concurrent: int = MAX_IN_FLIGHT, requests_per_minute: int = 60,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep):
        self._semaphore = threading.Semaphore(max_concurrent)
        self._rate = requests_per_minute / 60.0
        self._capacity = float(requests_per_minute)
        self._tokens = self._capacity
        self._clock = clock
        self._sleep = sleep
        self._last = clock()
        self._lock = threading.Lock()

    def _take_token(self):
        while True:
            with self._lock:
                now = self._clock()
                self._tokens = min(self._capacity, self._tokens + (now - self._last) * self._rate)
                self._last = now
                if self._tokens >= 1.0:
                    self._tokens -= 1.0
                    return
                wait = (1.0 - self._tokens) / self._rate
            self._sleep(wait)

    def __enter__(self):
        self._semaphore.acquire()
        try:
            self._take_token()
        except BaseException:
            self._semaphore.release()
            raise
        return self

    def __exit__(self, *exc):
        self._semaphore.release()
        return False


class LiveBackend(Backend):
    """HTTP client for any endpoint speaking the common chat-completion JSON
    schema (a messages array holding the user message, ``temperature``,
    ``n``).

    Credentials come from the ``BREADTH_API_KEY`` env var unless passed
    explicitly. A multi-sample request goes out as one call with ``n``.
    """

    def __init__(self, base_url: str, api_key: Optional[str] = None,
                 model: str = DEFAULT_MODEL, timeout: float = 60.0,
                 limiter: Optional[TokenBucketLimiter] = None,
                 session: Optional[requests.Session] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.model = model
        self.timeout = timeout
        self.limiter = limiter or TokenBucketLimiter()
        if session is None:
            import requests  # here, not at the top: only live calls use requests

            session = requests.Session()
        self.session = session
        self._sleep = sleep

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        last_error: Optional[Exception] = None
        for attempt in range(MAX_ATTEMPTS):
            try:
                with self.limiter:
                    return self._post(req)
            except RateLimitedError as exc:
                last_error = exc
                delay = retry_delay(attempt) if exc.retry_after is None else exc.retry_after
            except NetworkError as exc:
                last_error = exc
                delay = retry_delay(attempt)
            if attempt + 1 < MAX_ATTEMPTS:  # no wait once no attempt is left
                logger.warning("%s, retrying in %.1fs", last_error, delay)
                self._sleep(delay)
        raise NetworkError(f"gave up after {MAX_ATTEMPTS} attempts: {last_error}")

    def _post(self, req: CompletionRequest) -> CompletionResponse:
        payload = {
            "model": req.model,
            "messages": [{"role": "user", "content": req.user_text}],
            "temperature": req.temperature,
            "n": req.n_samples,
        }
        headers = {"Authorization": f"Bearer {self.api_key}"}
        import requests

        try:
            resp = self.session.post(
                f"{self.base_url}/chat/completions",
                json=payload, headers=headers, timeout=self.timeout,
            )
        except requests.RequestException as exc:
            raise NetworkError(str(exc)) from exc
        if resp.status_code == 429:
            raise RateLimitedError("rate limited by server",
                                   retry_after=_delay_seconds(resp.headers.get("Retry-After")))
        if resp.status_code >= 500:
            raise NetworkError(f"server error {resp.status_code}")
        if resp.status_code != 200:
            raise MalformedResponseError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            data = resp.json()
            choices = sorted(data["choices"], key=lambda c: c.get("index", 0))
            texts = tuple(c["message"]["content"] for c in choices)
            if not all(isinstance(text, str) for text in texts):
                raise MalformedResponseError("a choice's content is not a string")
            # An absent or null usage reads as zeros; a usage that is not an
            # object of counts is malformed, so nothing recorded is unservable.
            usage = Usage() if data.get("usage") is None else Usage.from_dict(data["usage"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise MalformedResponseError(f"unparseable response body: {exc}") from exc
        if len(texts) != req.n_samples:
            raise MalformedResponseError(
                f"expected {req.n_samples} samples, got {len(texts)}"
            )
        return CompletionResponse(texts=texts, usage=usage, backend=BACKEND_LIVE)


def _delay_seconds(header: Optional[str]) -> Optional[float]:
    """A Retry-After header's delay in seconds, or None when it is absent or
    not a non-negative number (RFC 9110 also allows an HTTP-date)."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return None
    return seconds if math.isfinite(seconds) and seconds >= 0 else None


def _word_count(text: str) -> int:
    return len(text.split())


@dataclass
class ScriptRule:
    """One scripted response source: exact or substring match on the input."""

    pattern: str
    responses: List[str]
    exact: bool = False


class ScriptedBackend(Backend):
    """Deterministic test backend answering from match rules.

    A script is either ``{pattern: responses}`` (substring rules) or a list
    of ``{"match": pattern, "responses": [...], "exact": bool}`` rules, the
    two shapes a ``--mock-script`` file may hold. Rule priority: exact match
    beats substring; among substring matches the longest pattern wins, then
    declaration order. Each matched rule consumes its response list in order
    (``n_samples`` entries per call); running out raises
    :class:`ScriptExhaustedError`. All calls are logged in ``calls``.
    """

    deterministic = True

    def __init__(self, script=None, model: str = DEFAULT_MODEL):
        self.rules: List[ScriptRule] = []
        self.calls: List[CompletionRequest] = []
        self.model = model
        self._lock = threading.Lock()
        if isinstance(script, dict):
            for pattern, responses in script.items():
                self.add_rule(pattern, responses)
        else:
            for rule in script or ():
                self.add_rule(rule["match"], rule["responses"],
                              exact=bool(rule.get("exact", False)))

    def add_rule(self, pattern: str, responses, exact: bool = False) -> "ScriptedBackend":
        if not isinstance(pattern, str):
            raise ValueError(f"script rule {pattern!r}: match must be a string")
        if isinstance(responses, str):
            responses = [responses]
        if not (isinstance(responses, list) and all(isinstance(r, str) for r in responses)):
            raise ValueError(f"script rule {pattern!r}: responses must be a string or "
                             f"a list of strings, got {responses!r:.80}")
        self.rules.append(ScriptRule(pattern, list(responses), exact=exact))
        return self

    def _match(self, text: str) -> ScriptRule:
        exact = [r for r in self.rules if r.exact and r.pattern == text]
        if exact:
            return exact[0]
        best: Optional[ScriptRule] = None
        for rule in self.rules:
            if rule.exact or rule.pattern not in text:
                continue
            if best is None or len(rule.pattern) > len(best.pattern):
                best = rule
        if best is None:
            raise NoScriptMatchError(f"no rule matches input: {text[:120]!r}")
        return best

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        with self._lock:
            self.calls.append(req)
            rule = self._match(req.user_text)
            if len(rule.responses) < req.n_samples:
                raise ScriptExhaustedError(
                    f"rule {rule.pattern!r} has {len(rule.responses)} responses left, "
                    f"needs {req.n_samples}"
                )
            texts = tuple(rule.responses[: req.n_samples])
            del rule.responses[: req.n_samples]
        usage = Usage(_word_count(req.user_text), sum(_word_count(t) for t in texts))
        return CompletionResponse(texts=texts, usage=usage, backend=BACKEND_MOCK)


def read_json_lines(path: str, string_field: Optional[str] = None,
                    keep: Optional[Callable[[dict], Any]] = None,
                    digest: Optional[Any] = None,
                    ) -> Tuple[list, Optional[Tuple[int, str]]]:
    """The records of an append-only JSON-lines file, and the repair its tail
    needs before the next append.

    The file is read one line at a time, so it is never held whole; with
    ``keep``, the list holds ``keep(record)`` in place of each record, and
    the records themselves are not kept. Only ``"\\n"`` ends a line, and a
    line must be UTF-8. A final line that does not parse (a write cut short
    by a crash) is dropped; a corrupt line anywhere else is an error. So is
    a record that is not a JSON object, or, with ``string_field``, one
    without a string under that name, or one that ``keep`` rejects with a
    ``ValueError``, wherever it is. The repair is None for a whole tail,
    else ``(size, prefix)``: cut the file to ``size`` bytes and write
    ``prefix`` first, so the next record gets a line of its own. With
    ``digest``, a ``hashlib`` object, every byte read is fed to it, so
    when a read returns, the digest is that of exactly the bytes it parsed:
    the whole file as it was read. Reading never writes the file.
    """
    if not os.path.exists(path):
        return [], None
    records = []
    with open(path, "rb") as fh:
        raw = b""
        for lineno, raw in enumerate(fh, 1):
            if digest is not None:
                digest.update(raw)
            try:
                line = raw.decode("utf-8")
                if not line.strip():
                    continue
                record = json.loads(line)
            except ValueError:
                if fh.readline():
                    raise ValueError(f"{path}: corrupt record at line {lineno}")
                logger.warning("dropping corrupt trailing line in %s", path)
                return records, (fh.tell() - len(raw), "")
            if not isinstance(record, dict):
                raise ValueError(f"{path}: record at line {lineno} is not a JSON object")
            if string_field is not None and not isinstance(record.get(string_field), str):
                raise ValueError(f"{path}: record at line {lineno} has no string {string_field!r}")
            try:
                records.append(record if keep is None else keep(record))
            except ValueError as exc:
                raise ValueError(f"{path}: record at line {lineno}: {exc}") from exc
        if raw and not raw.endswith(b"\n"):
            return records, (fh.tell(), "\n")
    return records, None


def repair_tail(path: str, repair: Tuple[int, str]) -> str:
    """Apply a repair from :func:`read_json_lines`: cut the file, and return
    the text to write before the next record."""
    size, prefix = repair
    os.truncate(path, size)
    return prefix


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
# the payload, a marshal dump. The first frame holds the entry count and the
# tail repair, each later one up to _INDEX_FRAME_ENTRIES entries, so neither
# side holds more than one frame's bytes at a time.
INDEX_SUFFIX = ".index"
_INDEX_MAGIC = b"BRDTHIDX"
_INDEX_FORMAT = 1
# magic, format version, marshal version, program digest, cache size, cache
# digest. The size is the cache's after the parse: a cache whose size differs
# is stale without hashing it, and only the digest can tell it is unchanged.
_INDEX_HEAD = struct.Struct("<8sHH32sQ32s")
_INDEX_FRAME = struct.Struct("<I32s")
_INDEX_FRAME_ENTRIES = 256
_HASH_CHUNK = 1 << 16


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
        for block in iter(partial(fh.read, _HASH_CHUNK), b""):
            digest.update(block)
    return digest.digest()


def _frame(value) -> bytes:
    payload = marshal.dumps(value)
    return _INDEX_FRAME.pack(len(payload), hashlib.sha256(payload).digest()) + payload


def _write_all(fd: int, data: bytes) -> None:
    unwritten = memoryview(data)
    while unwritten:
        unwritten = unwritten[os.write(fd, unwritten):]


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
    opens, or when ``append`` writes it. In memory the store keeps, per key,
    only what :func:`_replay_entry` makes of the record: its text and two
    token counts, or the message of the error that serving it raises; never
    the ``request`` (``breadth cache`` reads full records from the file
    itself). Opening streams the file through :func:`read_json_lines`, the
    last record for a key wins, and an unusable record fails only when it is
    served.

    After that parse the store writes what it kept, the entries and the
    tail repair, to ``<cache>.index``, under a head holding the SHA-256 of
    exactly the cache bytes parsed and a digest of the code of the rules
    that made the entries. A later open loads the index in place of the
    parse only when the head's versions and program digest match this
    program's, the cache has the size and still the SHA-256 the head
    records, and every frame matches its own SHA-256; anything else parses
    the cache as above. So the index only saves repeating a parse of
    identical bytes, and deleting it is always safe. It is written to a
    temporary file and renamed into place; a failure to read or write it
    falls back to the parse, and a missing cache writes none. A store
    opened with ``write_index=False``, as one that records is, loads a
    valid index but neither hashes the cache nor writes one: its first
    append would leave the index stale. Opening never writes the cache
    itself.
    Readers share the entries; appends are serialized. A torn tail, or an
    append cut short by a failed write, is repaired by the next append
    (:func:`repair_tail`), so a record appended after a crash is never lost.

    The first append opens the cache with ``O_APPEND``, and the store keeps
    that one descriptor until it is dropped; a store that only replays never
    opens one. Each append reads the descriptor's file status once: its size
    is where a write cut short is cut back to, and a file with no link left,
    a cache deleted or replaced under the store, is closed and the cache
    opened again at its path, so the record still lands at the path.
    """

    def __init__(self, path: str, write_index: bool = True):
        self.path = path
        self._lock = threading.Lock()
        self._entries: dict = {}
        self._repair: Optional[Tuple[int, str]] = None
        # The append descriptor, opened by the first append.
        self._fd: Optional[int] = None
        self._close_fd: Optional[weakref.finalize] = None
        if not os.path.exists(path) or self._load_index():
            return
        digest = hashlib.sha256() if write_index and _PROGRAM_DIGEST else None
        entries, self._repair = read_json_lines(
            path, "key", keep=lambda record: (record["key"], _replay_entry(record)),
            digest=digest)
        self._entries = dict(entries)
        if digest is not None:
            self._write_index(digest.digest())

    def _load_index(self) -> bool:
        """Load the entries and the tail repair from the index if it holds
        what a parse of the cache's current bytes would give; else load
        nothing and return False."""
        try:
            with open(self.path + INDEX_SUFFIX, "rb") as fh:
                head = fh.read(_INDEX_HEAD.size)
                if len(head) != _INDEX_HEAD.size:
                    return False
                *stamp, cache_size, cache_digest = _INDEX_HEAD.unpack(head)
                if stamp != [_INDEX_MAGIC, _INDEX_FORMAT, marshal.version, _PROGRAM_DIGEST]:
                    return False
                if (cache_size != os.path.getsize(self.path)
                        or cache_digest != _file_digest(self.path)):
                    return False
                count, repair = _read_frame(fh)
                entries: dict = {}
                while len(entries) < count:
                    entries.update(_read_frame(fh))
                if len(entries) != count or fh.read(1):
                    return False
        except (OSError, ValueError, TypeError, EOFError) as exc:
            logger.debug("not reading the index of %s: %s", self.path, exc)
            return False
        self._entries, self._repair = entries, repair
        return True

    def _write_index(self, cache_digest: bytes) -> None:
        """Write the index of what the store kept from the cache bytes whose
        SHA-256 is ``cache_digest``, or nothing if any step fails."""
        index = self.path + INDEX_SUFFIX
        temp = f"{index}.{os.getpid()}.{threading.get_ident()}.tmp"
        try:
            head = _INDEX_HEAD.pack(_INDEX_MAGIC, _INDEX_FORMAT, marshal.version,
                                    _PROGRAM_DIGEST, os.path.getsize(self.path), cache_digest)
            fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
            try:
                _write_all(fd, head + _frame((len(self._entries), self._repair)))
                items = iter(self._entries.items())
                while True:
                    frame = dict(itertools.islice(items, _INDEX_FRAME_ENTRIES))
                    if not frame:
                        break
                    _write_all(fd, _frame(frame))
            finally:
                os.close(fd)
            os.replace(temp, index)
        except OSError as exc:
            logger.debug("not indexing %s: %s", self.path, exc)
            with contextlib.suppress(OSError):
                os.unlink(temp)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def has(self, keys: Sequence[str]) -> bool:
        """Whether every one of ``keys`` has an entry, served or not."""
        entries = self._entries
        for key in keys:
            if key not in entries:
                return False
        return True

    def append(self, records: Sequence[Tuple[str, bytes, str, Usage]]
               ) -> List[Tuple[str, int, int]]:
        """Store one response's records, ``(key, request, text, usage)`` each
        with ``request`` in canonical JSON, as one line per record in one
        write, and return the entries kept for them, in order. A record that
        could not be served raises ``ValueError`` before anything is written.
        A line is the canonical JSON of ``{"key", "request", "texts":
        [text], "usage"}`` written from the entry kept, so its counts are
        ints, which ``%d`` writes as JSON does, and it reads back as that
        entry; its keys are already in sorted order."""
        keys, kept, lines = [], [], []
        for key, request, text, usage in records:
            entry = _entry(key, [text], usage.prompt_tokens, usage.completion_tokens)
            if type(entry) is not tuple:
                raise ValueError(entry)
            text, prompt, completion = entry
            keys.append(key)
            kept.append(entry)
            lines.append(b'{"key":%s,"request":%s,"texts":[%s],'
                         b'"usage":{"completion_tokens":%d,"prompt_tokens":%d}}\n' % (
                             json_string(key).encode("ascii"), request,
                             json_string(text).encode("ascii"), completion, prompt))
        data = b"".join(lines)
        with self._lock:
            prefix = "" if self._repair is None else repair_tail(self.path, self._repair)
            status = None if self._fd is None else os.fstat(self._fd)
            if status is None or status.st_nlink == 0:
                # The first append, or the cache was deleted or replaced
                # under the store: the record belongs at the path.
                status = self._open_for_append()
            try:
                _write_all(self._fd, prefix.encode("utf-8") + data)
            except BaseException:
                # A write cut short may leave part of a line: the next append
                # cuts the file back, and still owes the prefix.
                self._repair = (status.st_size, prefix)
                raise
            # Only written lines change what the store serves or repairs.
            self._repair = None
            self._entries.update(zip(keys, kept))
        return kept

    def _open_for_append(self) -> os.stat_result:
        """Open the cache at its path for appending in place of any
        descriptor held before, and return the file's status."""
        if self._fd is not None:
            self._fd = None
            self._close_fd()
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        self._fd = fd
        self._close_fd = weakref.finalize(self, os.close, fd)
        return os.fstat(fd)

    def response(self, keys: Sequence[str],
                 backend_tag: str = BACKEND_REPLAY_HIT) -> CompletionResponse:
        """One response from the per-sample entries under ``keys``, in order."""
        entries = self._entries
        texts = []
        prompt_tokens = completion_tokens = 0
        for key in keys:
            entry = entries.get(key)
            if type(entry) is not tuple:
                if entry is None:
                    raise CacheMissError(f"no recorded response for key {key}")
                raise ValueError(entry)
            text, prompt, completion = entry
            if not texts:
                prompt_tokens = prompt
            texts.append(text)
            completion_tokens += completion
        return CompletionResponse(tuple(texts), Usage(prompt_tokens, completion_tokens),
                                  backend_tag)


def split_usage(usage: Usage, n_samples: int) -> List[Usage]:
    """Per-sample shares of one multi-sample call's usage: prompt tokens on
    the first sample, completion tokens split evenly with the remainder on
    the first."""
    if n_samples == 1:  # a Usage is immutable, so a share may be the usage itself
        return [usage]
    share, remainder = divmod(usage.completion_tokens, n_samples)
    # Samples 1..n-1 share one Usage.
    return [Usage(usage.prompt_tokens, share + remainder)] + [Usage(0, share)] * (n_samples - 1)


class ReplayBackend(Backend):
    """Serves every request from a recorded store; misses are errors."""

    deterministic = True

    def __init__(self, store: ReplayStore, model: str = DEFAULT_MODEL):
        self.store = store
        self.model = model

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        return self.store.response(cache_key(req))


class RecordingBackend(Backend):
    """Read-through cache around another backend.

    Fully cached requests are served as replay hits; anything else goes to
    the inner backend and gets persisted per sample before returning. A
    response without one text per requested sample is a
    :class:`MalformedResponseError`, and nothing of it is persisted.
    """

    def __init__(self, inner: Backend, store: ReplayStore):
        self.inner = inner
        self.store = store
        self.model = inner.model
        self.deterministic = inner.deterministic
        self._keys_in_flight = _KeyGuard()

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        keys = cache_key(req)
        # Single flight: a concurrent caller of the same request waits here,
        # then finds the first caller's records in the store.
        self._keys_in_flight.acquire(keys)
        try:
            if self.store.has(keys):
                return self.store.response(keys)
            response = self.inner.complete(req)
            texts, usage = response.texts, response.usage
            if len(texts) != req.n_samples:
                raise MalformedResponseError(
                    f"expected {req.n_samples} samples, got {len(texts)}")
            # Every per-sample request carries the whole prompt.
            kept = self.store.append([
                (key, request, text, Usage(usage.prompt_tokens, share.completion_tokens))
                for key, request, text, share in zip(keys, req.sample_payloads, texts,
                                                     split_usage(usage, req.n_samples))])
            # What replay serves of the entries just kept, so record and
            # replay runs emit identical bytes: their texts, and the first
            # one's prompt tokens with every one's completion tokens, which
            # is the usage that was split.
            return CompletionResponse(tuple([text for text, _, _ in kept]), usage,
                                      response.backend)
        finally:
            self._keys_in_flight.release(keys)


class _KeyGuard:
    """Per-key mutual exclusion: ``acquire(keys)`` waits until no other
    thread holds any of ``keys``, then holds them all until ``release``."""

    def __init__(self):
        self._lock = threading.Lock()
        self._released = threading.Condition(self._lock)
        self._held: set = set()
        self._waiting = 0

    def acquire(self, keys: Sequence[str]):
        with self._lock:
            while not self._held.isdisjoint(keys):
                self._waiting += 1
                self._released.wait()
                self._waiting -= 1
            self._held.update(keys)

    def release(self, keys: Sequence[str]):
        with self._lock:
            self._held.difference_update(keys)
            if self._waiting:  # skip notify_all's own cost when nobody waits
                self._released.notify_all()
