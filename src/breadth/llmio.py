"""Generation backends: live chat-completion HTTP client, scripted mock for
tests, and a content-addressed record/replay cache.

The cache stores one JSON line per *sample* so a run recorded with batched
sampling replays identically when samples are issued one by one (and vice
versa). Corrupt trailing lines (truncated writes) are tolerated on load.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, List, Optional, Sequence, Tuple

import requests

from .core import Usage

logger = logging.getLogger(__name__)

DEFAULT_MODEL = "gpt-3.5-turbo-0125"
API_KEY_ENV = "BREADTH_API_KEY"

BACKEND_LIVE = "live"
BACKEND_MOCK = "mock"
BACKEND_REPLAY_HIT = "replay_hit"

# Live calls in flight at once: the limiter's default concurrency, and the
# number of questions a run keeps going under a non-deterministic backend.
MAX_IN_FLIGHT = 4

# The one encoding of every cache key, cache record and trace line: sorted
# keys, no spaces. ``json.dumps`` with these arguments would build a new
# encoder on every call.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


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


@dataclass(frozen=True)
class CompletionRequest:
    """One generation request against a chat-completion backend."""

    model: str
    user_text: str
    system_text: Optional[str] = None
    temperature: float = 1.0
    top_k: Optional[int] = None
    n_samples: int = 1
    max_tokens: Optional[int] = None
    sample_batch_id: int = 0  # disambiguates sequential single-sample calls

    def __post_init__(self):
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "system_text": self.system_text,
            "user_text": self.user_text,
            "temperature": self.temperature,
            "top_k": self.top_k,
            "n_samples": self.n_samples,
            "max_tokens": self.max_tokens,
            "sample_batch_id": self.sample_batch_id,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "CompletionRequest":
        """Inverse of ``to_dict``. Anything but an object with every field,
        each of its JSON type, is a ``ValueError``."""
        if not isinstance(d, dict):
            raise ValueError(f"a request must be a JSON object, got {d!r}")
        if set(d) != set(_REQUEST_VALUE_TYPES):
            raise ValueError(f"request fields {sorted(d)} are not {sorted(_REQUEST_VALUE_TYPES)}")
        for name, types in _REQUEST_VALUE_TYPES.items():
            value = d[name]
            if isinstance(value, bool) or not isinstance(value, types):
                raise ValueError(f"request field {name!r} must be "
                                 f"{' or '.join(t.__name__ for t in types)}, got {value!r}")
        return cls(**d)


# The JSON types ``CompletionRequest.from_dict`` accepts for each field.
_NULL = type(None)
_REQUEST_VALUE_TYPES = {
    "model": (str,),
    "system_text": (str, _NULL),
    "user_text": (str,),
    "temperature": (int, float),
    "top_k": (int, _NULL),
    "n_samples": (int,),
    "max_tokens": (int, _NULL),
    "sample_batch_id": (int,),
}


@dataclass(frozen=True)
class CompletionResponse:
    texts: tuple
    usage: Usage = field(default_factory=Usage)
    backend: str = BACKEND_MOCK

    def __post_init__(self):
        object.__setattr__(self, "texts", tuple(self.texts))


def cache_key(req: CompletionRequest) -> Tuple[str, ...]:
    """The request's per-sample cache keys, in sample order.

    Sample i's key is the SHA-256 of the canonical JSON of its own request:
    the request itself when it has one sample, else the request with
    ``n_samples`` 1 and ``sample_batch_id`` i. So batched and sequential
    sampling share records. The request is encoded once; the samples'
    payloads differ only in the batch id.
    """
    fields = req.to_dict()
    if req.n_samples == 1:
        return (hashlib.sha256(canonical_json(fields).encode("utf-8")).hexdigest(),)
    fields["n_samples"] = 1
    fields["sample_batch_id"] = 0
    # No JSON string holds this text (its quotes would be escaped), so the
    # split finds the field itself.
    head, tail = canonical_json(fields).encode("utf-8").split(b'"sample_batch_id":0,', 1)
    return tuple(hashlib.sha256(b'%s"sample_batch_id":%d,%s' % (head, i, tail)).hexdigest()
                 for i in range(req.n_samples))


class Backend:
    """Minimal backend interface: ``complete`` plus a default model name.

    ``deterministic`` marks backends whose responses (and latencies) are
    reproducible byte for byte, which lets the runner zero out wall times.
    """

    model: str = DEFAULT_MODEL
    deterministic: bool = False

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        raise NotImplementedError


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


@dataclass
class RetryPolicy:
    """Bounded exponential backoff for transient failures only."""

    max_attempts: int = 4
    base_delay: float = 0.5
    max_delay: float = 8.0

    def delay(self, attempt: int) -> float:
        return min(self.max_delay, self.base_delay * (2 ** attempt))


class LiveBackend(Backend):
    """HTTP client for any endpoint speaking the common chat-completion JSON
    schema (messages array with system/user roles, ``temperature``, ``n``).

    Credentials come from the ``BREADTH_API_KEY`` env var unless passed
    explicitly. Multi-sample requests go out as one call with ``n`` when
    ``batch_samples`` is on, else as sequential single-sample calls with
    distinct ``sample_batch_id``s.
    """

    def __init__(self, base_url: str, api_key: Optional[str] = None,
                 model: str = DEFAULT_MODEL, timeout: float = 60.0,
                 batch_samples: bool = True,
                 retry: Optional[RetryPolicy] = None,
                 limiter: Optional[TokenBucketLimiter] = None,
                 session: Optional[requests.Session] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        self.model = model
        self.timeout = timeout
        self.batch_samples = batch_samples
        self.retry = retry or RetryPolicy()
        self.limiter = limiter or TokenBucketLimiter()
        self.session = session or requests.Session()
        self._sleep = sleep

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        if req.n_samples > 1 and not self.batch_samples:
            texts: List[str] = []
            usage = Usage()
            for single in _per_sample_requests(req):
                resp = self._complete_once(single)
                texts.extend(resp.texts)
                usage = usage + resp.usage
            return CompletionResponse(texts=tuple(texts), usage=usage, backend=BACKEND_LIVE)
        return self._complete_once(req)

    def _complete_once(self, req: CompletionRequest) -> CompletionResponse:
        last_error: Optional[Exception] = None
        for attempt in range(self.retry.max_attempts):
            try:
                with self.limiter:
                    return self._post(req)
            except RateLimitedError as exc:
                last_error = exc
                delay = self.retry.delay(attempt) if exc.retry_after is None else exc.retry_after
                logger.warning("rate limited, sleeping %.1fs", delay)
                self._sleep(delay)
            except NetworkError as exc:
                last_error = exc
                delay = self.retry.delay(attempt)
                logger.warning("network error (%s), retrying in %.1fs", exc, delay)
                self._sleep(delay)
        raise NetworkError(f"gave up after {self.retry.max_attempts} attempts: {last_error}")

    def _post(self, req: CompletionRequest) -> CompletionResponse:
        messages = []
        if req.system_text:
            messages.append({"role": "system", "content": req.system_text})
        messages.append({"role": "user", "content": req.user_text})
        payload: dict = {
            "model": req.model,
            "messages": messages,
            "temperature": req.temperature,
            "n": req.n_samples,
        }
        if req.top_k is not None:
            payload["top_k"] = req.top_k
        if req.max_tokens is not None:
            payload["max_tokens"] = req.max_tokens
        headers = {"Authorization": f"Bearer {self.api_key}"}
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
            # An absent or null usage reads as zeros; any other non-mapping is malformed.
            usage_data = {} if data.get("usage") is None else data["usage"]
            usage = Usage(int(usage_data.get("prompt_tokens", 0)),
                          int(usage_data.get("completion_tokens", 0)))
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
        if isinstance(responses, str):
            responses = [responses]
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
                    ) -> Tuple[list, Optional[Tuple[int, str]]]:
    """The records of an append-only JSON-lines file, and the repair its tail
    needs before the next append.

    The file is read one line at a time, so it is never held whole; with
    ``keep``, the list holds ``keep(record)`` in place of each record, and
    the records themselves are not kept. Only ``"\\n"`` ends a line. A final
    line that does not parse (a write cut short by a crash) is dropped; a
    corrupt line anywhere else is an error. So is a record that is not a
    JSON object, or, with ``string_field``, one without a string under that
    name, wherever it is. The repair is None for a whole tail, else
    ``(size, prefix)``: cut the file to ``size`` bytes and write ``prefix``
    first, so the next record gets a line of its own. Reading never writes
    the file.
    """
    if not os.path.exists(path):
        return [], None
    records = []
    with open(path, encoding="utf-8", newline="\n") as fh:
        line = ""
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if fh.readline():
                    raise ValueError(f"{path}: corrupt record at line {lineno}")
                logger.warning("dropping corrupt trailing line in %s", path)
                return records, (fh.buffer.tell() - len(line.encode("utf-8")), "")
            if not isinstance(record, dict):
                raise ValueError(f"{path}: record at line {lineno} is not a JSON object")
            if string_field is not None and not isinstance(record.get(string_field), str):
                raise ValueError(f"{path}: record at line {lineno} has no string {string_field!r}")
            records.append(record if keep is None else keep(record))
        if line and not line.endswith("\n"):
            return records, (fh.buffer.tell(), "\n")
    return records, None


def repair_tail(path: str, repair: Tuple[int, str]) -> str:
    """Apply a repair from :func:`read_json_lines`: cut the file, and return
    the text to write before the next record."""
    size, prefix = repair
    os.truncate(path, size)
    return prefix


def _replay_entry(record: dict) -> tuple:
    """What the store keeps of a record: its key, and the ``texts`` and
    ``usage`` that replay serves, as parsed."""
    return record["key"], (record.get("texts"), record.get("usage", {}))


class ReplayStore:
    """Append-only JSON-lines store of per-sample responses keyed by digest.

    In memory it keeps, per key, only the record's ``texts`` and ``usage``,
    as parsed: never the ``request`` (``breadth cache`` reads full records
    from the file itself). Opening streams the file through
    :func:`read_json_lines`, the last record for a key wins, and a record
    whose ``texts`` or ``usage`` cannot be used fails when it is served.
    Readers share the index; appends are serialized. A torn tail is
    repaired by the first append (:func:`repair_tail`), so a record
    appended after a crash is never lost.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        entries, self._repair = read_json_lines(path, "key", keep=_replay_entry)
        self._entries = dict(entries)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def append(self, record: dict):
        line = canonical_json(record) + "\n"
        key, entry = _replay_entry(record)
        with self._lock:
            if self._repair is not None:
                line = repair_tail(self.path, self._repair) + line
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(line)
                fh.flush()
            # Only a written line changes what the store serves or repairs.
            self._repair = None
            self._entries[key] = entry

    def response(self, keys: Sequence[str],
                 backend_tag: str = BACKEND_REPLAY_HIT) -> CompletionResponse:
        """One response from the per-sample entries under ``keys``, in order."""
        texts: List[str] = []
        prompt_tokens = 0
        completion_tokens = 0
        for i, key in enumerate(keys):
            entry = self._entries.get(key)
            if entry is None:
                raise CacheMissError(f"no recorded response for key {key}")
            sample_texts, usage = entry
            if sample_texts is None:
                raise KeyError("texts")
            texts.extend(sample_texts)
            usage = Usage.from_dict(usage)
            if i == 0:
                prompt_tokens = usage.prompt_tokens
            completion_tokens += usage.completion_tokens
        return CompletionResponse(
            texts=tuple(texts),
            usage=Usage(prompt_tokens, completion_tokens),
            backend=backend_tag,
        )


def _per_sample_requests(req: CompletionRequest) -> List[CompletionRequest]:
    """The single-sample requests that sequential sampling sends, and that
    :func:`cache_key` digests."""
    if req.n_samples == 1:
        return [req]
    return [replace(req, n_samples=1, sample_batch_id=i) for i in range(req.n_samples)]


def split_usage(usage: Usage, n_samples: int) -> List[Usage]:
    """Per-sample shares of one multi-sample call's usage: prompt tokens on
    the first sample, completion tokens split evenly with the remainder on
    the first."""
    share, remainder = divmod(usage.completion_tokens, n_samples)
    return [Usage(usage.prompt_tokens, share + remainder)] + [
        Usage(0, share) for _ in range(n_samples - 1)]


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
    the inner backend and gets persisted per sample before returning.
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
            if all(key in self.store for key in keys):
                return self.store.response(keys)
            response = self.inner.complete(req)
            shares = split_usage(response.usage, len(response.texts))
            request = req.to_dict()
            for i, (key, text, share) in enumerate(zip(keys, response.texts, shares)):
                if req.n_samples > 1:  # the sample's own request, as cache_key digests it
                    request = {**request, "n_samples": 1, "sample_batch_id": i}
                # Every per-sample request carries the whole prompt.
                usage = Usage(response.usage.prompt_tokens, share.completion_tokens)
                self.store.append(
                    {
                        "key": key,
                        "request": request,
                        "texts": [text],
                        "usage": usage.to_dict(),
                    }
                )
            # Return the store's view so record and replay runs emit identical bytes.
            return self.store.response(keys, backend_tag=response.backend)
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
