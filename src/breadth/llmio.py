"""Generation backends: live chat-completion HTTP client, scripted mock for
tests, and record/replay backends over a :class:`~breadth.store.ReplayStore`.

A replayed response is built here from the store's per-sample entries, the
same way whether a replay backend or a recording one's hit serves it.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import logging
import math
import os
import threading
import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple
from urllib.parse import urlsplit

from .core import Usage, check_temperature, json_string
# Also importable as breadth.llmio.ReplayStore, the name perfbench/ wraps.
from .store import ReplayStore

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
# four attempts, backing off 0.5 s and doubling per attempt to at most 8 s,
# or waiting out a 429's Retry-After up to 60 s.
MAX_ATTEMPTS = 4
MAX_RETRY_AFTER = 60.0


def retry_delay(attempt: int) -> float:
    return min(8.0, 0.5 * 2 ** attempt)


class LlmIoError(Exception):
    """A failed backend call, its message naming the cause: a malformed
    response, a replay cache miss, a script with no rule or response left.
    Only a :class:`NetworkError` is retried, by :class:`LiveBackend`."""


class NetworkError(LlmIoError):
    """A transient failure, retried with backoff: the transport failed, the
    server erred (5xx) or it rate-limited the call (429). ``retry_after`` is
    a 429's delay in seconds, or None when it gave none that parses."""

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.retry_after = retry_after


@dataclass(frozen=True)
class CompletionRequest:
    """One generation request against a chat-completion backend.

    Its bytes are made when it is built, in one step with its fields (see
    :mod:`breadth.core`): ``sample_payloads``, a plain attribute and not a
    field, holds each sample's own request in canonical JSON, in sample
    order: sample i's is the request with ``n_samples`` 1 and
    ``sample_batch_id`` ``sample_batch_id + i``, so batched and sequential
    sampling share records. :func:`cache_key` digests these bytes and the
    cache stores them, so a request is encoded once. The fields are written
    in sorted order: strings through :func:`~breadth.core.json_string`, ints
    with ``%d`` and the temperature, stored as the float of its value
    (``0``, ``0.0`` and ``-0.0`` are one request), with ``float.__repr__``.
    The layout also holds ``max_tokens``, ``system_text`` and ``top_k``,
    always ``null``: no request sets them, and keeping their slots keeps
    every key and record this program has written. The bytes around the
    batch id that only the model and temperature decide come from
    :func:`_request_layout`.
    """

    model: str
    user_text: str
    temperature: float = 1.0
    n_samples: int = 1
    sample_batch_id: int = 0  # sample 0's index in its key; rewrite retries vary it

    def __init__(self, model: str, user_text: str, temperature: float = 1.0,
                 n_samples: int = 1, sample_batch_id: int = 0):
        if n_samples < 1:
            raise ValueError("n_samples must be >= 1")
        head, middle, temperature = _request_layout(model, temperature)
        # json_string writes ASCII only.
        tail = b"%s%s}" % (middle, json_string(user_text).encode("ascii"))
        if n_samples == 1:
            payloads = (b"%s%d%s" % (head, sample_batch_id, tail),)
        else:
            payloads = tuple([b"%s%d%s" % (head, i, tail)
                              for i in range(sample_batch_id, sample_batch_id + n_samples)])
        self.__dict__.update(model=model, user_text=user_text, temperature=temperature,
                             n_samples=n_samples, sample_batch_id=sample_batch_id,
                             sample_payloads=payloads)


@lru_cache(maxsize=64)
def _request_layout(model: str, temperature: float) -> Tuple[bytes, bytes, float]:
    """The constant bytes of a request's layout before and after its
    ``sample_batch_id``, up to its ``user_text``, and the temperature it
    stores: the float of the value. Memoized by value, so ``0``, ``0.0``
    and ``-0.0`` share an entry; a refused one raises before it is kept."""
    check_temperature(temperature)  # a str raises TypeError
    temperature = float(temperature) + 0.0  # -0.0 + 0.0 is 0.0
    head = '{"max_tokens":null,"model":%s,"n_samples":1,"sample_batch_id":' % json_string(model)
    middle = ',"system_text":null,"temperature":%r,"top_k":null,"user_text":' % temperature
    return head.encode("ascii"), middle.encode("ascii"), temperature


@dataclass(frozen=True)
class CompletionResponse:
    """One call's answer: ``texts`` is a tuple, a text per sample in order."""

    texts: tuple
    usage: Usage = field(default_factory=Usage)
    backend: str = BACKEND_MOCK

    def __init__(self, texts: tuple, usage: Usage = Usage(), backend: str = BACKEND_MOCK):
        self.__dict__.update(texts=texts, usage=usage, backend=backend)


def cache_key(req: CompletionRequest) -> Tuple[str, ...]:
    """The request's per-sample cache keys, in sample order: the SHA-256 of
    each of :attr:`CompletionRequest.sample_payloads`."""
    payloads = req.sample_payloads
    if len(payloads) == 1:
        return (hashlib.sha256(payloads[0]).hexdigest(),)
    return tuple([hashlib.sha256(payload).hexdigest() for payload in payloads])


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
         sample_batch_id: int = 0) -> List[Tuple[str, Usage, int]]:
    """Send one request with the backend's model: the one place a request is
    built, sent, timed and charged. Returns each sample's ``(text, usage,
    ms)``: its share of the tokens by :func:`split_usage`, and on sample 0
    the whole milliseconds ``backend.complete`` took, rounded to the
    nearest: 0, with no clock read, under a deterministic backend, so that
    its runs are byte-identical. A response without one text per sample is
    an :class:`LlmIoError`."""
    request = CompletionRequest(backend.model, user_text, temperature, n_samples,
                                sample_batch_id)
    started = None if backend.deterministic else time.monotonic()
    response = backend.complete(request)
    ms = 0 if started is None else round((time.monotonic() - started) * 1000)
    texts = response.texts
    if len(texts) != n_samples:
        raise LlmIoError(f"expected {n_samples} samples, got {len(texts)}")
    if n_samples == 1:
        return [(texts[0], response.usage, ms)]
    shares = split_usage(response.usage, n_samples)
    return [(text, shares[i], ms if i == 0 else 0) for i, text in enumerate(texts)]


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


# A transport posts a body to a URL and returns the reply's status, headers
# and body; the default one is an :class:`HttpTransport`.
Transport = Callable[[str, bytes, Mapping[str, str], float],
                     Tuple[int, Mapping[str, str], bytes]]


class _KeptConnection:
    """A thread's keep-alive connection and the origin it was opened to,
    closed when another origin's replaces it, or its thread or transport
    ends."""

    def __init__(self, origin: tuple, conn):
        self.origin = origin
        self.conn = conn

    def __del__(self):
        self.conn.close()


class HttpTransport:
    """The default transport: an HTTP/1.1 POST over the calling thread's
    keep-alive connection to the URL's origin, an ``https`` one verified by
    the default TLS context. A failed exchange closes the connection and is
    a :class:`NetworkError`, except on a kept connection the server closed:
    one whose close arrived while it idled is reopened before the request
    is sent, and one whose close crossed the request sends it again."""

    def __init__(self):
        self._kept = threading.local()  # the thread's _KeptConnection, as ``connection``

    def __call__(self, url: str, body: bytes, headers: Mapping[str, str],
                 timeout: float) -> Tuple[int, Mapping[str, str], bytes]:
        import http.client  # here, not at the top: only live calls speak HTTP
        import select

        parts = urlsplit(url)
        origin = (parts.scheme, parts.hostname, parts.port, timeout)
        kept = getattr(self._kept, "connection", None)
        if kept is None or kept.origin != origin:
            opener = (http.client.HTTPSConnection if parts.scheme == "https"
                      else http.client.HTTPConnection)
            kept = self._kept.connection = _KeptConnection(
                origin, opener(parts.hostname, parts.port, timeout=timeout))
        conn = kept.conn
        # No reply comes unasked, so a kept socket that polls readable (or
        # hung up) holds the server's close. ``poll`` takes any descriptor,
        # where ``select`` refuses one above 1023. A closed connection
        # reconnects on its next request.
        reused = conn.sock is not None
        if reused:
            poller = select.poll()
            poller.register(conn.sock, select.POLLIN)
            reused = not poller.poll(0)
        if not reused:
            conn.close()
        target = parts.path + (f"?{parts.query}" if parts.query else "")
        while True:
            try:
                conn.request("POST", target, body, headers)
                reply = conn.getresponse()
                return reply.status, reply.headers, reply.read()
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                # A close that crossed the request on a kept connection:
                # resend once on a new one, at no attempt's cost.
                if not (reused and isinstance(exc, ConnectionError)):
                    raise NetworkError(f"{type(exc).__name__}: {exc}") from exc
                reused = False


class LiveBackend(Backend):
    """HTTP client for any endpoint speaking the common chat-completion JSON
    schema (a messages array holding the user message, ``temperature``,
    ``n``), posting through ``transport``, a new :class:`HttpTransport`
    unless one is given.

    Credentials come from the ``BREADTH_API_KEY`` env var unless passed
    explicitly. A multi-sample request goes out as one call with ``n``. A
    base URL that is not ``http`` or ``https`` naming a host, or whose port
    is not a number from 1 to 65535, is a ``ValueError``; so is a key no
    header can carry.
    """

    def __init__(self, base_url: str, api_key: Optional[str] = None,
                 model: str = DEFAULT_MODEL, timeout: float = 60.0,
                 limiter: Optional[TokenBucketLimiter] = None,
                 transport: Optional[Transport] = None,
                 sleep: Callable[[float], None] = time.sleep):
        parts = urlsplit(base_url)
        # A port that is not a number reads as a ValueError of its own.
        if parts.scheme not in ("http", "https") or not parts.hostname or parts.port == 0:
            raise ValueError(f"base URL {base_url!r} is not an http:// or https:// URL "
                             "naming a host")
        self.url = f"{base_url.rstrip('/')}/chat/completions"
        self.api_key = key = api_key if api_key is not None else os.environ.get(API_KEY_ENV, "")
        # A header value is Latin-1 without line breaks; the message never
        # holds the key.
        if "\r" in key or "\n" in key or max(key, default="") > "\xff":
            raise ValueError(f"the API key ({API_KEY_ENV}) holds a line break or a "
                             "character outside Latin-1, so no HTTP header can carry it")
        self.model = model
        self.timeout = timeout
        self.limiter = limiter or TokenBucketLimiter()
        self.transport = transport or HttpTransport()
        self._sleep = sleep

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        for attempt in range(MAX_ATTEMPTS):
            try:
                with self.limiter:
                    return self._post(req)
            except NetworkError as exc:
                error = exc
            if attempt + 1 < MAX_ATTEMPTS:  # no wait once no attempt is left
                delay = retry_delay(attempt) if error.retry_after is None else error.retry_after
                logger.warning("%s, retrying in %.1fs", error, delay)
                self._sleep(delay)
        raise NetworkError(f"gave up after {MAX_ATTEMPTS} attempts: {error}")

    def _post(self, req: CompletionRequest) -> CompletionResponse:
        payload = {
            "model": req.model,
            "messages": [{"role": "user", "content": req.user_text}],
            "temperature": req.temperature,
            "n": req.n_samples,
        }
        body = json.dumps(payload, allow_nan=False).encode("utf-8")
        headers = {"Authorization": f"Bearer {self.api_key}",
                   "Content-Type": "application/json"}
        status, reply_headers, content = self.transport(self.url, body, headers, self.timeout)
        if status == 429:
            raise NetworkError("rate limited by server",
                               retry_after=_delay_seconds(reply_headers.get("Retry-After")))
        if status >= 500:
            raise NetworkError(f"server error {status}")
        if status != 200:
            raise LlmIoError(f"HTTP {status}: {content.decode('utf-8', 'replace')[:200]}")
        try:
            data = json.loads(content)
            choices = sorted(data["choices"], key=lambda c: c.get("index", 0))
            texts = tuple(c["message"]["content"] for c in choices)
            # An absent or null usage reads as zeros; a usage that is not an
            # object of counts is malformed, so nothing recorded is unservable.
            usage = Usage() if data.get("usage") is None else Usage.from_dict(data["usage"])
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            raise LlmIoError(f"unparseable response body: {exc}") from exc
        if not all(isinstance(text, str) for text in texts):
            raise LlmIoError("a choice's content is not a string")
        return CompletionResponse(texts=texts, usage=usage, backend=BACKEND_LIVE)


def _delay_seconds(header: Optional[str]) -> Optional[float]:
    """A Retry-After header's delay in seconds, at most ``MAX_RETRY_AFTER``,
    or None when it is absent or not a non-negative number (RFC 9110 also
    allows an HTTP-date)."""
    try:
        seconds = float(header)
    except (TypeError, ValueError):
        return None
    return min(seconds, MAX_RETRY_AFTER) if math.isfinite(seconds) and seconds >= 0 else None


class ScriptedBackend(Backend):
    """Deterministic test backend answering from match rules.

    A script is either ``{pattern: responses}`` (substring rules) or a list
    of ``{"match": pattern, "responses": [...], "exact": bool}`` rules, the
    two shapes a ``--mock-script`` file may hold (``exact`` is optional);
    any other is a ``ValueError`` naming the bad rule. Rules are kept in
    match order as they are added: an exact match beats a substring one,
    and the first exact rule for a text is the one it matches; substring
    rules are kept longest first, then in declaration order. Each matched
    rule consumes its response list in order (``n_samples`` entries per
    call); running out, or an input no rule matches, raises
    :class:`LlmIoError`. All calls are logged in ``calls``.
    """

    deterministic = True

    def __init__(self, script=(), model: str = DEFAULT_MODEL):
        # Each rule is its (pattern, remaining responses).
        self._exact: Dict[str, Tuple[str, List[str]]] = {}
        self._substrings: List[Tuple[str, List[str]]] = []
        self.calls: List[CompletionRequest] = []
        self.model = model
        self._lock = threading.Lock()
        if isinstance(script, dict):
            script = [{"match": pattern, "responses": r} for pattern, r in script.items()]
        elif not isinstance(script, (list, tuple)):
            raise ValueError(f"expected an object or a list of rule objects, got {script!r:.80}")
        for index, rule in enumerate(script):
            try:
                if not (isinstance(rule, dict) and {"match", "responses"} <= set(rule)
                        <= {"match", "responses", "exact"}
                        and isinstance(rule.get("exact", False), bool)):
                    raise ValueError("expected an object of 'match', 'responses' and an "
                                     f"optional boolean 'exact', got {rule!r:.80}")
                self.add_rule(rule["match"], rule["responses"], exact=rule.get("exact", False))
            except ValueError as exc:
                raise ValueError(f"rule {index}: {exc}") from None

    def add_rule(self, pattern: str, responses, exact: bool = False) -> "ScriptedBackend":
        if not isinstance(pattern, str):
            raise ValueError(f"script rule {pattern!r}: match must be a string")
        if isinstance(responses, str):
            responses = [responses]
        if not (isinstance(responses, list) and all(isinstance(r, str) for r in responses)):
            raise ValueError(f"script rule {pattern!r}: responses must be a string or "
                             f"a list of strings, got {responses!r:.80}")
        rule = (pattern, list(responses))
        if exact:
            self._exact.setdefault(pattern, rule)
        else:  # after every rule at least as long
            bisect.insort(self._substrings, rule, key=lambda r: -len(r[0]))
        return self

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        text = req.user_text
        with self._lock:
            self.calls.append(req)
            rule = self._exact.get(text) or next(
                (r for r in self._substrings if r[0] in text), None)
            if rule is None:
                raise LlmIoError(f"no rule matches input: {text[:120]!r}")
            pattern, responses = rule
            if len(responses) < req.n_samples:
                raise LlmIoError(f"rule {pattern!r} has {len(responses)} responses left, "
                                 f"needs {req.n_samples}")
            texts = tuple(responses[: req.n_samples])
            del responses[: req.n_samples]
        usage = Usage(len(text.split()), sum([len(t.split()) for t in texts]))
        return CompletionResponse(texts=texts, usage=usage, backend=BACKEND_MOCK)


def replay_response(store: ReplayStore, keys: Sequence[str]) -> CompletionResponse:
    """What replay serves: one response from the store's per-sample entries
    under ``keys``, in order. A key with no entry, or one whose record
    cannot be served, is an :class:`LlmIoError` naming it, failing its path
    as a failed call does."""
    entries = store.entries
    if len(keys) == 1:  # one sample: its entry is the response
        entry = entries.get(keys[0])
        if type(entry) is tuple:
            text, prompt_tokens, completion_tokens = entry
            return CompletionResponse((text,), Usage(prompt_tokens, completion_tokens),
                                      BACKEND_REPLAY_HIT)
    texts = []
    prompt_tokens = completion_tokens = 0
    for key in keys:
        entry = entries.get(key)
        if type(entry) is not tuple:
            if entry is None:
                raise LlmIoError(f"no recorded response for key {key}")
            raise LlmIoError(entry)
        text, prompt, completion = entry
        if not texts:
            prompt_tokens = prompt
        texts.append(text)
        completion_tokens += completion
    return CompletionResponse(tuple(texts), Usage(prompt_tokens, completion_tokens),
                              BACKEND_REPLAY_HIT)


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
        return replay_response(self.store, cache_key(req))


class RecordingBackend(Backend):
    """Read-through cache around another backend.

    Fully cached requests are served as replay hits; anything else goes to
    the inner backend and gets persisted per sample before it is returned,
    as replay serves it: the same texts, and the usage :func:`split_usage`
    split. A response without one text per requested sample is an
    :class:`LlmIoError`, and nothing of it is persisted.
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
                return replay_response(self.store, keys)
            response = self.inner.complete(req)
            texts, usage = response.texts, response.usage
            if len(texts) != req.n_samples:
                raise LlmIoError(f"expected {req.n_samples} samples, got {len(texts)}")
            # Every per-sample request carries the whole prompt.
            self.store.append([
                (key, request, text, Usage(usage.prompt_tokens, share.completion_tokens))
                for key, request, text, share in zip(keys, req.sample_payloads, texts,
                                                     split_usage(usage, req.n_samples))])
            return response
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
