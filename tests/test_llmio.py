import hashlib
import json
import os
import random
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import pytest

import breadth.llmio
from breadth.bench import run_experiment
from breadth.core import StrategyKind, Usage, default_config
from breadth.llmio import (
    BACKEND_MOCK,
    BACKEND_REPLAY_HIT,
    Backend,
    CacheMissError,
    CompletionRequest,
    CompletionResponse,
    LiveBackend,
    MalformedResponseError,
    NetworkError,
    NoScriptMatchError,
    RecordingBackend,
    ReplayBackend,
    ReplayStore,
    RetryPolicy,
    ScriptExhaustedError,
    ScriptedBackend,
    TokenBucketLimiter,
    _per_sample_requests,
    cache_key,
    read_json_lines,
)
from conftest import mc_question


def req(**kwargs) -> CompletionRequest:
    base = dict(model="m", user_text="hello", temperature=1.0)
    base.update(kwargs)
    return CompletionRequest(**base)


# ---------------------------------------------------------------- scripted


def test_scripted_ordered_consumption():
    backend = ScriptedBackend({"toy shop": ["path A text", "path B text"]})
    first = backend.complete(req(user_text="about the toy shop"))
    second = backend.complete(req(user_text="about the toy shop"))
    assert first.texts == ("path A text",)
    assert second.texts == ("path B text",)
    with pytest.raises(ScriptExhaustedError):
        backend.complete(req(user_text="about the toy shop"))


def test_scripted_no_match():
    backend = ScriptedBackend({"toy shop": ["x"]})
    with pytest.raises(NoScriptMatchError):
        backend.complete(req(user_text="something else"))


def test_exact_rule_shadows_substring():
    backend = ScriptedBackend()
    backend.add_rule("abc", ["substring answer"])
    backend.add_rule("abc", ["exact answer"], exact=True)
    assert backend.complete(req(user_text="abc")).texts == ("exact answer",)
    # the same rules as a --mock-script rule list
    listed = ScriptedBackend([
        {"match": "abc", "responses": ["substring answer"]},
        {"match": "abc", "responses": ["exact answer"], "exact": True},
    ])
    assert listed.complete(req(user_text="abc")).texts == ("exact answer",)
    assert listed.complete(req(user_text="xabcx")).texts == ("substring answer",)
    # non-exact input falls back to the substring rule
    assert backend.complete(req(user_text="xx abc yy")).texts == ("substring answer",)


def test_longest_substring_wins_then_declaration_order():
    backend = ScriptedBackend()
    backend.add_rule("ab", ["short"])
    backend.add_rule("abcd", ["long"])
    assert backend.complete(req(user_text="abcdef")).texts == ("long",)
    tie = ScriptedBackend()
    tie.add_rule("ab", ["first"])
    tie.add_rule("cd", ["second"])
    assert tie.complete(req(user_text="abcd")).texts == ("first",)


def test_multi_sample_request_yields_n_texts():
    backend = ScriptedBackend({"q": [f"t{i}" for i in range(10)]})
    response = backend.complete(req(user_text="q", n_samples=10, temperature=0.8))
    assert len(response.texts) == 10
    assert response.texts == tuple(f"t{i}" for i in range(10))


def test_scripted_records_calls():
    backend = ScriptedBackend({"q": ["a", "b"]})
    backend.complete(req(user_text="q1 q"))
    backend.complete(req(user_text="q2 q"))
    assert [c.user_text for c in backend.calls] == ["q1 q", "q2 q"]


# ---------------------------------------------------------------- cache key


def test_cache_key_changes_with_any_field():
    rng = random.Random(3)
    base = req(system_text="sys", top_k=10, max_tokens=64)
    perturbations = {
        "model": lambda r: replace(r, model=r.model + "x"),
        "system_text": lambda r: replace(r, system_text="other"),
        "user_text": lambda r: replace(r, user_text=r.user_text + "!"),
        "temperature": lambda r: replace(r, temperature=r.temperature + 0.1),
        "top_k": lambda r: replace(r, top_k=(r.top_k or 0) + 1),
        "n_samples": lambda r: replace(r, n_samples=r.n_samples + 1),
        "max_tokens": lambda r: replace(r, max_tokens=(r.max_tokens or 0) + 1),
        "sample_batch_id": lambda r: replace(r, sample_batch_id=r.sample_batch_id + 1),
    }
    for _ in range(100):
        field = rng.choice(list(perturbations))
        mutated = perturbations[field](base)
        # More samples keep sample 0's key (its request is base itself) and
        # add keys; any other change moves the one key.
        assert cache_key(mutated) != cache_key(base), field
    assert cache_key(base) == cache_key(replace(base))
    assert len(cache_key(base)) == 1


_ADVERSARIAL_TEXT = ['', 'plain', 'say "hi"', 'back\\slash\\', 'caf\u00e9 \u2713 \U0001f600',
                     '"sample_batch_id":0,', '{"sample_batch_id":0,"n_samples":1}', 'line\nbreak']


def _random_request(rng: random.Random) -> CompletionRequest:
    def text():
        return "".join(rng.choice(_ADVERSARIAL_TEXT) for _ in range(rng.randint(0, 3)))

    return CompletionRequest(
        model=text() or "m",
        user_text=text(),
        system_text=rng.choice([None, text()]),
        temperature=rng.choice([0, 1, 2, 0.0, 0.7, 1.0, rng.random() * 2]),
        top_k=rng.choice([None, 0, rng.randint(1, 100)]),
        n_samples=rng.choice([1, 1, 2, 3, 10, 11]),
        max_tokens=rng.choice([None, rng.randint(1, 4096)]),
        sample_batch_id=rng.randint(0, 12),
    )


def test_cache_key_is_the_digest_of_each_samples_own_request():
    # The reference: every sample's request built and encoded on its own.
    rng = random.Random(11)
    for _ in range(2000):
        request = _random_request(rng)
        expected = tuple(
            hashlib.sha256(json.dumps(s.to_dict(), sort_keys=True, separators=(",", ":"))
                           .encode("utf-8")).hexdigest()
            for s in _per_sample_requests(request))
        assert cache_key(request) == expected, request


# ---------------------------------------------------------------- replay


def test_record_then_replay_hit(tmp_path):
    store = ReplayStore(str(tmp_path / "cache.jsonl"))
    inner = ScriptedBackend({"q": ["scripted response"]})
    backend = RecordingBackend(inner, store)
    first = backend.complete(req(user_text="q"))
    second = backend.complete(req(user_text="q"))
    assert first.texts == second.texts == ("scripted response",)
    assert first.backend == BACKEND_MOCK
    assert second.backend == BACKEND_REPLAY_HIT
    assert first.usage == second.usage


def test_replay_backend_is_byte_identical_and_misses_error(tmp_path):
    path = str(tmp_path / "cache.jsonl")
    inner = ScriptedBackend({"q": ["r1", "r2", "r3"]})
    recorder = RecordingBackend(inner, ReplayStore(path))
    recorded = recorder.complete(req(user_text="q", n_samples=3))

    replayer = ReplayBackend(ReplayStore(path))
    replayed = replayer.complete(req(user_text="q", n_samples=3))
    assert replayed.texts == recorded.texts
    assert replayed.usage == recorded.usage
    assert replayed.backend == BACKEND_REPLAY_HIT
    with pytest.raises(CacheMissError):
        replayer.complete(req(user_text="never recorded"))


def test_replay_is_sampling_mode_independent(tmp_path):
    # Recorded as one batched call; replayable sample by sample.
    path = str(tmp_path / "cache.jsonl")
    inner = ScriptedBackend({"q": ["r0", "r1"]})
    recorder = RecordingBackend(inner, ReplayStore(path))
    batched = recorder.complete(req(user_text="q", n_samples=2))

    replayer = ReplayBackend(ReplayStore(path))
    singles = [
        replayer.complete(req(user_text="q", n_samples=1, sample_batch_id=i))
        for i in range(2)
    ]
    assert tuple(s.texts[0] for s in singles) == batched.texts


def test_recording_splits_completion_tokens_evenly(tmp_path):
    class SevenTokens(ScriptedBackend):
        def complete(self, req):
            response = super().complete(req)
            return replace(response, usage=Usage(5, 7))

    path = str(tmp_path / "cache.jsonl")
    inner = SevenTokens({"q": ["a much longer first sample", "b", "c"]})
    recorded = RecordingBackend(inner, ReplayStore(path)).complete(
        req(user_text="q", n_samples=3))
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    assert [r["usage"]["completion_tokens"] for r in records] == [3, 2, 2]
    assert recorded.usage == Usage(5, 7)


def test_recording_and_replay_call_cache_key_once_per_request(tmp_path, monkeypatch):
    calls = []

    def counting_cache_key(request):
        calls.append(request)
        return cache_key(request)

    monkeypatch.setattr(breadth.llmio, "cache_key", counting_cache_key)
    store = ReplayStore(str(tmp_path / "cache.jsonl"))
    backend = RecordingBackend(ScriptedBackend({"q": ["a", "b", "c"]}), store)
    three = req(user_text="q", n_samples=3)
    missed = backend.complete(three)
    assert calls == [three]  # on a miss
    calls.clear()
    hit = backend.complete(three)
    assert calls == [three]  # on a hit
    calls.clear()
    replayed = ReplayBackend(store, model="m").complete(three)
    assert calls == [three]
    assert missed.texts == hit.texts == replayed.texts == ("a", "b", "c")


def test_recorded_records_hold_each_samples_own_request(tmp_path):
    path = tmp_path / "cache.jsonl"
    three = req(user_text="q", n_samples=3, sample_batch_id=7)
    RecordingBackend(ScriptedBackend({"q": ["a", "b", "c"]}),
                     ReplayStore(str(path))).complete(three)
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    singles = _per_sample_requests(three)
    assert [r["request"] for r in records] == [s.to_dict() for s in singles]
    assert [r["key"] for r in records] == list(cache_key(three))
    assert all((r["key"],) == cache_key(s) for r, s in zip(records, singles))


def test_recording_sends_concurrent_equal_requests_once(tmp_path):
    # Questions with the same text send the same request at the same time;
    # later callers must wait and read the first caller's records.
    class Slow(Backend):
        model = "m"

        def __init__(self):
            self.calls = 0
            self._lock = threading.Lock()

        def complete(self, request):
            with self._lock:
                self.calls += 1
                call = self.calls
            time.sleep(0.02)
            texts = tuple(f"call {call} sample {i}" for i in range(request.n_samples))
            return CompletionResponse(texts=texts, usage=Usage(3, 4))

    path = tmp_path / "cache.jsonl"
    inner = Slow()
    backend = RecordingBackend(inner, ReplayStore(str(path)))
    requests = [req(user_text=text, n_samples=2) for text in ("same", "other")]
    threads_count = 8  # more threads than cores
    start = threading.Barrier(threads_count)
    texts = [None] * threads_count

    def ask(i):
        start.wait(timeout=10)
        texts[i] = backend.complete(requests[i % 2]).texts

    threads = [threading.Thread(target=ask, args=(i,)) for i in range(threads_count)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert inner.calls == 2
    assert len(set(texts[0::2])) == len(set(texts[1::2])) == 1
    keys = [json.loads(line)["key"] for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(keys) == len(set(keys)) == 4  # one record per sample key
    replay = ReplayBackend(ReplayStore(str(path)), model="m")
    assert [replay.complete(r).texts for r in requests] == texts[:2]


def _cache_line(key: str) -> str:
    return json.dumps({"key": key, "request": {}, "texts": ["t"], "usage": {}})


def test_store_append_after_torn_tail_starts_a_new_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    torn = _cache_line("k1") + "\n" + _cache_line("k2") + "\n" + _cache_line("k3")[:15]
    path.write_text(torn, encoding="utf-8")
    store = ReplayStore(str(path))
    assert len(store) == 2 and "k3" not in store
    assert path.read_text(encoding="utf-8") == torn  # loading never writes
    store.append(json.loads(_cache_line("k4")))
    store = ReplayStore(str(path))
    records, _ = read_json_lines(str(path))
    assert {"k1", "k2", "k4"} <= set(r["key"] for r in records)
    store.append(json.loads(_cache_line("k5")))
    assert len(ReplayStore(str(path))) == 4


def test_store_append_terminates_an_intact_last_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line("k1") + "\n" + _cache_line("k2"), encoding="utf-8")
    store = ReplayStore(str(path))
    assert len(store) == 2
    store.append(json.loads(_cache_line("k3")))
    assert len(ReplayStore(str(path))) == 3
    assert path.read_text(encoding="utf-8").count("\n") == 3


def test_store_tolerates_corrupt_trailing_line_only(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = {"key": "k1", "request": {}, "texts": ["t"], "usage": {}}
    path.write_text(json.dumps(record) + "\n{truncated", encoding="utf-8")
    store = ReplayStore(str(path))
    assert len(store) == 1 and "k1" in store

    bad = tmp_path / "bad.jsonl"
    bad.write_text("{broken\n" + json.dumps(record) + "\n", encoding="utf-8")
    with pytest.raises(ValueError):
        ReplayStore(str(bad))


@pytest.mark.parametrize("line, reason", [
    ("[1,2]", "is not a JSON object"),
    ('"k1"', "is not a JSON object"),
    ('{"request": {}, "texts": ["t"]}', "has no string 'key'"),
    ('{"key": 5, "texts": ["t"]}', "has no string 'key'"),
])
def test_store_rejects_a_record_without_a_string_key(tmp_path, line, reason):
    # Wherever it is, even last: a line that parses was not torn.
    for lines in ([line, _cache_line("k1")], [_cache_line("k1"), line]):
        path = tmp_path / "cache.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError) as caught:
            ReplayStore(str(path))
        lineno = lines.index(line) + 1
        assert str(caught.value) == f"{path}: record at line {lineno} {reason}"


def test_store_failed_append_changes_nothing(tmp_path, monkeypatch):
    # An intact last record without its newline: the next written line must
    # still start with the newline, and an unwritten record must not be served.
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line("k1") + "\n" + _cache_line("k2"), encoding="utf-8")
    store = ReplayStore(str(path))

    def no_disk(*args, **kwargs):
        raise OSError("disk gone")

    monkeypatch.setattr(breadth.llmio, "open", no_disk, raising=False)
    with pytest.raises(OSError):
        store.append(json.loads(_cache_line("k3")))
    monkeypatch.undo()
    assert "k3" not in store and len(store) == 2
    store.append(json.loads(_cache_line("k4")))
    reloaded = ReplayStore(str(path))
    assert len(reloaded) == 3 and "k4" in reloaded and "k3" not in reloaded
    assert path.read_text(encoding="utf-8").count("\n") == 3


def _split_read_json_lines(path, string_field=None):
    """The loader as it was before it streamed: the whole file read, decoded
    and split at once. The reference for the streaming loader."""
    if not os.path.exists(path):
        return [], None
    with open(path, "rb") as fh:
        data = fh.read()
    lines = data.decode("utf-8").split("\n")
    if not lines[-1]:
        lines.pop()
    records = []
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except ValueError:
            if i < len(lines) - 1:
                raise ValueError(f"{path}: corrupt record at line {i + 1}")
            return records, (len(data) - len(line.encode("utf-8")) - data.endswith(b"\n"), "")
        if not isinstance(record, dict):
            raise ValueError(f"{path}: record at line {i + 1} is not a JSON object")
        if string_field is not None and not isinstance(record.get(string_field), str):
            raise ValueError(f"{path}: record at line {i + 1} has no string {string_field!r}")
        records.append(record)
    if data and not data.endswith(b"\n"):
        return records, (len(data), "\n")
    return records, None


def _random_lines_file(rng: random.Random) -> str:
    def record():
        text = "".join(rng.choice("ab é \"\\") for _ in range(rng.randrange(6)))
        return json.dumps({"key": f"k{rng.randrange(5)}", "texts": [text]},
                          ensure_ascii=rng.random() < 0.5)

    kinds = [
        record, record, record,
        lambda: "",
        lambda: rng.choice([" ", "\t", "  \r", "\r"]),
        lambda: record() + "\r",  # one line of a CRLF file
        lambda: '{"key":\r"ké"}',  # a lone \r is whitespace, not a break
        lambda: "{broken",
        lambda: record()[:rng.randrange(1, 12)],
        lambda: rng.choice(["[1,2]", '"k1"', "5", "null"]),
        lambda: rng.choice(['{"texts": ["t"]}', '{"key": 5}', '{"key": null}']),
    ]
    lines = [rng.choice(kinds)() for _ in range(rng.randrange(6))]
    ending = rng.choice(["", "\n", "\r\n"])
    if rng.random() < 0.3:  # a write cut short, anywhere in the last record
        last = record()
        ending = last[:rng.randrange(len(last))] + rng.choice(["", "\n"])
    return "\n".join(lines) + ending


def test_streaming_loader_matches_the_whole_file_reference(tmp_path, caplog):
    rng = random.Random(7)
    path = tmp_path / "store.jsonl"
    outcomes = set()
    for _ in range(3000):
        path.write_bytes(_random_lines_file(rng).encode("utf-8"))
        for string_field in (None, "key"):
            results = []
            for load in (_split_read_json_lines, read_json_lines):
                try:
                    results.append(load(str(path), string_field))
                except ValueError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], path.read_bytes()
            outcomes.add(results[1] if isinstance(results[1], str) else results[1][1])
    # Every outcome occurred: no repair, each repair kind, each error kind.
    assert None in outcomes
    assert any(isinstance(o, tuple) and o[1] == "" for o in outcomes)
    assert any(isinstance(o, tuple) and o[1] == "\n" for o in outcomes)
    for reason in ("corrupt record", "is not a JSON object", "has no string 'key'"):
        assert any(isinstance(o, str) and reason in o for o in outcomes)


def test_store_keeps_less_than_the_request_in_memory(tmp_path):
    path = tmp_path / "cache.jsonl"
    text_length = 1000
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(2000):
            request = req(user_text=f"{i:<{text_length}}").to_dict()
            fh.write(json.dumps({"key": f"{i:064x}", "request": request,
                                 "texts": [f"answer {i}"],
                                 "usage": {"prompt_tokens": 1, "completion_tokens": 2}}) + "\n")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        store = ReplayStore(str(path))
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store) == 2000
    assert retained / 2000 < text_length
    assert store.response([f"{7:064x}"]).texts == ("answer 7",)


def test_store_opens_with_unusable_records_and_fails_serving_them(tmp_path):
    # The store opens; the record fails only when it is served.
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps({"key": "k1", "texts": ["t"], "usage": {"prompt_tokens": "x"}})
                    + "\n" + json.dumps({"key": "k2", "usage": {}}) + "\n", encoding="utf-8")
    store = ReplayStore(str(path))
    assert len(store) == 2
    with pytest.raises(ValueError):
        store.response(["k1"])
    with pytest.raises(KeyError):
        store.response(["k2"])


@pytest.mark.parametrize("fields", [
    {"model": "m", "user_text": "q", "bogus": 1},
    {"model": "m", "user_text": "q"},
    {**req().to_dict(), "n_samples": "3"},
    {**req().to_dict(), "user_text": 5},
    {**req().to_dict(), "temperature": True},
    {**req().to_dict(), "n_samples": 0},
    ["m", "q"],
    None,
])
def test_request_from_dict_rejects_what_to_dict_never_writes(fields):
    with pytest.raises(ValueError):
        CompletionRequest.from_dict(fields)


def test_request_from_dict_inverts_to_dict():
    rng = random.Random(5)
    for _ in range(200):
        request = _random_request(rng)
        assert CompletionRequest.from_dict(request.to_dict()) == request


# ---------------------------------------------------------------- live HTTP


class FakeResponse:
    def __init__(self, status_code=200, body=None, headers=None, raw_text=""):
        self.status_code = status_code
        self._body = body
        self.headers = headers or {}
        self.text = raw_text

    def json(self):
        if self._body is None:
            raise ValueError("not json")
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.posts = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.posts.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _ok_body(texts, prompt_tokens=7, completion_tokens=9):
    return {
        "choices": [{"index": i, "message": {"content": t}} for i, t in enumerate(texts)],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def _live(session, **kwargs):
    sleeps = []
    backend = LiveBackend(
        "https://example.test/v1", api_key="k", session=session,
        retry=RetryPolicy(max_attempts=3, base_delay=0.01),
        limiter=TokenBucketLimiter(max_concurrent=2, requests_per_minute=6000),
        sleep=sleeps.append, **kwargs,
    )
    return backend, sleeps


def test_live_retries_server_errors_then_succeeds():
    session = FakeSession([
        FakeResponse(status_code=500),
        FakeResponse(status_code=503),
        FakeResponse(body=_ok_body(["done"])),
    ])
    backend, sleeps = _live(session)
    response = backend.complete(req(user_text="q"))
    assert response.texts == ("done",)
    assert len(session.posts) == 3
    assert len(sleeps) == 2


def test_live_honors_retry_after_on_429():
    session = FakeSession([
        FakeResponse(status_code=429, headers={"Retry-After": "2.5"}),
        FakeResponse(body=_ok_body(["done"])),
    ])
    backend, sleeps = _live(session)
    assert backend.complete(req(user_text="q")).texts == ("done",)
    assert sleeps == [2.5]


def test_live_falls_back_to_policy_delay_when_retry_after_is_a_date():
    # RFC 9110 allows an HTTP-date in place of a number of seconds.
    session = FakeSession([
        FakeResponse(status_code=429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        FakeResponse(body=_ok_body(["done"])),
    ])
    backend, sleeps = _live(session)
    assert backend.complete(req(user_text="q")).texts == ("done",)
    assert sleeps == [backend.retry.delay(0)]


def test_live_reads_null_usage_as_zero():
    body = {**_ok_body(["done"]), "usage": None}
    backend, _ = _live(FakeSession([FakeResponse(body=body)]))
    response = backend.complete(req(user_text="q"))
    assert response.texts == ("done",)
    assert response.usage == Usage()


@pytest.mark.parametrize("response", [
    FakeResponse(status_code=400, raw_text="bad request"),
    FakeResponse(status_code=200, body=None, raw_text="not json"),
    FakeResponse(status_code=200, body=_ok_body(["only one"])),
    FakeResponse(status_code=200, body={**_ok_body(["x", "y"]), "usage": "n/a"}),
    FakeResponse(status_code=200, body=_ok_body(["x", "y"], prompt_tokens=None)),
    FakeResponse(status_code=200, body=_ok_body(["x", None])),
])
def test_live_never_retries_malformed(response):
    session = FakeSession([response, FakeResponse(body=_ok_body(["x", "y"]))])
    backend, _ = _live(session)
    with pytest.raises(MalformedResponseError):
        backend.complete(req(user_text="q", n_samples=2))
    assert len(session.posts) == 1


def test_live_null_content_fails_only_its_question(tmp_path):
    # A choice whose content is null must be a malformed response, which the
    # run records as that question's failure.
    class ByText:
        def post(self, url, json=None, headers=None, timeout=None):
            user_text = json["messages"][-1]["content"]
            content = None if user_text.startswith("Probe 0.") else "the answer is (A)"
            return FakeResponse(body=_ok_body([content] * json["n"]))

    questions = [mc_question(f"q{i}", f"Probe {i}. Answer Choices: (A) x (B) y", "A")
                 for i in range(2)]
    backend, _ = _live(ByText())
    record = run_experiment("toy", questions, default_config(StrategyKind.COT), backend,
                            runs_dir=str(tmp_path), run_id="null-content")
    failed, answered = record.outcomes
    assert failed.question_id == "q0" and "not a string" in failed.error
    assert answered.error is None and answered.correct and answered.trace_count == 1


def test_live_gives_up_after_bounded_attempts():
    session = FakeSession([FakeResponse(status_code=500)] * 5)
    backend, _ = _live(session)
    with pytest.raises(NetworkError):
        backend.complete(req(user_text="q"))
    assert len(session.posts) == 3


def test_live_sequential_sampling_uses_distinct_batch_ids():
    session = FakeSession([FakeResponse(body=_ok_body([f"t{i}"])) for i in range(3)])
    backend, _ = _live(session, batch_samples=False)
    response = backend.complete(req(user_text="q", n_samples=3))
    assert response.texts == ("t0", "t1", "t2")
    assert len(session.posts) == 3
    assert all(p["json"]["n"] == 1 for p in session.posts)


def test_live_wire_format():
    session = FakeSession([FakeResponse(body=_ok_body(["ok"]))])
    backend, _ = _live(session)
    backend.complete(req(user_text="question", system_text="sys", temperature=0.8,
                         top_k=10, max_tokens=100))
    post = session.posts[0]
    assert post["url"].endswith("/chat/completions")
    assert post["headers"]["Authorization"] == "Bearer k"
    assert post["json"]["messages"] == [
        {"role": "system", "content": "sys"},
        {"role": "user", "content": "question"},
    ]
    assert post["json"]["temperature"] == 0.8
    assert post["json"]["n"] == 1
    assert post["json"]["top_k"] == 10
    assert post["json"]["max_tokens"] == 100


def test_rate_limiter_waits_when_budget_exhausted():
    clock = {"t": 0.0}
    sleeps = []

    def fake_sleep(seconds):
        sleeps.append(seconds)
        clock["t"] += seconds

    limiter = TokenBucketLimiter(max_concurrent=2, requests_per_minute=2,
                                 clock=lambda: clock["t"], sleep=fake_sleep)
    with limiter:
        pass
    with limiter:
        pass
    with limiter:  # third acquire must wait for a refill (rate = 2/min)
        pass
    assert sleeps and sleeps[0] == pytest.approx(30.0)
