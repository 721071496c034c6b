import errno
import gc
import hashlib
import json
import math
import os
import random
import re
import resource
import socket
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import pytest

import breadth.llmio
import breadth.store
from breadth.bench import run_experiment
from breadth.core import StrategyKind, Usage, canonical_json, default_config
from breadth.llmio import (
    API_KEY_ENV,
    BACKEND_MOCK,
    BACKEND_REPLAY_HIT,
    Backend,
    CompletionRequest,
    CompletionResponse,
    HttpTransport,
    LiveBackend,
    LlmIoError,
    MAX_ATTEMPTS,
    MAX_RETRY_AFTER,
    NetworkError,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
    TokenBucketLimiter,
    cache_key,
    call,
    replay_response,
    retry_delay,
    split_usage,
)
from breadth.store import AppendLog, ReplayStore, read_json_lines
from conftest import (
    ADVERSARIAL_ALPHABET,
    ChatServer,
    DiskFills,
    descriptors_linked_to,
    mc_question,
    request_dict,
)


def req(**kwargs) -> CompletionRequest:
    base = dict(model="m", user_text="hello", temperature=1.0)
    base.update(kwargs)
    return CompletionRequest(**base)


def _per_sample_requests(request: CompletionRequest):
    """Each sample's own request, as :func:`cache_key` digests it: sample i's
    is a copy with ``n_samples`` 1 and ``sample_batch_id`` the request's
    plus i (the request itself when it has one sample)."""
    return [replace(request, n_samples=1, sample_batch_id=request.sample_batch_id + i)
            for i in range(request.n_samples)]


# ---------------------------------------------------------------- scripted


def test_scripted_ordered_consumption():
    backend = ScriptedBackend({"toy shop": ["path A text", "path B text"]})
    first = backend.complete(req(user_text="about the toy shop"))
    second = backend.complete(req(user_text="about the toy shop"))
    assert first.texts == ("path A text",)
    assert second.texts == ("path B text",)
    with pytest.raises(LlmIoError, match="rule 'toy shop' has 0 responses left, needs 1"):
        backend.complete(req(user_text="about the toy shop"))


def test_scripted_no_match():
    backend = ScriptedBackend({"toy shop": ["x"]})
    with pytest.raises(LlmIoError, match="no rule matches input: 'something else'"):
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
    # of two exact rules for one text, the first answers
    twice = ScriptedBackend()
    twice.add_rule("abc", ["first"], exact=True)
    twice.add_rule("abc", ["second"], exact=True)
    assert twice.complete(req(user_text="abc")).texts == ("first",)
    # an exact rule with no responses left still shadows the substring rule
    twice.add_rule("ab", ["substring answer"])
    with pytest.raises(LlmIoError, match="rule 'abc' has 0 responses left, needs 1"):
        twice.complete(req(user_text="abc"))
    assert twice.complete(req(user_text="abcd")).texts == ("substring answer",)


def test_longest_substring_wins_then_declaration_order():
    backend = ScriptedBackend()
    backend.add_rule("ab", ["short"])
    backend.add_rule("abcd", ["long"])
    assert backend.complete(req(user_text="abcdef")).texts == ("long",)
    tie = ScriptedBackend()
    tie.add_rule("ab", ["first"])
    tie.add_rule("cd", ["second"])
    assert tie.complete(req(user_text="abcd")).texts == ("first",)
    # rules added after a call keep their place: a longer one wins, an
    # equally long one comes after the earlier rules
    tie.add_rule("bc", ["third"])
    tie.add_rule("abc", ["longest"])
    assert tie.complete(req(user_text="abcd")).texts == ("longest",)
    assert tie.complete(req(user_text="bcd")).texts == ("second",)
    assert tie.complete(req(user_text="xbc")).texts == ("third",)


@pytest.mark.parametrize("script", ["rules", 3, None], ids=["string", "number", "null"])
def test_a_script_neither_an_object_nor_a_list_is_refused(script):
    with pytest.raises(ValueError, match="^expected an object or a list of rule objects, got "):
        ScriptedBackend(script)


def test_a_rule_whose_responses_is_one_string_answers_with_that_string():
    for backend in (ScriptedBackend({"q": "only"}),
                    ScriptedBackend([{"match": "q", "responses": "only"}])):
        assert backend.complete(req(user_text="q")).texts == ("only",)
        with pytest.raises(LlmIoError, match="rule 'q' has 0 responses left, needs 1"):
            backend.complete(req(user_text="q"))


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
    base = req()
    perturbations = {
        "model": lambda r: replace(r, model=r.model + "x"),
        "user_text": lambda r: replace(r, user_text=r.user_text + "!"),
        "temperature": lambda r: replace(r, temperature=r.temperature + 0.1),
        "n_samples": lambda r: replace(r, n_samples=r.n_samples + 1),
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
        temperature=rng.choice([0, 1, 2, 0.0, 0.7, 1.0, 1e-07, 1e+16, 0.1 + 0.2,
                                rng.random() * 2]),
        n_samples=rng.choice([1, 1, 2, 3, 10, 11]),
        sample_batch_id=rng.randint(0, 12),
    )


def test_cache_key_is_the_digest_of_each_samples_own_request():
    # The reference: every sample's request built and encoded on its own.
    # The cache stores the payloads themselves, so their bytes must match too.
    rng = random.Random(11)
    requests = [_random_request(rng) for _ in range(2000)]
    # Equal temperatures of another type or sign, one right after the other:
    # each is written as the float of its value, whichever came first.
    requests += [CompletionRequest("memo", "q", t) for t in (1, 1.0, 0.0, 0, -0.0, 0.0)]
    for request in requests:
        payloads = tuple(
            json.dumps(request_dict(s), sort_keys=True, separators=(",", ":")).encode("utf-8")
            for s in _per_sample_requests(request))
        assert request.sample_payloads == payloads, request
        assert cache_key(request) == tuple(hashlib.sha256(p).hexdigest() for p in payloads)


@pytest.mark.parametrize("spellings", [(0, 0.0, -0.0), (1, 1.0)], ids=["zero", "one"])
def test_a_requests_temperature_is_keyed_by_its_value(spellings):
    requests = [CompletionRequest("m", "q", t, n_samples=2) for t in spellings]
    for request in requests:
        assert type(request.temperature) is float
        assert math.copysign(1.0, request.temperature) == 1.0
    assert len({request.sample_payloads for request in requests}) == 1
    assert len({cache_key(request) for request in requests}) == 1
    with pytest.raises(TypeError):
        CompletionRequest("m", "q", str(spellings[0]))


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
    with pytest.raises(LlmIoError, match="no recorded response for key "):
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


class _FixedTexts(Backend):
    """Answers every request with the same texts and usage, whatever its
    ``n_samples``."""

    model = "m"

    def __init__(self, texts, usage=Usage(5, 7), backend="fixed"):
        self.response = CompletionResponse(tuple(texts), usage, backend)

    def complete(self, request):
        return self.response


def test_call_rounds_its_latency_to_the_nearest_millisecond(monkeypatch):
    # A call of 2.6 ms used to read 2: the milliseconds were truncated.
    clock = iter([10.0, 10.0026])
    with monkeypatch.context() as patched:
        patched.setattr(breadth.llmio.time, "monotonic", lambda: next(clock))
        [(text, usage, latency_ms)] = call(_FixedTexts(["t"]), "q", 1.0)
    assert (text, usage, latency_ms) == ("t", Usage(5, 7), 3)


def test_call_under_a_deterministic_backend_reads_no_clock(monkeypatch):
    def no_clock():
        raise AssertionError("a deterministic call read the clock")

    backend = _FixedTexts(["t"])
    backend.deterministic = True
    monkeypatch.setattr(breadth.llmio.time, "monotonic", no_clock)
    [(text, usage, latency_ms)] = call(backend, "q", 1.0)
    assert (text, usage, latency_ms) == ("t", Usage(5, 7), 0)


def test_call_charges_each_sample_its_share_and_sample_0_the_milliseconds(monkeypatch):
    clock = iter([10.0, 10.004])
    monkeypatch.setattr(breadth.llmio.time, "monotonic", lambda: next(clock))
    samples = call(_FixedTexts(["a", "b", "c"], usage=Usage(5, 7)), "q", 1.0, n_samples=3)
    assert samples == [("a", Usage(5, 3), 4), ("b", Usage(0, 2), 0), ("c", Usage(0, 2), 0)]


@pytest.mark.parametrize("n_texts", [0, 2], ids=["none", "one-too-many"])
def test_call_refuses_a_response_without_one_text_per_sample(n_texts):
    backend = _FixedTexts(["t"] * n_texts)
    with pytest.raises(LlmIoError, match=f"expected 1 samples, got {n_texts}"):
        call(backend, "q", 1.0)


@pytest.mark.parametrize("n_texts", [1, 2, 4], ids=["short", "short-by-one", "long"])
def test_recording_refuses_a_response_without_one_text_per_sample(tmp_path, n_texts):
    path = tmp_path / "cache.jsonl"
    store = ReplayStore(str(path))
    backend = RecordingBackend(_FixedTexts(["t"] * n_texts), store)
    three = req(user_text="q", n_samples=3)
    with pytest.raises(LlmIoError, match="expected 3 samples, got %d" % n_texts):
        backend.complete(three)
    assert len(store) == 0 and not path.exists()  # nothing appended


@pytest.mark.parametrize("n_samples", [1, 2, 3, 4])
def test_recorded_response_is_what_replay_serves_from_the_file(tmp_path, n_samples):
    for completion in range(10):
        path = tmp_path / f"cache-{n_samples}-{completion}.jsonl"
        texts = [f"sample {i} of {completion}" for i in range(n_samples)]
        request = req(user_text=f"q{completion}", n_samples=n_samples)
        keys = cache_key(request)
        store = ReplayStore(str(path))
        recorded = RecordingBackend(_FixedTexts(texts, Usage(11, completion)),
                                    store).complete(request)
        replayed = replay_response(ReplayStore(str(path)), keys)
        assert recorded.texts == replayed.texts == tuple(texts)
        assert recorded.usage == replayed.usage == Usage(11, completion)
        assert (recorded.backend, replayed.backend) == ("fixed", BACKEND_REPLAY_HIT)
        # The remainder of the split is on sample 0, the whole prompt on each.
        share, remainder = divmod(completion, n_samples)
        lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert [r["usage"] for r in lines] == (
            [{"completion_tokens": share + remainder, "prompt_tokens": 11}]
            + [{"completion_tokens": share, "prompt_tokens": 11}] * (n_samples - 1))
        # A hit through the recording store serves the same response.
        hit = RecordingBackend(ScriptedBackend({}), store).complete(request)
        assert hit == replace(recorded, backend=BACKEND_REPLAY_HIT) == replayed


def test_recording_and_replay_call_cache_key_once_per_request(tmp_path, monkeypatch):
    calls = []
    appended = []

    def counting_cache_key(request):
        calls.append(request)
        return cache_key(request)

    real_append = ReplayStore.append

    def counting_append(self, records):
        appended.append([key for key, *_ in records])
        return real_append(self, records)

    monkeypatch.setattr(breadth.llmio, "cache_key", counting_cache_key)
    monkeypatch.setattr(ReplayStore, "append", counting_append)
    store = ReplayStore(str(tmp_path / "cache.jsonl"))
    backend = RecordingBackend(ScriptedBackend({"q": ["a", "b", "c"]}), store)
    three = req(user_text="q", n_samples=3)
    missed = backend.complete(three)
    assert calls == [three]  # on a miss
    assert appended == [list(cache_key(three))]  # the whole response in one append
    calls.clear()
    appended.clear()
    hit = backend.complete(three)
    assert calls == [three]  # on a hit
    assert appended == []  # a hit records nothing
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
    assert [r["request"] for r in records] == [request_dict(s) for s in singles]
    assert [r["key"] for r in records] == list(cache_key(three))
    assert all((r["key"],) == cache_key(s) for r, s in zip(records, singles))


def test_recorded_lines_are_the_canonical_json_of_each_samples_record(tmp_path):
    # The reference: the record dict of each sample, encoded on its own.
    rng = random.Random(5)

    def text():
        return "".join(rng.choice(ADVERSARIAL_ALPHABET) for _ in range(rng.randint(0, 6)))

    class Random(Backend):
        model = "m"

        def complete(self, request):
            texts = tuple(text() for _ in range(request.n_samples))
            return CompletionResponse(texts, Usage(rng.randint(0, 500), rng.randint(0, 50)))

    path = tmp_path / "cache.jsonl"
    backend = RecordingBackend(Random(), ReplayStore(str(path)))
    written = 0
    for _ in range(500):
        request = CompletionRequest(
            model=text() or "m", user_text=text(),
            temperature=rng.choice([0, 1, 2, 0.0, 0.5, rng.random() * 2]),
            n_samples=rng.randint(1, 4),
            sample_batch_id=rng.choice([0, rng.randint(1, 9)]))
        if backend.store.has(cache_key(request)):
            continue  # a repeated request is a hit, which records nothing
        response = backend.complete(request)
        shares = split_usage(response.usage, request.n_samples)
        expected = "".join(
            canonical_json({"key": key, "request": request_dict(sample), "texts": [sample_text],
                            "usage": Usage(response.usage.prompt_tokens,
                                           share.completion_tokens).to_dict()}) + "\n"
            for key, sample, sample_text, share in zip(
                cache_key(request), _per_sample_requests(request), response.texts, shares))
        with open(path, "rb") as fh:
            fh.seek(written)
            lines = fh.read()
        assert lines == expected.encode("utf-8"), request
        written += len(lines)


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


def _record(key: str) -> tuple:
    """One record as :meth:`ReplayStore.append` takes it."""
    return key, b"{}", "t", Usage()


def test_store_append_after_torn_tail_starts_a_new_line(tmp_path):
    path = tmp_path / "cache.jsonl"
    torn = _cache_line("k1") + "\n" + _cache_line("k2") + "\n" + _cache_line("k3")[:15]
    path.write_text(torn, encoding="utf-8")
    store = ReplayStore(str(path))
    assert len(store) == 2 and "k3" not in store.entries
    assert path.read_text(encoding="utf-8") == torn  # loading never writes
    store.append([_record("k4")])
    store = ReplayStore(str(path))
    records = read_json_lines(str(path))
    assert {"k1", "k2", "k4"} <= set(r["key"] for r in records)
    store.append([_record("k5")])
    assert len(ReplayStore(str(path))) == 4


def test_store_append_terminates_an_intact_last_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line("k1") + "\n" + _cache_line("k2"), encoding="utf-8")
    store = ReplayStore(str(path))
    assert len(store) == 2
    store.append([_record("k3")])
    assert len(ReplayStore(str(path))) == 3
    assert path.read_text(encoding="utf-8").count("\n") == 3


def test_store_tolerates_corrupt_trailing_line_only(tmp_path):
    path = tmp_path / "cache.jsonl"
    record = {"key": "k1", "request": {}, "texts": ["t"], "usage": {}}
    path.write_text(json.dumps(record) + "\n{truncated", encoding="utf-8")
    store = ReplayStore(str(path))
    assert len(store) == 1 and "k1" in store.entries

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

    monkeypatch.setattr(os, "write", no_disk)
    with pytest.raises(OSError):
        store.append([_record("k3")])
    monkeypatch.undo()
    assert "k3" not in store.entries and len(store) == 2
    store.append([_record("k4")])
    reloaded = ReplayStore(str(path))
    assert len(reloaded) == 3 and reloaded.has(["k4"]) and not reloaded.has(["k3"])
    assert path.read_text(encoding="utf-8").count("\n") == 3


@pytest.mark.parametrize("tail", ["\n", ""], ids=["whole", "unterminated"])
def test_store_append_cut_short_is_cut_off_by_the_next_append(tmp_path, monkeypatch, tail):
    # The disk fills during the first append: nothing of it may stay on
    # disk, and a newline the file owed must still be written before k3.
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line("k1") + tail, encoding="utf-8")
    store = ReplayStore(str(path))
    monkeypatch.setattr(os, "write", DiskFills())
    with pytest.raises(OSError):
        store.append([_record("k2")])
    monkeypatch.undo()
    assert "k2" not in store.entries
    assert path.read_text(encoding="utf-8") == _cache_line("k1") + tail
    store.append([_record("k3")])
    store.append([_record("k4")])
    records = read_json_lines(str(path))
    assert [r["key"] for r in records] == ["k1", "k3", "k4"]
    assert path.read_bytes().endswith(b"\n")
    assert len(ReplayStore(str(path))) == 3


def test_recording_cut_short_serves_none_of_the_responses_keys(tmp_path, monkeypatch):
    # A response's samples go out in one write: cut short, it leaves whole
    # lines of some samples and part of another, and none may be served.
    path = tmp_path / "cache.jsonl"
    store = ReplayStore(str(path))
    backend = RecordingBackend(ScriptedBackend({"q": ["a", "b", "c"], "other": ["d"]}), store)
    three = req(user_text="q", n_samples=3)
    monkeypatch.setattr(os, "write", DiskFills())
    with pytest.raises(OSError):
        backend.complete(three)
    monkeypatch.undo()
    # The write left one whole line and part of another; both are cut back
    # at once, to the empty file the append opened.
    assert path.read_bytes() == b""
    assert not any(key in store.entries for key in cache_key(three))
    other = req(user_text="other")
    assert backend.complete(other).texts == ("d",)
    records = read_json_lines(str(path))
    assert [r["key"] for r in records] == list(cache_key(other))
    assert path.read_bytes().endswith(b"\n")
    assert len(ReplayStore(str(path))) == 1


@pytest.mark.skipif(sys.platform != "linux", reason="lists descriptors in /proc/self/fd")
def test_store_holds_one_append_descriptor_until_it_is_dropped(tmp_path, monkeypatch):
    # A raw descriptor raises no ResourceWarning when it leaks, so count them.
    def no_disk(fd, data):
        raise OSError("disk gone")

    def open_count():
        return len(os.listdir("/proc/self/fd"))

    path = tmp_path / "cache.jsonl"
    gc.collect()  # so a store an earlier test left in a garbage cycle is not counted
    before = open_count()
    store = ReplayStore(str(path))
    assert open_count() == before  # opening holds none
    store.append([_record("k1")])
    assert open_count() == before + 1 and descriptors_linked_to(path) == 1
    for write in (no_disk, DiskFills()):
        monkeypatch.setattr(os, "write", write)
        with pytest.raises(OSError):
            store.append([_record("k2")])
        monkeypatch.undo()
        assert open_count() == before + 1
    store.append([_record("k3")])
    assert open_count() == before + 1 and descriptors_linked_to(path) == 1
    replaying = ReplayStore(str(path))
    assert replay_response(replaying, ["k1", "k3"]).texts == ("t", "t")
    assert open_count() == before + 1  # a store that only replays opens none
    del store, replaying
    gc.collect()
    assert open_count() == before and descriptors_linked_to(path) == 0


def _store_holding(path, pending: bool) -> ReplayStore:
    """A store on ``path`` with its append descriptor open, or, when
    ``pending``, one whose cache ends in a record without its newline, with
    no descriptor open yet to repair that tail."""
    if pending:
        path.write_text('{"key":"k1"}', encoding="utf-8")
        assert read_json_lines(str(path)) == [{"key": "k1"}]
        store = ReplayStore(str(path))
    else:
        store = ReplayStore(str(path))
        store.append([_record("k1")])
    return store


@pytest.mark.parametrize("pending", [False, True], ids=["held", "repair-pending"])
def test_store_appends_at_the_path_after_its_cache_is_deleted(tmp_path, pending):
    # A repair pending for the deleted cache used to truncate the missing
    # path, and every later append raised FileNotFoundError.
    path = tmp_path / "cache.jsonl"
    store = _store_holding(path, pending)
    path.unlink()
    store.append([_record("k2")])
    records = read_json_lines(str(path))
    assert [r["key"] for r in records] == ["k2"]
    if sys.platform == "linux":
        assert descriptors_linked_to(path) == 1  # the deleted file's is closed


@pytest.mark.parametrize("pending", [False, True], ids=["held", "repair-pending"])
def test_store_appends_at_the_path_after_its_cache_is_replaced(tmp_path, pending):
    # A repair pending for the replaced cache used to cut the replacement
    # to the old cache's size, leaving it a corrupt first line.
    path = tmp_path / "cache.jsonl"
    store = _store_holding(path, pending)
    replacement = tmp_path / "replacement.jsonl"
    replacement.write_text(_cache_line("k0") + "\n", encoding="utf-8")
    os.replace(replacement, path)
    store.append([_record("k2")])
    records = read_json_lines(str(path))
    assert [r["key"] for r in records] == ["k0", "k2"]
    if sys.platform == "linux":
        assert descriptors_linked_to(path) == 1


def test_a_second_store_cannot_append_to_a_cache_a_recording_store_holds(tmp_path):
    # Two stores used to append to one cache side by side, and could leave
    # it unloadable. The first to append holds the cache until it is dropped;
    # a store that only replays still reads it.
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line("k1") + "\n" + _cache_line("k2")[:15], encoding="utf-8")
    a, b = ReplayStore(str(path)), ReplayStore(str(path))
    b.append([_record("b1")])
    held = path.read_bytes()
    with pytest.raises(OSError, match=f"held by another writer: '{path}'"):
        a.append([_record("a1")])
    assert path.read_bytes() == held and not a.has(["a1"])
    assert replay_response(ReplayStore(str(path)), ["k1", "b1"]).texts == ("t", "t")
    del b
    gc.collect()
    a.append([_record("a1")])
    assert [r["key"] for r in read_json_lines(str(path))] == ["k1", "b1", "a1"]


def test_store_opened_to_record_refuses_a_held_cache_before_reading_it(tmp_path, monkeypatch):
    # A refused recording store used to parse the whole cache first.
    path = tmp_path / "cache.jsonl"
    path.write_text(_cache_line("k1") + "\n" + _cache_line("k2") + "\n", encoding="utf-8")
    parsed = []
    with AppendLog(str(path)):
        monkeypatch.setattr(breadth.store, "_parse_line", parsed.append)
        with pytest.raises(OSError, match=f"held by another writer: '{path}'"):
            ReplayStore(str(path), record=True)
    assert parsed == []


@pytest.mark.skipif(sys.platform != "linux", reason="lists descriptors in /proc/self/fd")
def test_store_append_whose_cut_fails_too_reopens_and_repairs_the_tail(tmp_path, monkeypatch):
    # Half a line stays on disk when the cut back fails as well: the log lets
    # go of its descriptor, so the next append opens the file and repairs it.
    path = tmp_path / "cache.jsonl"
    store = ReplayStore(str(path))
    store.append([_record("k1")])

    def no_cut(fd, length):
        raise OSError(errno.EIO, "input/output error")

    monkeypatch.setattr(os, "write", DiskFills())
    monkeypatch.setattr(os, "ftruncate", no_cut)
    with pytest.raises(OSError) as failed:
        store.append([_record("k2")])
    monkeypatch.undo()
    assert failed.value.errno == errno.ENOSPC  # the write's error, not the cut's
    assert descriptors_linked_to(path) == 0
    assert not path.read_bytes().endswith(b"\n")
    store.append([_record("k3")])
    assert [r["key"] for r in read_json_lines(str(path))] == ["k1", "k3"]
    assert path.read_bytes().endswith(b"\n") and descriptors_linked_to(path) == 1


def test_store_append_that_fails_is_cut_back_while_a_second_writer_is_refused(
        tmp_path, monkeypatch):
    # Store B could append while store A's write was failing, so A made no
    # cut, to spare B's line. Now B is refused, and A cuts its half line off.
    path = tmp_path / "cache.jsonl"
    a, b = ReplayStore(str(path)), ReplayStore(str(path))
    a.append([_record("k1")])
    before = path.read_bytes()
    write = os.write
    refused = []

    def b_appends_then_disk_fills(fd, data):
        monkeypatch.setattr(os, "write", write)
        write(fd, data[: len(data) // 2])
        try:
            b.append([_record("b1")])
        except OSError as exc:
            refused.append(str(exc))
        raise OSError(errno.ENOSPC, "no space left on device")

    monkeypatch.setattr(os, "write", b_appends_then_disk_fills)
    with pytest.raises(OSError, match="no space left"):
        a.append([_record("a1")])
    monkeypatch.undo()
    assert refused == [f"[Errno {errno.EAGAIN}] held by another writer: '{path}'"]
    assert path.read_bytes() == before
    a.append([_record("a2")])
    assert [r["key"] for r in read_json_lines(str(path))] == ["k1", "a2"]
    assert path.read_bytes().endswith(b"\n")


def _split_read_json_lines(path, string_field=None):
    """The loader as it was before it streamed: the whole file read, decoded
    and split at once. The reference for the streaming loader."""
    if not os.path.exists(path):
        return []
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
            return records
        if not isinstance(record, dict):
            raise ValueError(f"{path}: record at line {i + 1} is not a JSON object")
        if string_field is not None and not isinstance(record.get(string_field), str):
            raise ValueError(f"{path}: record at line {i + 1} has no string {string_field!r}")
        records.append(record)
    return records


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
    # And for each file the loader accepts, one append through a fresh log
    # repairs the tail so that the file reads as those records and one more.
    rng = random.Random(7)
    path = tmp_path / "store.jsonl"
    added = {"key": "added", "texts": ["t"]}
    outcomes = set()
    for _ in range(3000):
        data = _random_lines_file(rng).encode("utf-8")
        path.write_bytes(data)
        for string_field in ("key", None):
            results = []
            for load in (_split_read_json_lines, read_json_lines):
                try:
                    results.append(load(str(path), string_field))
                except ValueError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], data
            if isinstance(results[1], str):
                outcomes.add(results[1])
        records = results[1]
        if isinstance(records, str):
            continue
        line = json.dumps(added).encode("utf-8") + b"\n"
        with AppendLog(str(path)) as log:
            log.append(line)
        assert read_json_lines(str(path)) == records + [added], data
        appended = path.read_bytes()
        outcomes.add("torn" if not appended.startswith(data) else
                     "whole" if appended == data + line else "unterminated")
    # Every outcome occurred: each kind of tail, each error kind.
    assert {"whole", "unterminated", "torn"} <= outcomes
    for reason in ("corrupt record", "is not a JSON object", "has no string 'key'"):
        assert any(reason in o for o in outcomes)


@pytest.mark.parametrize("cut", [0, 1, 7], ids=["whole", "unterminated", "torn"])
@pytest.mark.parametrize("length", [-2, -1, 0, 1, 2 ** 17], ids=lambda n: f"chunk{n:+d}")
def test_append_log_repairs_a_last_line_longer_than_one_read(tmp_path, length, cut):
    # The repair reads back from the end in steps; the newline before the
    # last line may fall on either side of a step's edge.
    chunk = breadth.store._READ_CHUNK
    path = tmp_path / "log.jsonl"
    first = json.dumps({"key": "first"}) + "\n"
    filler = "x" * (chunk + length - len('{"key": "last", "text": ""}\n'))
    last = json.dumps({"key": "last", "text": filler}) + "\n"
    assert len(last) == chunk + length
    data = (first + last).encode("utf-8")
    path.write_bytes(data[:len(data) - cut])
    records = read_json_lines(str(path))
    with AppendLog(str(path)) as log:
        log.append(b'{"key": "added"}\n')
    assert [r["key"] for r in read_json_lines(str(path))] == [
        r["key"] for r in records] + ["added"]
    assert len(records) == (1 if cut == 7 else 2)


def test_store_keeps_less_than_the_request_in_memory(tmp_path):
    path = tmp_path / "cache.jsonl"
    text_length = 1000
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(2000):
            request = request_dict(req(user_text=f"{i:<{text_length}}"))
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
    # Per record the store keeps its key, its text and one (text, prompt,
    # completion) tuple, whose counts here are cached small ints; the
    # allowance covers the record's share of the index's hash table.
    kept = sum(sys.getsizeof(f"{i:064x}") + sys.getsizeof(f"answer {i}")
               + sys.getsizeof(("answer", 1, 2)) for i in range(2000))
    allowance = 96
    assert len(store) == 2000
    assert retained < kept + 2000 * allowance
    assert replay_response(store, [f"{7:064x}"]).texts == ("answer 7",)


def test_store_opens_with_unusable_records_and_fails_serving_them(tmp_path):
    # The store opens; the record fails only when it is served.
    path = tmp_path / "cache.jsonl"
    records = [{"key": "k1", "texts": ["t"], "usage": {"prompt_tokens": "x"}},
               {"key": "k2", "usage": {}},
               {"key": "k3", "texts": ["t"], "usage": [5, 7]},
               {"key": "k4", "texts": ["t"], "usage": "57"},
               {"key": "k5", "texts": ["t"], "usage": {"completion_tokens": None}},
               {"key": "k6", "texts": "abc", "usage": {}},
               {"key": "k7", "texts": 5, "usage": {}},
               {"key": "k8", "texts": [1], "usage": {}},
               {"key": "k9", "texts": [], "usage": {}},
               {"key": "k10", "texts": ["a", "b"], "usage": {}},
               {"key": "k11", "texts": ["t"], "usage": {"prompt_tokens": "12"}},
               {"key": "k12", "texts": ["t"], "usage": {"prompt_tokens": 1.9}},
               {"key": "k13", "texts": ["t"], "usage": {"completion_tokens": True}},
               {"key": "k14", "texts": ["t"], "usage": {"completion_tokens": -5}}]
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    store = ReplayStore(str(path))
    assert len(store) == 14
    with pytest.raises(LlmIoError, match="^record k1 has no usable token counts: "):
        replay_response(store, ["k1"])

    def messages(key):
        # Each serve of an unusable key raises, with the same message.
        raised = []
        for _ in range(2):
            with pytest.raises(LlmIoError) as exc:
                replay_response(store, [key])
            raised.append(str(exc.value))
        assert raised[0] == raised[1]
        return raised[0]

    # A usage that is not an object, or a count that is not a JSON int >= 0:
    # an LlmIoError, which fails its path as a failed call does.
    for key in ("k3", "k4", "k5", "k11", "k12", "k13", "k14"):
        assert messages(key).startswith(f"record {key} has no usable token counts")
    # A record serves one sample: its texts must be a list of one string.
    for key in ("k2", "k6", "k7", "k8", "k9", "k10"):
        assert messages(key).startswith(f"record {key} has no usable texts")


def _refused_append(path, store: ReplayStore, records) -> str:
    """Append ``records``, which must raise ``ValueError`` and change neither
    the file nor the store; returns the error's message."""
    before = path.read_bytes() if path.exists() else None
    kept = dict(store.entries)
    with pytest.raises(ValueError) as refused:
        store.append(records)
    assert (path.read_bytes() if path.exists() else None) == before
    assert store.entries == kept
    return str(refused.value)


def test_store_refuses_an_appended_text_that_is_not_a_string(tmp_path):
    # The appended response is checked by the rule the loader applies before
    # any of it is written, so no line is written that the store could not
    # serve.
    path = tmp_path / "cache.jsonl"
    store = ReplayStore(str(path))
    message = _refused_append(path, store, [("k1", b"{}", 5, Usage(1, 2)),
                                            ("k2", b"{}", "fine", Usage(1, 2))])
    assert message == (
        "record k1 has no usable texts: 'texts' must be a list of one string, got [5]")
    assert "k2" not in store.entries and len(ReplayStore(str(path))) == 0
    store.append([("k2", b"{}", "fine", Usage(1, 2))])
    assert replay_response(ReplayStore(str(path)), ["k2"]).texts == ("fine",)


def test_store_refuses_an_appended_count_that_is_not_an_int(tmp_path):
    # ``%d`` would write 1.9 as 1, so the recording session and a reopened
    # store would disagree about the same key.
    path = tmp_path / "cache.jsonl"
    store = ReplayStore(str(path))
    store.append([_record("k0")])
    for usage in (Usage(1.9, 2), Usage(1, -2), Usage(True, 2), Usage("3", 2)):
        message = _refused_append(path, store, [_record("k1"), ("k2", b"{}", "t", usage)])
        assert message.startswith("record k2 has no usable token counts")
    assert "k1" not in store.entries and "k2" not in store.entries
    assert len(ReplayStore(str(path))) == 1


def test_store_serves_an_absent_count_as_zero(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in [
        {"key": "k1", "texts": ["a"], "usage": {"completion_tokens": 4}},
        {"key": "k2", "texts": ["b"]}]), encoding="utf-8")
    response = replay_response(ReplayStore(str(path)), ["k1", "k2"])
    assert response.texts == ("a", "b") and response.usage == Usage(0, 4)


# ---------------------------------------------------------------- store index


def _open_counting_parses(monkeypatch, path, **options) -> tuple:
    """Open the store at ``path`` with ``options``; returns it and how many
    times the open parsed the cache (0 when it read the index)."""
    parses = []

    def counting(*args, **kwargs):
        parses.append(args[0])
        return read_json_lines(*args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(breadth.store, "read_json_lines", counting)
        store = ReplayStore(str(path), **options)
    return store, len(parses)


def _no_hashing(*args, **kwargs):
    raise AssertionError(f"hashed {args}")


def _kept(store: ReplayStore) -> tuple:
    return len(store), list(store.entries.items())


def _random_cache(rng: random.Random) -> str:
    def chars():
        return "".join(rng.choice(ADVERSARIAL_ALPHABET) for _ in range(rng.randrange(4)))

    keys = [chars() for _ in range(3)]  # few keys, so later records replace earlier ones

    def record():
        fields = {"key": rng.choice(keys), "request": {}}
        texts = rng.choice([[chars()]] * 4 + [[5], "abc", [], [chars(), chars()], None])
        usage = rng.choice([{"prompt_tokens": rng.randrange(99), "completion_tokens": 3}] * 3 + [
            {}, {"completion_tokens": 2 ** 70}, {"prompt_tokens": 1.9}, "57", None,
            {"completion_tokens": -1}, {"prompt_tokens": True}])
        fields.update((k, v) for k, v in (("texts", texts), ("usage", usage)) if v is not None)
        line = json.dumps(fields, ensure_ascii=rng.random() < 0.5)
        try:
            line.encode("utf-8")
        except UnicodeEncodeError:  # a lone surrogate has no UTF-8 form
            line = json.dumps(fields)
        return line

    kinds = [record] * 6 + [lambda: "", lambda: " \t", lambda: "{broken"]
    lines = [rng.choice(kinds)() for _ in range(rng.randrange(7))]
    tail = rng.choice(["", "\n", "torn"]) if lines else ""
    if tail == "torn":
        last = record()
        return "\n".join(lines + [last[:rng.randrange(1, len(last))]])
    return "\n".join(lines) + tail


def test_store_reopened_from_its_index_keeps_what_a_fresh_parse_keeps(tmp_path, monkeypatch):
    rng = random.Random(19)
    path = tmp_path / "cache.jsonl"
    index = tmp_path / "cache.jsonl.index"
    seen = set()
    for _ in range(400):
        if index.exists():
            index.unlink()
        path.write_bytes(_random_cache(rng).encode("utf-8"))
        try:
            parsed, parses = _open_counting_parses(monkeypatch, path)
        except ValueError:
            # A cache that does not open writes no index.
            assert sorted(os.listdir(tmp_path)) == ["cache.jsonl"]
            seen.add("error")
            continue
        assert parses == 1 and index.exists()
        reopened, parses = _open_counting_parses(monkeypatch, path)
        assert parses == 0 and _kept(reopened) == _kept(parsed), path.read_bytes()
        assert sorted(os.listdir(tmp_path)) == ["cache.jsonl", "cache.jsonl.index"]
        data = path.read_bytes()
        seen.add("empty" if not data else "whole" if data.endswith(b"\n") else "unterminated")
        seen.update("unusable" for entry in parsed.entries.values() if isinstance(entry, str))
    assert seen == {"error", "empty", "whole", "unterminated", "unusable"}


def _indexed_cache(tmp_path):
    """A cache of three appended records with an intact unterminated last
    line, opened once so that its index is written."""
    path = tmp_path / "cache.jsonl"
    ReplayStore(str(path)).append([("k1", b"{}", "one", Usage(1, 2)),
                                   ("k2", b"{}", "two", Usage(3, 4))])
    with open(path, "ab") as fh:
        fh.write(b'{"key":"k3","texts":["three"]}')
    store = ReplayStore(str(path))
    assert (tmp_path / "cache.jsonl.index").exists()
    return path, _kept(store)


def _assert_parses_and_reindexes(monkeypatch, path, expected=None):
    index = path.parent / (path.name + ".index")
    store, parses = _open_counting_parses(monkeypatch, path)
    assert parses == 1
    if expected is not None:
        assert _kept(store) == expected
    # The parse wrote a good index again.
    reopened, parses = _open_counting_parses(monkeypatch, path)
    assert parses == 0 and _kept(reopened) == _kept(store) and index.exists()
    return store


def test_store_parses_when_any_byte_of_its_index_is_flipped(tmp_path, monkeypatch):
    # The head is compared field by field and every frame checked against its
    # digest, so no single changed byte goes unnoticed.
    path, kept = _indexed_cache(tmp_path)
    index = tmp_path / "cache.jsonl.index"
    good = index.read_bytes()
    for i in range(len(good)):
        index.write_bytes(good[:i] + bytes([good[i] ^ 0x20]) + good[i + 1:])
        _assert_parses_and_reindexes(monkeypatch, path, kept)
        assert index.read_bytes() == good


def test_store_parses_when_its_index_is_cut_short_or_extended(tmp_path, monkeypatch):
    path, kept = _indexed_cache(tmp_path)
    index = tmp_path / "cache.jsonl.index"
    good = index.read_bytes()
    for damaged in [good[:size] for size in range(len(good))] + [good + b"\0"]:
        index.write_bytes(damaged)
        _assert_parses_and_reindexes(monkeypatch, path, kept)
        assert index.read_bytes() == good


@pytest.mark.parametrize("stamp", [
    {"magic": b"BRDTHIDY"},
    {"format": breadth.store._INDEX_FORMAT + 1},
    {"marshal": breadth.store.marshal.version + 1},
    {"program": bytes(32)},
], ids=["magic", "format-version", "marshal-version", "program-digest"])
def test_store_parses_when_its_index_was_written_by_other_rules(tmp_path, monkeypatch, stamp):
    # An index whose frames are intact but whose head names another format,
    # marshal version or program is not trusted.
    path, kept = _indexed_cache(tmp_path)
    index = tmp_path / "cache.jsonl.index"
    good = index.read_bytes()
    head = breadth.store._INDEX_HEAD
    magic, fmt, version, program, *cache = head.unpack(good[:head.size])
    fields = {"magic": magic, "format": fmt, "marshal": version, "program": program, **stamp}
    index.write_bytes(head.pack(*fields.values(), *cache) + good[head.size:])
    _assert_parses_and_reindexes(monkeypatch, path, kept)
    assert index.read_bytes() == good


def test_program_digest_covers_the_source_of_the_entry_rules():
    digest = hashlib.sha256(sys.version.encode("utf-8"))
    for module in (breadth.store, breadth.core):
        with open(module.__file__, "rb") as fh:
            digest.update(fh.read())
    assert breadth.store._PROGRAM_DIGEST == digest.digest()


def test_store_parses_a_cache_edited_in_place_at_the_same_size(tmp_path, monkeypatch):
    path, _ = _indexed_cache(tmp_path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes().replace(b'"two"', b'"TWO"'))
    assert path.stat().st_size == size
    store = _assert_parses_and_reindexes(monkeypatch, path)
    assert replay_response(store, ["k2"]).texts == ("TWO",)


def test_store_parses_a_cache_appended_to_after_its_index(tmp_path, monkeypatch):
    path, _ = _indexed_cache(tmp_path)
    with open(path, "ab") as fh:
        fh.write(b'\n{"key":"k4","texts":["four"]}\n')
    # The cache's size already tells the index is stale: no hashing before the parse.
    with monkeypatch.context() as patched:
        patched.setattr(breadth.store, "_file_digest", _no_hashing)
        store, parses = _open_counting_parses(monkeypatch, path, record=True)
    assert parses == 1 and len(store) == 4
    store = _assert_parses_and_reindexes(monkeypatch, path)
    assert len(store) == 4
    assert replay_response(store, ["k3", "k4"]).texts == ("three", "four")


def test_store_opened_from_its_index_repairs_the_tail_before_appending(tmp_path, monkeypatch):
    path, kept = _indexed_cache(tmp_path)
    store, parses = _open_counting_parses(monkeypatch, path)
    assert parses == 0 and _kept(store) == kept
    store.append([_record("k4")])
    records = read_json_lines(str(path))
    assert [r["key"] for r in records] == ["k1", "k2", "k3", "k4"]


def test_store_opened_to_record_loads_an_index_but_hashes_and_writes_none(
        tmp_path, monkeypatch):
    path, kept = _indexed_cache(tmp_path)
    # The lock taken before the load ends the cache's unterminated last
    # line, so the index no longer matches; a store that only replays
    # indexes the repaired cache again.
    store, parses = _open_counting_parses(monkeypatch, path, record=True)
    assert parses == 1 and _kept(store) == kept and path.read_bytes().endswith(b"\n")
    del store
    ReplayStore(str(path))
    index = tmp_path / "cache.jsonl.index"
    stale = index.read_bytes()
    store, parses = _open_counting_parses(monkeypatch, path, record=True)
    assert parses == 0 and _kept(store) == kept
    store.append([_record("k4")])
    del store
    # The append left the index stale: a recording store parses, hashing
    # neither the cache nor the bytes it parses, and leaves the index be.
    monkeypatch.setattr(breadth.store, "_file_digest", _no_hashing)
    monkeypatch.setattr(breadth.store.hashlib, "sha256", _no_hashing)
    store, parses = _open_counting_parses(monkeypatch, path, record=True)
    assert parses == 1 and len(store) == 4 and replay_response(store, ["k4"]).texts == ("t",)
    assert index.read_bytes() == stale
    index.unlink()
    del store
    store, parses = _open_counting_parses(monkeypatch, path, record=True)
    assert parses == 1 and len(store) == 4
    assert os.listdir(tmp_path) == ["cache.jsonl"]


def test_store_without_a_cache_writes_and_hashes_nothing(tmp_path, monkeypatch):
    monkeypatch.setattr(breadth.store, "_file_digest", _no_hashing)
    monkeypatch.setattr(breadth.store, "read_json_lines", _no_hashing)
    assert len(ReplayStore(str(tmp_path / "cache.jsonl"))) == 0
    assert os.listdir(tmp_path) == []


def test_store_in_an_unwritable_directory_opens_and_writes_nothing(tmp_path, monkeypatch):
    directory = tmp_path / "ro"
    directory.mkdir()
    path, kept = _indexed_cache(directory)
    (directory / "cache.jsonl.index").unlink()
    cache = path.read_bytes()
    if os.geteuid() == 0:
        # Permissions do not bind the superuser: refuse what the kernel would.
        def refusing(name, mode="r", *args, **kwargs):
            if "w" in mode and os.path.dirname(name) == str(directory):
                raise PermissionError(errno.EACCES, "permission denied", name)
            return open(name, mode, *args, **kwargs)

        monkeypatch.setattr(breadth.store, "open", refusing, raising=False)
    directory.chmod(0o555)
    try:
        store, parses = _open_counting_parses(monkeypatch, path)
        assert parses == 1 and _kept(store) == kept
    finally:
        directory.chmod(0o755)
    assert os.listdir(directory) == ["cache.jsonl"] and path.read_bytes() == cache


def _writing_through(write):
    """An ``open`` for ``breadth.store`` whose files opened for writing hand
    their bytes to ``write(fd, data)``, as they would to ``os.write``, until
    all are written or it raises."""
    def opening(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode:
            def write_all(data):
                unwritten = memoryview(data)
                while unwritten:
                    unwritten = unwritten[write(fh.fileno(), unwritten):]
                return len(data)
            fh.write = write_all
        return fh
    return opening


@pytest.mark.skipif(sys.platform != "linux", reason="lists descriptors in /proc/self/fd")
def test_store_index_write_that_fills_the_disk_leaves_nothing_behind(tmp_path, monkeypatch):
    path, kept = _indexed_cache(tmp_path)
    index = tmp_path / "cache.jsonl.index"
    cache = path.read_bytes()

    def full_disk(fd, data):
        raise OSError(errno.ENOSPC, "no space left on device")

    before = sorted(os.listdir("/proc/self/fd"))
    index.unlink()
    for write in (full_disk, DiskFills()):
        monkeypatch.setattr(breadth.store, "open", _writing_through(write), raising=False)
        store, parses = _open_counting_parses(monkeypatch, path)
        monkeypatch.undo()
        assert parses == 1 and _kept(store) == kept
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert os.listdir(tmp_path) == ["cache.jsonl"] and path.read_bytes() == cache
    _assert_parses_and_reindexes(monkeypatch, path, kept)


def test_stores_opened_at_once_by_many_threads_agree(tmp_path):
    # Each writer writes its own temporary file and renames it into place.
    path, kept = _indexed_cache(tmp_path)
    (tmp_path / "cache.jsonl.index").unlink()
    stores = []

    def open_store():
        stores.append(ReplayStore(str(path)))

    threads = [threading.Thread(target=open_store) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert [_kept(store) for store in stores] == [kept] * 6
    assert sorted(os.listdir(tmp_path)) == ["cache.jsonl", "cache.jsonl.index"]
    assert _kept(ReplayStore(str(path))) == kept


def test_requests_are_built_and_sent_only_in_llmio():
    # llmio.call is the one place a request is built, sent and timed; the
    # backends' own delegation lives in llmio too.
    package = os.path.dirname(breadth.llmio.__file__)
    for name in sorted(os.listdir(package)):
        if name.endswith(".py") and name != "llmio.py":
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                source = fh.read()
            assert "CompletionRequest(" not in source, name
            assert ".complete(" not in source, name


# ---------------------------------------------------------------- live HTTP


def _reply(status=200, body=None, headers=None, raw_text=""):
    """A transport's answer: ``body`` as JSON, else ``raw_text``."""
    return status, headers or {}, (raw_text if body is None else json.dumps(body)).encode()


class FakeTransport:
    def __init__(self, replies):
        self.replies = list(replies)
        self.posts = []

    def __call__(self, url, body, headers, timeout):
        self.posts.append({"url": url, "json": json.loads(body), "headers": headers})
        item = self.replies.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def _ok_body(texts, prompt_tokens=7, completion_tokens=9):
    return {
        "choices": [{"index": i, "message": {"content": t}} for i, t in enumerate(texts)],
        "usage": {"prompt_tokens": prompt_tokens, "completion_tokens": completion_tokens},
    }


def _live(transport, base_url="https://example.test/v1"):
    sleeps = []
    backend = LiveBackend(
        base_url, api_key="k", transport=transport,
        limiter=TokenBucketLimiter(max_concurrent=2, requests_per_minute=6000),
        sleep=sleeps.append,
    )
    return backend, sleeps


def test_live_retries_server_errors_then_succeeds():
    transport = FakeTransport([
        _reply(500),
        _reply(503),
        _reply(body=_ok_body(["done"])),
    ])
    backend, sleeps = _live(transport)
    response = backend.complete(req(user_text="q"))
    assert response.texts == ("done",)
    assert len(transport.posts) == 3
    assert len(sleeps) == 2


def test_live_honors_retry_after_on_429():
    transport = FakeTransport([
        _reply(429, headers={"Retry-After": "2.5"}),
        _reply(body=_ok_body(["done"])),
    ])
    backend, sleeps = _live(transport)
    assert backend.complete(req(user_text="q")).texts == ("done",)
    assert sleeps == [2.5]


def test_live_waits_at_most_max_retry_after_on_429():
    # time.sleep(1e10) raises OverflowError, which no failure policy catches.
    transport = FakeTransport([
        _reply(429, headers={"Retry-After": "1e10"}),
        _reply(body=_ok_body(["done"])),
    ])
    backend, sleeps = _live(transport)
    assert backend.complete(req(user_text="q")).texts == ("done",)
    assert sleeps == [60.0] == [MAX_RETRY_AFTER]


def test_live_falls_back_to_policy_delay_when_retry_after_is_a_date():
    # RFC 9110 allows an HTTP-date in place of a number of seconds.
    transport = FakeTransport([
        _reply(429, headers={"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}),
        _reply(body=_ok_body(["done"])),
    ])
    backend, sleeps = _live(transport)
    assert backend.complete(req(user_text="q")).texts == ("done",)
    assert sleeps == [retry_delay(0)]


def test_live_reads_null_usage_as_zero():
    body = {**_ok_body(["done"]), "usage": None}
    backend, _ = _live(FakeTransport([_reply(body=body)]))
    response = backend.complete(req(user_text="q"))
    assert response.texts == ("done",)
    assert response.usage == Usage()


_UNPARSEABLE = "unparseable response body: "


@pytest.mark.parametrize("response, message", [
    (_reply(400, raw_text="bad request"), "HTTP 400: bad request"),
    (_reply(200, body=None, raw_text="not json"), _UNPARSEABLE),
    (_reply(200, body={**_ok_body(["x", "y"]), "usage": "n/a"}), _UNPARSEABLE),
    (_reply(200, body=_ok_body(["x", "y"], prompt_tokens=None)), _UNPARSEABLE),
    (_reply(200, body=_ok_body(["x", None])),
     "a choice's content is not a string"),
    # Token counts must be JSON ints >= 0, or --record would store a record
    # that replay refuses to serve.
    (_reply(200, body=_ok_body(["x", "y"], prompt_tokens="12")), _UNPARSEABLE),
    (_reply(200, body=_ok_body(["x", "y"], prompt_tokens=1.9)), _UNPARSEABLE),
    (_reply(200, body=_ok_body(["x", "y"], completion_tokens=True)),
     _UNPARSEABLE),
    (_reply(200, body=_ok_body(["x", "y"], completion_tokens=-5)),
     _UNPARSEABLE),
    # A response of too few samples (response2 once) is refused by ``call``
    # and by RecordingBackend, not here.
], ids=[f"response{i}" for i in range(10) if i != 2])
def test_live_never_retries_malformed(response, message):
    transport = FakeTransport([response, _reply(body=_ok_body(["x", "y"]))])
    backend, _ = _live(transport)
    with pytest.raises(LlmIoError, match=re.escape(message)):
        backend.complete(req(user_text="q", n_samples=2))
    assert len(transport.posts) == 1


def test_live_null_content_fails_only_its_question(tmp_path):
    # A choice whose content is null must be a malformed response, which the
    # run records as that question's failure.
    def by_text(url, body, headers, timeout):
        request = json.loads(body)
        user_text = request["messages"][-1]["content"]
        content = None if user_text.startswith("Probe 0.") else "the answer is (A)"
        return _reply(body=_ok_body([content] * request["n"]))

    questions = [mc_question(f"q{i}", f"Probe {i}. Answer Choices: (A) x (B) y", "A")
                 for i in range(2)]
    backend, _ = _live(by_text)
    record = run_experiment("toy", questions, default_config(StrategyKind.COT), backend,
                            runs_dir=str(tmp_path), run_id="null-content")
    failed, answered = record.outcomes
    assert failed.question_id == "q0" and "not a string" in failed.error
    assert answered.error is None and answered.correct and answered.trace_count == 1


def test_live_gives_up_after_bounded_attempts():
    transport = FakeTransport([_reply(500)] * 5)
    backend, _ = _live(transport)
    with pytest.raises(NetworkError):
        backend.complete(req(user_text="q"))
    assert len(transport.posts) == 4


@pytest.mark.parametrize("failure", [
    _reply(500),
    _reply(429),
], ids=["server-error", "rate-limited"])
def test_live_does_not_wait_after_its_last_attempt(failure):
    transport = FakeTransport([failure] * 4)
    backend, sleeps = _live(transport)
    with pytest.raises(NetworkError):
        backend.complete(req(user_text="q"))
    assert len(transport.posts) == 4
    assert sleeps == [0.5, 1.0, 2.0]


def test_live_wire_format():
    transport = FakeTransport([_reply(body=_ok_body(["ok"]))])
    backend, _ = _live(transport)
    backend.complete(req(user_text="question", temperature=0.8))
    post = transport.posts[0]
    assert post["url"].endswith("/chat/completions")
    assert post["headers"]["Authorization"] == "Bearer k"
    # The user message alone: no system message is sent.
    assert post["json"]["messages"] == [{"role": "user", "content": "question"}]
    assert post["json"]["temperature"] == 0.8
    assert post["json"]["n"] == 1
    assert set(post["json"]) == {"model", "messages", "temperature", "n"}


def test_each_thread_posts_over_one_kept_connection():
    with ChatServer() as server:
        backend, sleeps = _live(HttpTransport(), server.base_url)
        texts = []

        def post_25():
            texts.extend(backend.complete(req(user_text=f"q{i}")).texts for i in range(25))

        threads = [threading.Thread(target=post_25) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        assert texts == [("ok",)] * 100 and sleeps == []
        assert len(server.posts) == 100 and len(server.sockets) == 4


@pytest.mark.parametrize("wait", [True, False], ids=["while-idle", "crossing-the-request"])
def test_a_connection_the_server_closed_is_reopened_at_no_cost(wait):
    # Waiting, each close reaches the idle connection before the next
    # request; not waiting, the two may cross.
    with ChatServer(drop=True) as server:
        backend, sleeps = _live(HttpTransport(), server.base_url)
        for i in range(10):
            assert backend.complete(req(user_text=f"q{i}")).texts == ("ok",)
            if wait:
                server.wait_closed(i + 1)
        assert sleeps == [] and len(server.posts) == len(server.sockets) == 10


def test_a_refused_connection_is_retried_then_given_up():
    with socket.socket() as probe:  # a loopback port nothing listens on
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    backend, sleeps = _live(HttpTransport(), f"http://127.0.0.1:{port}/v1")
    with pytest.raises(NetworkError, match=f"gave up after {MAX_ATTEMPTS} attempts: "
                                           "ConnectionRefusedError"):
        backend.complete(req(user_text="q"))
    assert sleeps == [0.5, 1.0, 2.0]


@pytest.mark.skipif(0 <= resource.getrlimit(resource.RLIMIT_NOFILE)[0] < 1200,
                    reason="needs 1,200 open descriptors")
def test_a_kept_connection_on_a_descriptor_above_1023_is_reused():
    # select.select refused the kept socket's descriptor, so the second
    # call raised ValueError, which is no NetworkError, and ended the run.
    held = []
    try:
        held += [os.open(os.devnull, os.O_RDONLY) for _ in range(1100)]
        with ChatServer() as server:
            backend, sleeps = _live(HttpTransport(), server.base_url)
            for i in range(2):
                assert backend.complete(req(user_text=f"q{i}")).texts == ("ok",)
        assert sleeps == [] and len(server.posts) == 2 and len(server.sockets) == 1
    finally:
        for fd in held:
            os.close(fd)


@pytest.mark.parametrize("key", ["sk-secret\n", "sk-secret\r\n", "sk-\rsecret", "sk-secret\u20ac"],
                         ids=["lf", "crlf", "cr", "not-latin-1"])
def test_live_refuses_a_key_no_header_can_carry_without_naming_it(key):
    # http.client refused it at the first call, echoing the key.
    with pytest.raises(ValueError, match=API_KEY_ENV) as refused:
        LiveBackend("http://127.0.0.1:9/v1", api_key=key, transport=_no_transport)
    assert "secret" not in str(refused.value)
    assert LiveBackend("http://127.0.0.1:9/v1", api_key="sk-\xe9",
                       transport=_no_transport).api_key == "sk-\xe9"


def _no_transport(url, body, headers, timeout):
    pytest.fail("a request was sent")


def test_live_wire_format_on_the_loopback():
    with ChatServer() as server:
        backend, _ = _live(HttpTransport(), server.base_url)
        backend.complete(req(user_text="question", temperature=0.8))
    [(path, headers, body)] = server.posts
    assert path == "/v1/chat/completions"
    assert headers["Authorization"] == "Bearer k"
    assert headers["Content-Type"] == "application/json"
    assert set(json.loads(body)) == {"model", "messages", "temperature", "n"}


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
