import contextlib
import errno
import json
import os
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from breadth.core import (
    KIND_KNOBS,
    Answer,
    AnswerFormat,
    Question,
    StopRule,
    StrategyKind,
    canonical_answer,
    default_config,
)
from breadth.extract import extract_answer

DATA_DIR = os.path.join(os.path.dirname(__file__), "data")

# Characters that JSON escapes, or that a hand-written layout might get wrong:
# quotes, backslash, control characters, DEL, non-ASCII, a line separator, an
# astral character, a lone surrogate, and a field of the request layout.
ADVERSARIAL_ALPHABET = ['', 'a', ' ', '"', '\\', '\n', '\t', '\x00', '\x1f', '\x7f', '\u00e9',
                        '\u2028', '\U0001f600', '\ud800', '"sample_batch_id":0,']


class DiskFills:
    """``os.write`` on a disk that fills up: the first call writes half of
    its bytes and says so, and every later call fails."""

    def __init__(self):
        self._write = os.write
        self._calls = 0

    def __call__(self, fd, data):
        self._calls += 1
        if self._calls > 1:
            raise OSError(errno.ENOSPC, "no space left on device")
        return self._write(fd, data[: len(data) // 2])


def descriptors_linked_to(path) -> int:
    """How many of this process's descriptors are open on ``path``; one on a
    deleted file links to ``path (deleted)``."""
    count = 0
    for fd in os.listdir("/proc/self/fd"):
        with contextlib.suppress(OSError):  # the listing's own descriptor
            count += os.readlink(f"/proc/self/fd/{fd}") in (str(path), f"{path} (deleted)")
    return count


class _ChatHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive unless the server drops
    disable_nagle_algorithm = True  # its reply's head and body are two writes

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        with self.server.changed:
            self.server.posts.append((self.path, dict(self.headers), body))
            texts = self.server.answer(json.loads(body))
        reply = json.dumps({
            "choices": [{"index": i, "message": {"content": t}} for i, t in enumerate(texts)],
            "usage": {"prompt_tokens": 7, "completion_tokens": 9},
        }).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)
        self.close_connection = self.server.drop  # with no Connection: close

    def log_message(self, *args):
        pass


class ChatServer(ThreadingHTTPServer):
    """A loopback chat-completion server answering each POST with the texts
    ``answer`` gives for its request body, by default an "ok" per sample;
    ``answer`` is called under a lock, one request at a time. It keeps each
    request's path, headers and body, and counts the connections it opened
    and closed; ``drop`` closes each one after its reply. Leaving it closes
    every connection and joins its threads."""

    def __init__(self, drop=False, answer=lambda request: ["ok"] * request["n"]):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.drop = drop
        self.answer = answer
        self.posts, self.sockets = [], []
        self.closed = 0
        self.changed = threading.Condition()
        self.thread = threading.Thread(target=self.serve_forever, args=(0.01,))
        self.thread.start()

    @property
    def base_url(self):
        return f"http://127.0.0.1:{self.server_address[1]}/v1"

    def process_request(self, request, client_address):
        with self.changed:
            self.sockets.append(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request):
        super().shutdown_request(request)
        with self.changed:
            self.closed += 1
            self.changed.notify_all()

    def wait_closed(self, count):
        with self.changed:
            assert self.changed.wait_for(lambda: self.closed >= count, timeout=10)

    def __exit__(self, *exc):
        self.shutdown()
        self.thread.join()
        for sock in self.sockets:  # wakes each handler still reading
            with contextlib.suppress(OSError):
                sock.shutdown(socket.SHUT_RDWR)
        super().__exit__(*exc)


def request_dict(request) -> dict:
    """A ``CompletionRequest`` as the object its canonical JSON encodes: the
    reference for ``sample_payloads`` and for a cache record's ``request``.
    The slots of the fields no request sets are always null."""
    return {
        "model": request.model,
        "system_text": None,
        "user_text": request.user_text,
        "temperature": request.temperature,
        "top_k": None,
        "n_samples": request.n_samples,
        "max_tokens": None,
        "sample_batch_id": request.sample_batch_id,
    }


def trace_dict(trace) -> dict:
    """A ``ReasoningTrace`` as the object its trace line encodes: the
    reference for ``ReasoningTrace.json_line``."""
    return {
        "question_id": trace.question_id,
        "round": trace.round,
        "reformulation_index": trace.reformulation_index,
        "sample_index": trace.sample_index,
        "assembled_input": trace.assembled_input,
        "reasoning_text": trace.reasoning_text,
        "raw_prediction_text": trace.raw_prediction_text,
        "parsed": trace.parsed.to_dict(),
        "usage": trace.usage.to_dict(),
        "latency_ms": trace.latency_ms,
    }


MC_TRIGGER = "Therefore, among A through E, the answer is"

TOY_SHOP_TEXT = (
    "Alex and Jacob works at a toy shop that make toys. Alex takes 7 hours to "
    "make a toy, and Jacob takes 9 hours to make a toy. During a month, both of "
    "them makes 35 toys in total. If both of them have worked for almost similar "
    "number of hours how many toys have been prepared by Jacob? "
    "Answer Choices: (A) 15 (B) 16 (C) 17 (D) 18 (E) 19"
)

SPHERE_TEXT = (
    "A rectangular solid, 3 x 4 x 15, is inscribed in a sphere, so that all "
    "eight of its vertices are on the sphere. What is the diameter of the "
    "sphere? Answer Choices: (A) 13.3542 (B) 15.8113 (C) 18.3451 (D) 19.5667 "
    "(E) 20.8888"
)


def mc_question(qid: str, text: str, gold_label: str,
                choices=(("A", ""), ("B", ""), ("C", ""), ("D", ""), ("E", ""))):
    return Question(
        id=qid, text=text, answer_format=AnswerFormat.MULTIPLE_CHOICE,
        gold=Answer(AnswerFormat.MULTIPLE_CHOICE, gold_label), choices=choices,
    )


# A value other than the field default for each knob in ``KIND_KNOBS``.
NON_DEFAULT_KNOBS = {"n_reformulations": 2, "m_samples": 2, "max_iterations": 2,
                     "stop_rule": StopRule.STABLE_STOP, "canonical_prompt": "Reason it out.",
                     "iteration_guide": "Check the last answer."}

# Every (kind, knob) pair whose knob the kind does not read.
IGNORED_KNOBS = [(kind, knob) for kind in StrategyKind for knob in NON_DEFAULT_KNOBS
                 if knob not in KIND_KNOBS[kind]]


def knob_id(value) -> str:
    return getattr(value, "value", value)


def kind_config(kind, **knobs):
    """``default_config(kind)`` with those of ``knobs`` the kind reads: how a
    test feeds one shape, such as N=M=T=3, to every kind."""
    return default_config(kind, **{k: v for k, v in knobs.items() if k in KIND_KNOBS[kind]})


@pytest.fixture
def toy_shop_question():
    return mc_question("toy-shop", TOY_SHOP_TEXT, "A",
                       choices=(("A", "15"), ("B", "16"), ("C", "17"),
                                ("D", "18"), ("E", "19")))


@pytest.fixture
def sphere_question():
    return mc_question("sphere", SPHERE_TEXT, "B",
                       choices=(("A", "13.3542"), ("B", "15.8113"), ("C", "18.3451"),
                                ("D", "19.5667"), ("E", "20.8888")))


def load_corpus():
    """The extraction corpus: JSON lines of text, format and expected answer
    (``expect`` null means the parser must abstain)."""
    with open(os.path.join(DATA_DIR, "extraction_corpus.jsonl"), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def evaluate_corpus(entries):
    """Run the extractor over a corpus; returns the mismatching entries."""
    failures = []
    for entry in entries:
        fmt = AnswerFormat(entry["format"])
        got = extract_answer(entry["text"], fmt)
        expect = entry["expect"]
        if expect is None:
            ok = got.abstain
        else:
            ok = (not got.abstain) and got == canonical_answer(expect, fmt)
        if not ok:
            failures.append({**entry, "got": got.to_dict()})
    return failures


def paper_reference_table():
    """Reference entropies (nats, 10 paths) from an open-weights study."""
    with open(os.path.join(DATA_DIR, "entropy_reference.json"), encoding="utf-8") as fh:
        return json.load(fh)["rows"]
