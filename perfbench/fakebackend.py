"""Deterministic in-process backend for the benchmark, and a counting proxy.

Every response is a pure function of (request, seed): the same request gives
the same texts, usage and simulated latency whatever the call order or
thread count. Gold answers come from a lookup of the generated questions.
Correctness follows the vote model's reasoning-plane picture: a context
(question variant plus prompt) is right with probability ``p_correct``, each
sample copies the context's draw with probability ``rho`` and draws on its
own otherwise. Refinement rounds advance a wrong path with probability
``q_advance`` and regress a right one with probability ``q_regress``.
Context and refinement draws are stratified: the uniform for context slot
``s`` of question ``i`` is ``frac(i*phi + s*psi + offset)``, and for draft
``k`` of question ``i`` it is ``frac(i*phi2 + k*psi + offset2)``, with the
offsets drawn from the seed. The share of right contexts and of advancing
paths is then exact to within about 1/N whatever the seed, so accuracy
barely moves between seeds. Seeded rates add duplicate question rewrites (which make
``reformulate`` retry) and unparseable predictions (which make paths
abstain and votes tie).

Reasoning text carries a per-sample tag, so no two reasoning samples are
equal. Equal texts would make prediction requests repeat, and a recording
cache would serve the repeats as hits and hide calls.
"""

from __future__ import annotations

import hashlib
import re
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from breadth.core import AnswerFormat, Question, Usage
from breadth.llmio import (
    BACKEND_MOCK,
    Backend,
    CompletionRequest,
    CompletionResponse,
    TokenBucketLimiter,
)
from breadth.reformulate import PROMPT_INSTRUCTION, QUESTION_INSTRUCTION
from breadth.strategy import DEFAULT_TRIGGERS

STAGES = ("rewrite", "reasoning", "prediction", "iteration")

_TRIGGERS = tuple(DEFAULT_TRIGGERS.values())
_RESULT = re.compile(r"The result is ([^.\n]*)\.")
_DRAFT = re.compile(r"Path \w+, draft (\d+):")
_VARIANT = re.compile(r" \(Restated, version (\d+)\.\)")
_PHI = 0.6180339887498949
_PHI2 = 0.7320508075688772
_PSI = 0.4142135623730951
_UNPARSEABLE = "..."


def classify_stage(user_text: str) -> str:
    """Which pipeline stage a request belongs to, read from its text."""
    if user_text.startswith((QUESTION_INSTRUCTION, PROMPT_INSTRUCTION)):
        return "rewrite"
    if user_text.endswith(_TRIGGERS):
        return "prediction"
    if _RESULT.search(user_text):
        return "iteration"
    return "reasoning"


@dataclass(frozen=True)
class FakeParams:
    """Rates and costs of the fake model; latency is base plus per token."""

    p_correct: float = 0.6
    rho: float = 0.8
    q_advance: float = 0.3
    q_regress: float = 0.1
    duplicate_rewrite_rate: float = 0.1
    unparseable_rate: float = 0.08
    base_latency_s: float = 0.0
    latency_per_token_s: float = 0.0


def _wrong(gold: str, fmt: AnswerFormat) -> str:
    if fmt == AnswerFormat.YES_NO:
        return "no" if gold == "yes" else "yes"
    # Free form: change the last letter, so the answer stays well formed.
    last = "a" if gold[-1:] != "a" else "b"
    return gold[:-1] + last


class FakeBackend(Backend):
    """Answers every stage of every strategy from a question lookup.

    With zero latency the backend is ``deterministic`` (the runner then
    zeroes wall times); with latency each call sleeps inside ``limiter``,
    the way a live client waits on the network.
    """

    MODEL = "fake-model"

    def __init__(self, questions: Sequence[Question], seed: int,
                 params: FakeParams = FakeParams(),
                 limiter: Optional[TokenBucketLimiter] = None):
        self.model = self.MODEL
        self.seed = seed
        self.params = params
        self.limiter = limiter
        self.deterministic = params.base_latency_s == 0 and params.latency_per_token_s == 0
        self._by_text: Dict[str, tuple] = {q.text: (i, q) for i, q in enumerate(questions)}
        self._offset, self._offset2 = self._uniforms("offset")[:2]
        self._lock = threading.Lock()
        self.calls = 0
        self.duplicates_emitted = 0
        self.stage_calls = {s: 0 for s in STAGES}
        self.limiter_wait_s = 0.0

    # -- pure response model -------------------------------------------------

    def _uniforms(self, *parts) -> tuple:
        key = "\x1f".join(str(p) for p in (self.seed,) + parts).encode("utf-8")
        digest = hashlib.blake2b(key, digest_size=16).digest()
        return tuple(int.from_bytes(digest[i:i + 4], "little") / 2 ** 32
                     for i in range(0, 16, 4))

    def _tag(self, *parts) -> str:
        key = "\x1f".join(str(p) for p in (self.seed,) + parts).encode("utf-8")
        return hashlib.blake2b(key, digest_size=6).hexdigest()

    def _question(self, text: str) -> tuple:
        """(pool index, question) for a request whose first line is a
        question or one of its rewrites."""
        first_line = text.split("\n", 1)[0]
        found = self._by_text.get(first_line) or self._by_text.get(_VARIANT.sub("", first_line))
        if found is None:
            raise KeyError(f"fake backend: unknown question {first_line[:80]!r}")
        return found

    def _answer(self, q: Question, correct: bool) -> str:
        return q.gold.value if correct else _wrong(q.gold.value, q.answer_format)

    def _reasoning(self, tag: str, draft: int, answer: str) -> str:
        return (f"Path {tag}, draft {draft}: read the question again and track "
                f"each step in order, checking every step against the one before. "
                f"The result is {answer}.")

    def _rewrite(self, req: CompletionRequest, index: int) -> str:
        stem = req.user_text.split("\n", 1)[1]
        u = self._uniforms("rewrite", req.user_text, index)
        if u[0] < self.params.duplicate_rewrite_rate:
            return stem
        return f"{stem} (Restated, version {index}.)"

    def _reasoning_sample(self, text: str, index: int) -> str:
        p = self.params
        position, q = self._question(text)
        variant = _VARIANT.search(text)
        slot = int(variant.group(1)) + 1 if variant else 0
        context_u = (position * _PHI + slot * _PSI + self._offset) % 1.0
        context_right = context_u < p.p_correct
        u = self._uniforms("sample", text, index)
        correct = context_right if u[0] < p.rho else u[1] < p.p_correct
        return self._reasoning(self._tag("reasoning", text, index), 1,
                               self._answer(q, correct))

    def _iteration_sample(self, text: str, index: int) -> str:
        p = self.params
        position, q = self._question(text)
        was_right = _RESULT.search(text).group(1) == q.gold.value
        draft = int(_DRAFT.search(text).group(1)) + 1
        u = (position * _PHI2 + draft * _PSI + self._offset2) % 1.0
        correct = (u >= p.q_regress) if was_right else (u < p.q_advance)
        return self._reasoning(self._tag("iteration", text, index), draft,
                               self._answer(q, correct))

    def _prediction(self, text: str, index: int) -> str:
        if self._uniforms("prediction", text, index)[0] < self.params.unparseable_rate:
            return _UNPARSEABLE
        answer = _RESULT.findall(text)[-1]
        return f"Therefore, the answer is {answer}."

    def respond(self, req: CompletionRequest) -> tuple:
        """(stage, texts) for a request; no side effects."""
        stage = classify_stage(req.user_text)
        first = req.sample_batch_id
        indices = range(first, first + req.n_samples)
        if stage == "rewrite":
            texts = [self._rewrite(req, i) for i in indices]
        elif stage == "reasoning":
            texts = [self._reasoning_sample(req.user_text, i) for i in indices]
        elif stage == "iteration":
            texts = [self._iteration_sample(req.user_text, i) for i in indices]
        else:
            texts = [self._prediction(req.user_text, i) for i in indices]
        return stage, texts

    # -- Backend interface ---------------------------------------------------

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        stage, texts = self.respond(req)
        usage = Usage(len(req.user_text.split()), sum(len(t.split()) for t in texts))
        delay = self.params.base_latency_s + self.params.latency_per_token_s * usage.completion_tokens
        waited = 0.0
        if delay > 0:
            if self.limiter is not None:
                started = time.perf_counter()
                with self.limiter:
                    waited = time.perf_counter() - started
                    time.sleep(delay)
            else:
                time.sleep(delay)
        duplicates = 0
        if stage == "rewrite":
            stem = req.user_text.split("\n", 1)[1]
            duplicates = sum(1 for t in texts if t == stem)
        with self._lock:
            self.calls += 1
            self.duplicates_emitted += duplicates
            self.stage_calls[stage] += 1
            self.limiter_wait_s += waited
        return CompletionResponse(texts=tuple(texts), usage=usage, backend=BACKEND_MOCK)


class CountingBackend(Backend):
    """The backend object handed to ``run_experiment``: counts the requests
    made to it and the tokens in its responses, then delegates."""

    def __init__(self, inner: Backend):
        self.inner = inner
        self.model = inner.model
        self.deterministic = inner.deterministic
        self._lock = threading.Lock()
        self.calls = 0
        self.samples = 0
        self.tokens = 0

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        response = self.inner.complete(req)
        with self._lock:
            self.calls += 1
            self.samples += req.n_samples
            self.tokens += response.usage.total_tokens
        return response
