"""The reasoning engine: :func:`run_contexts` runs every path of every
strategy kind over the path shape ``(rounds, contexts, samples)``, the
config's ``(max_iterations, n_reformulations, m_samples)``. Zero-shot, CoT
and deep CoT are one context and one sample (``cot`` is ``deep_cot`` with
one round); the breadth family (self-consistency, question/prompt
rewriting, hybrids) is one round over its contexts and samples.
:func:`run_strategy` builds a question's contexts and runs them, offline
for a dry run in :func:`plan_calls`. Every path ends in :func:`_predict`,
the one prediction step, which builds the path's trace. The engine returns only the question's
traces; :func:`vote_from_traces` is the one rule that turns them into a
final answer.

Inputs are built by pure assembly functions that concatenate their parts
with a single newline, in a fixed order:

- reasoning input:   question, prompt
- prediction input:  question, prompt, reasoning, answer trigger
- iteration input:   question, prompt, prior reasoning, prior prediction, guide

Prediction inputs for iteration round t carry only round t's reasoning;
earlier rounds' text is discarded.
"""

from __future__ import annotations

import logging
from dataclasses import replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .core import (
    Answer,
    AnswerFormat,
    BREADTH_KINDS,
    Question,
    ReasoningTrace,
    StopRule,
    StrategyConfig,
    StrategyKind,
    Usage,
    VoteResult,
)
from .extract import extract_answer, majority_vote
from .llmio import Backend, CompletionRequest, CompletionResponse, LlmIoError, call, split_usage
from .reformulate import ReformulationSpec, ReformulationTarget, Reformulations, reformulate

logger = logging.getLogger(__name__)

SEPARATOR = "\n"

# Per-format phrases appended before the prediction call to elicit a
# parseable final answer. A config's ``answer_triggers`` overrides them by
# format name.
DEFAULT_TRIGGERS: Dict[AnswerFormat, str] = {
    AnswerFormat.MULTIPLE_CHOICE: "Therefore, among A through E, the answer is",
    AnswerFormat.NUMERIC: "Therefore, the answer (arabic numerals) is",
    AnswerFormat.YES_NO: "Therefore, the answer (Yes or No) is",
    AnswerFormat.FREE_FORM: "Therefore, the answer is",
}

class StrategyError(LlmIoError):
    """A backend failure surfaced from a strategy run, tagged with the question:
    ``question <id>: <cause>``, raised from the cause."""


def answer_trigger(fmt: AnswerFormat, triggers: Optional[Mapping[str, str]] = None) -> str:
    """``fmt``'s trigger in ``triggers``, keyed by format or by value, else the default."""
    if triggers and fmt in triggers:
        return triggers[fmt]
    return DEFAULT_TRIGGERS[fmt]


def assemble_reasoning_input(question_text: str, prompt_text: str) -> str:
    """Question then prompt, newline-separated; pure and bit-exact."""
    return f"{question_text}{SEPARATOR}{prompt_text}"


def assemble_prediction_input(question_text: str, prompt_text: str,
                              reasoning_text: str, trigger: str) -> str:
    """Question, prompt, reasoning, then the answer trigger."""
    return SEPARATOR.join([question_text, prompt_text, reasoning_text, trigger])


def assemble_iteration_input(question_text: str, prompt_text: str,
                             prev_reasoning: str, prev_prediction: str,
                             guide_text: str) -> str:
    """The five refinement parts in fixed order, newline-separated."""
    return SEPARATOR.join(
        [question_text, prompt_text, prev_reasoning, prev_prediction, guide_text]
    )


def _predict(q: Question, cfg: StrategyConfig, backend: Backend, assembled: str,
             prediction_input: str, reasoning: str, usage: Usage, latency_ms: int,
             round: int, ctx: int, sample: int) -> ReasoningTrace:
    """Predict, then trace the path; ``usage`` and ``latency_ms`` are what the
    path spent before predicting."""
    response, ms = call(backend, prediction_input, cfg.temperature)
    raw_prediction = response.texts[0]
    return ReasoningTrace(
        question_id=q.id, round=round, reformulation_index=ctx, sample_index=sample,
        assembled_input=assembled, reasoning_text=reasoning,
        raw_prediction_text=raw_prediction,
        parsed=extract_answer(raw_prediction, q.answer_format, q.choices),
        usage=usage + response.usage, latency_ms=latency_ms + ms,
    )


def _build_contexts(q: Question, cfg: StrategyConfig,
                    backend: Backend) -> Tuple[List[Tuple[str, str]], Reformulations]:
    """The (question_text, prompt_text) pairs a run will explore, and the
    rewrites that made them, whose tokens and milliseconds the question is
    charged for.

    Only rewriting strategies have more than the canonical context; they keep
    the original as context 0 and rewrite the rest, of the question or of
    the prompt. A question's rewrites of either target are its own cost.
    """
    prompt_text = cfg.canonical_prompt
    kind = cfg.kind
    if kind == StrategyKind.SC or kind not in BREADTH_KINDS:
        return [(q.text, prompt_text)], Reformulations()
    question = kind in (StrategyKind.QUESTION_C, StrategyKind.QUESTION_C_SC)
    target = ReformulationTarget.QUESTION if question else ReformulationTarget.PROMPT
    spec = ReformulationSpec(target, cfg.n_reformulations, include_original=True)
    variants = reformulate(q.text if question else prompt_text, spec, backend)
    return [(v, prompt_text) if question else (q.text, v) for v in variants], variants


def _abstain_or_raise(q: Question, cfg: StrategyConfig, exc: LlmIoError, round: int,
                      ctx: int, sample: int, assembled: str, reasoning: str = "",
                      usage: Usage = Usage(), latency_ms: int = 0) -> ReasoningTrace:
    """The failure policy for a failed call, unretried here: in a breadth kind
    the path abstains, so the vote proceeds over the survivors; in any other
    kind the question fails."""
    if cfg.kind not in BREADTH_KINDS:
        raise StrategyError(f"question {q.id}: {exc}") from exc
    logger.error("question %s path (%d,%d) failed (%s); recording abstention",
                 q.id, ctx, sample, exc)
    return ReasoningTrace(
        question_id=q.id, round=round, reformulation_index=ctx, sample_index=sample,
        assembled_input=assembled, reasoning_text=reasoning, raw_prediction_text="",
        parsed=Answer.abstained(q.answer_format), usage=usage, latency_ms=latency_ms)


def run_contexts(q: Question, contexts: Sequence[Tuple[str, str]], cfg: StrategyConfig,
                 backend: Backend) -> Tuple[ReasoningTrace, ...]:
    """Run every path of one question: ``m_samples`` samples of each
    (question, prompt) context, each over ``max_iterations`` rounds.

    A context's samples come from one multi-sample reasoning call (the
    backend may batch or sequence it); sample 0 carries that call's latency,
    as it carries its prompt tokens. Zero-shot makes no reasoning call: its
    one call is the prediction. Deep CoT then refines each path for rounds
    2..T over the prior round's reasoning and prediction; a prediction sees
    only its own round's reasoning. Under the stability rule a path stops
    as soon as two consecutive rounds predict the same non-abstaining answer.
    """
    rounds, samples = cfg.max_iterations, cfg.m_samples
    trigger = answer_trigger(q.answer_format, cfg.answer_triggers)
    traces: List[ReasoningTrace] = []
    for ctx, (question_text, prompt_text) in enumerate(contexts):
        if cfg.kind == StrategyKind.ZERO_SHOT:
            assembled = assemble_reasoning_input(question_text, trigger)
            starts = [("", Usage(), 0)]
        else:
            assembled = assemble_reasoning_input(question_text, prompt_text)
            try:
                response, latency = call(backend, assembled, cfg.temperature, samples)
            except LlmIoError as exc:
                traces.extend(_abstain_or_raise(q, cfg, exc, 1, ctx, sample, assembled)
                              for sample in range(samples))
                continue
            shares = split_usage(response.usage, len(response.texts))
            starts = [(text, shares[i], latency if i == 0 else 0)
                      for i, text in enumerate(response.texts)]
        for sample, (reasoning, usage, ms) in enumerate(starts):
            path_input = assembled
            for round_index in range(1, rounds + 1):
                try:
                    if round_index > 1:
                        prior = traces[-1]
                        # From round 3 on, the last two traces are both this
                        # path's rounds; earlier they may be another path's.
                        if (round_index > 2 and cfg.stop_rule == StopRule.STABLE_STOP
                                and not prior.parsed.abstain
                                and prior.parsed == traces[-2].parsed):
                            break
                        path_input = assemble_iteration_input(
                            question_text, prompt_text, prior.reasoning_text,
                            prior.raw_prediction_text, cfg.iteration_guide or prompt_text)
                        response, ms = call(backend, path_input, cfg.temperature)
                        reasoning, usage = response.texts[0], response.usage
                    prediction_input = (
                        path_input if cfg.kind == StrategyKind.ZERO_SHOT else
                        assemble_prediction_input(question_text, prompt_text, reasoning, trigger))
                    trace = _predict(q, cfg, backend, path_input, prediction_input,
                                     reasoning, usage, ms, round_index, ctx, sample)
                except LlmIoError as exc:
                    trace = _abstain_or_raise(q, cfg, exc, round_index, ctx, sample,
                                              path_input, reasoning, usage, ms)
                traces.append(trace)
    return tuple(traces)


def vote_from_traces(traces: Sequence[ReasoningTrace]) -> VoteResult:
    """The final-answer rule: a majority vote over the last round's paths.

    Breadth paths are all round 1; a chain's last round is its one path, so
    the vote gives that path's answer. Paths vote in path-key order, not
    arrival order, so concurrent completion never changes the result.
    """
    last = max(t.round for t in traces)
    ordered = sorted((t for t in traces if t.round == last), key=ReasoningTrace.path_key)
    return majority_vote([t.parsed for t in ordered])


def run_strategy(q: Question, cfg: StrategyConfig,
                 backend: Backend) -> Tuple[ReasoningTrace, ...]:
    """Build the question's contexts, then run its paths over them. The
    first trace, sample 0 of context 0, also carries the usage and the
    milliseconds of the question's rewrite calls, as it carries a batched
    call's prompt tokens, so the traces alone hold every token and
    millisecond the question is charged for."""
    if not q.text.strip():
        logger.warning("question %s has empty text", q.id)
    try:
        contexts, rewrites = _build_contexts(q, cfg, backend)
    except (LlmIoError, ValueError) as exc:
        # A ValueError here is a text that cannot be rewritten, such as a
        # blank question: this question fails, the run goes on.
        raise StrategyError(f"question {q.id}: {exc}") from exc
    traces = run_contexts(q, contexts, cfg, backend)
    if rewrites.usage.total_tokens or rewrites.latency_ms:
        first = traces[0]
        traces = (replace(first, usage=first.usage + rewrites.usage,
                          latency_ms=first.latency_ms + rewrites.latency_ms),) + traces[1:]
    return traces


class _PlaceholderBackend(Backend):
    """Answers a dry run's calls offline, whatever their stage: sample i of the
    k-th call is ``<response k.i>``. It keeps every request, in call order."""

    deterministic = True

    def __init__(self):
        self.requests: List[CompletionRequest] = []

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        self.requests.append(req)
        k = len(self.requests)
        return CompletionResponse([f"<response {k}.{i}>" for i in range(req.n_samples)])


def plan_calls(q: Question, cfg: StrategyConfig) -> Tuple[List[CompletionRequest], int]:
    """Dry-run view: the requests a run of ``q`` sends, in call order, and
    its path count.

    It is :func:`run_strategy` over :class:`_PlaceholderBackend`, which
    makes no calls, with every round run to the cap.
    """
    backend = _PlaceholderBackend()
    traces = run_strategy(q, replace(cfg, stop_rule=StopRule.FIXED_T), backend)
    return backend.requests, len(traces)
