"""The reasoning engine: :func:`run_strategy` runs every path of one
question, of every strategy kind, over the path shape ``(rounds, contexts,
samples)``, the config's ``(max_iterations, n_reformulations, m_samples)``.

- Contexts: (question, prompt) pairs. Every kind has the original question
  and canonical prompt as context 0; the rewriting kinds rewrite the rest,
  of the question (``questionc*``) or of the prompt (``promptc*``).
- Paths: each context makes one multi-sample reasoning call, a sample per
  path (zero-shot makes none). Deep CoT refines each path for rounds 2..T
  over its prior round's reasoning and prediction, and every round ends in
  a prediction call and a trace. ``cot`` is ``deep_cot`` with one round;
  the breadth family is one round over its contexts and samples.
- Failure policy: a failed call is not retried here. In a breadth kind its
  path abstains, with the usage and milliseconds it had already spent, and
  the vote proceeds over the survivors; in any other kind, or when the
  rewrite fails, the question fails with :class:`StrategyError`.
- Stable stop: under ``StopRule.STABLE_STOP`` a path stops as soon as two
  of its consecutive rounds predict the same non-abstaining answer.
- Cost: each path starts from its sample's share of the reasoning call,
  as :func:`~breadth.llmio.call` splits it (sample 0 carries the call's
  prompt tokens and milliseconds), and sample 0 of context 0 also carries
  the tokens and milliseconds of the question's rewrites. So the traces
  alone hold everything the question is charged for.

The engine returns only the question's traces; :func:`vote_from_traces` is
the one rule that turns them into a final answer, and :func:`plan_calls`
runs the engine offline for a dry run.

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
from .llmio import Backend, CompletionRequest, CompletionResponse, LlmIoError, call
from .reformulate import ReformulationSpec, ReformulationTarget, reformulate

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


def vote_from_traces(traces: Sequence[ReasoningTrace]) -> VoteResult:
    """The final-answer rule: a majority vote over the last round's paths.

    Breadth paths are all round 1; a chain's last round is its one path, so
    the vote gives that path's answer. Paths vote in path-key order, not
    arrival order, so concurrent completion never changes the result.
    """
    last = max([t.round for t in traces])
    ordered = sorted([t for t in traces if t.round == last], key=ReasoningTrace.path_key)
    return majority_vote([t.parsed for t in ordered])


def run_strategy(q: Question, cfg: StrategyConfig,
                 backend: Backend) -> Tuple[ReasoningTrace, ...]:
    """Run every path of one question, as the module docstring sets out, and
    return their traces by context, then sample, then round."""
    if not q.text.strip():
        logger.warning("question %s has empty text", q.id)
    kind, prompt_text = cfg.kind, cfg.canonical_prompt
    contexts = [(q.text, prompt_text)]
    rewrites = None
    if kind in BREADTH_KINDS and kind != StrategyKind.SC:
        question = kind in (StrategyKind.QUESTION_C, StrategyKind.QUESTION_C_SC)
        target = ReformulationTarget.QUESTION if question else ReformulationTarget.PROMPT
        spec = ReformulationSpec(target, cfg.n_reformulations, include_original=True)
        try:
            rewrites = reformulate(q.text if question else prompt_text, spec, backend)
        except (LlmIoError, ValueError) as exc:
            # A ValueError here is a text that cannot be rewritten, such as a
            # blank question: this question fails, the run goes on.
            raise StrategyError(f"question {q.id}: {exc}") from exc
        contexts = [(v, prompt_text) if question else (q.text, v) for v in rewrites]
    zero_shot = kind == StrategyKind.ZERO_SHOT
    stable = cfg.stop_rule == StopRule.STABLE_STOP
    rounds, samples, temperature = cfg.max_iterations, cfg.m_samples, cfg.temperature
    trigger = answer_trigger(q.answer_format, cfg.answer_triggers)
    traces: List[ReasoningTrace] = []
    for ctx, (question_text, prompt_text) in enumerate(contexts):
        assembled = assemble_reasoning_input(question_text, trigger if zero_shot else prompt_text)
        failure: Optional[LlmIoError] = None
        # Each path starts from its sample of the context's one reasoning call.
        if zero_shot:
            starts = [("", Usage(), 0)]
        else:
            try:
                starts = call(backend, assembled, temperature, samples)
            except LlmIoError as exc:
                failure = exc
                starts = [("", Usage(), 0)] * samples
        if ctx == 0 and rewrites is not None:
            reasoning, usage, ms = starts[0]
            starts[0] = (reasoning, usage + rewrites.usage, ms + rewrites.latency_ms)
        for sample, (reasoning, usage, ms) in enumerate(starts):
            path_input, error, prior = assembled, failure, None
            for round_index in range(1, rounds + 1):
                raw = ""
                if error is None:
                    try:
                        if round_index > 1:
                            path_input = assemble_iteration_input(
                                question_text, prompt_text, prior.reasoning_text,
                                prior.raw_prediction_text, cfg.iteration_guide or prompt_text)
                            [(reasoning, usage, ms)] = call(backend, path_input, temperature)
                        [(raw, predict_usage, predict_ms)] = call(
                            backend, path_input if zero_shot else
                            assemble_prediction_input(question_text, prompt_text, reasoning, trigger),
                            temperature)
                    except LlmIoError as exc:
                        error = exc
                    else:
                        parsed = extract_answer(raw, q.answer_format, q.choices)
                        usage, ms = usage + predict_usage, ms + predict_ms
                if error is not None:  # the failure policy
                    if kind not in BREADTH_KINDS:
                        raise StrategyError(f"question {q.id}: {error}") from error
                    logger.error("question %s path (%d,%d) failed (%s); recording abstention",
                                 q.id, ctx, sample, error)
                    parsed = Answer.abstained(q.answer_format)
                trace = ReasoningTrace(q.id, round_index, ctx, sample, path_input, reasoning,
                                       raw, parsed, usage, ms)
                traces.append(trace)
                # The stable stop: this round predicts what the path's previous one did.
                if (stable and prior is not None and not parsed.abstain
                        and parsed == prior.parsed):
                    break
                prior = trace
    return tuple(traces)


class _PlaceholderBackend(Backend):
    """Answers a dry run's calls offline, whatever their stage: sample i of the
    k-th call is ``<response k.i>``. It keeps every request, in call order."""

    deterministic = True

    def __init__(self):
        self.requests: List[CompletionRequest] = []

    def complete(self, req: CompletionRequest) -> CompletionResponse:
        self.requests.append(req)
        k = len(self.requests)
        return CompletionResponse(tuple([f"<response {k}.{i}>" for i in range(req.n_samples)]))


def plan_calls(q: Question, cfg: StrategyConfig) -> Tuple[List[CompletionRequest], int]:
    """Dry-run view: the requests a run of ``q`` sends, in call order, and
    its path count.

    It is :func:`run_strategy` over :class:`_PlaceholderBackend`, which
    makes no calls, with every round run to the cap.
    """
    backend = _PlaceholderBackend()
    traces = run_strategy(q, replace(cfg, stop_rule=StopRule.FIXED_T), backend)
    return backend.requests, len(traces)
