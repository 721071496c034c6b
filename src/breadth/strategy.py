"""The reasoning engine: :func:`run_contexts` runs every path of every
strategy kind over the path shape ``(rounds, contexts, samples)`` of
:func:`path_shape`. Zero-shot, CoT and deep CoT are one context and one
sample (``cot`` is ``deep_cot`` with one round); the breadth family
(self-consistency, question/prompt rewriting, hybrids) is one round over
its contexts and samples. :func:`run_strategy` builds a question's contexts
and runs them. Every path ends in :func:`_predict`, the one prediction step,
which builds the path's trace. The engine returns only the question's
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
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

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
from .llmio import Backend, LlmIoError, call, split_usage
from .reformulate import ReformulationSpec, ReformulationTarget, reformulate

logger = logging.getLogger(__name__)

SEPARATOR = "\n"

# Per-format phrases appended before the prediction call to elicit a
# parseable final answer. Overridable via run config.
DEFAULT_TRIGGERS: Dict[AnswerFormat, str] = {
    AnswerFormat.MULTIPLE_CHOICE: "Therefore, among A through E, the answer is",
    AnswerFormat.NUMERIC: "Therefore, the answer (arabic numerals) is",
    AnswerFormat.YES_NO: "Therefore, the answer (Yes or No) is",
    AnswerFormat.FREE_FORM: "Therefore, the answer is",
}

class StrategyError(LlmIoError):
    """A backend failure surfaced from a strategy run, tagged with the question."""

    def __init__(self, question_id: str, cause: Exception):
        super().__init__(f"question {question_id}: {cause}")
        self.question_id = question_id
        self.cause = cause


def answer_trigger(fmt: AnswerFormat,
                   triggers: Optional[Mapping[AnswerFormat, str]] = None) -> str:
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


def assemble_zero_shot_input(question_text: str, trigger: str) -> str:
    return f"{question_text}{SEPARATOR}{trigger}"


def path_shape(cfg: StrategyConfig) -> Tuple[int, int, int]:
    """The path-count law as ``(rounds, contexts, samples_per_context)``.

    Depth iterates one context; self-consistency samples one context;
    rewriting strategies explore ``n_reformulations`` contexts, and the
    hybrids sample each of them ``m_samples`` times.
    """
    kind = cfg.kind
    rounds = cfg.max_iterations if kind == StrategyKind.DEEP_COT else 1
    contexts = (cfg.n_reformulations
                if kind in BREADTH_KINDS and kind != StrategyKind.SC else 1)
    samples = cfg.m_samples if kind in (
        StrategyKind.SC, StrategyKind.QUESTION_C_SC, StrategyKind.PROMPT_C_SC) else 1
    return rounds, contexts, samples


def expected_trace_count(cfg: StrategyConfig) -> int:
    """How many traces a config must produce.

    Deep CoT may stop early under the stability rule, so for ``deep_cot``
    this is the upper bound (exact under a fixed iteration count).
    """
    rounds, contexts, samples = path_shape(cfg)
    return rounds * contexts * samples


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


Reformulator = Callable[..., List[str]]


def _build_contexts(q: Question, cfg: StrategyConfig, backend: Backend,
                    reformulator: Reformulator) -> List[Tuple[str, str]]:
    """The (question_text, prompt_text) pairs a run will explore.

    Only rewriting strategies have more than the canonical context; they keep
    the original as context 0 and rewrite the rest.
    """
    prompt_text = cfg.canonical_prompt
    kind = cfg.kind
    if kind == StrategyKind.SC or kind not in BREADTH_KINDS:
        return [(q.text, prompt_text)]
    _, n_contexts, _ = path_shape(cfg)
    if kind in (StrategyKind.QUESTION_C, StrategyKind.QUESTION_C_SC):
        spec = ReformulationSpec(ReformulationTarget.QUESTION, n_contexts, include_original=True)
        return [(v, prompt_text) for v in reformulator(q.text, spec, backend)]
    spec = ReformulationSpec(ReformulationTarget.PROMPT, n_contexts, include_original=True)
    return [(q.text, v) for v in reformulator(prompt_text, spec, backend)]


def _abstain_or_raise(q: Question, cfg: StrategyConfig, exc: LlmIoError, round: int,
                      ctx: int, sample: int, assembled: str, reasoning: str = "",
                      usage: Usage = Usage(), latency_ms: int = 0) -> ReasoningTrace:
    """The failure policy for a failed call, unretried here: in a breadth kind
    the path abstains, so the vote proceeds over the survivors; in any other
    kind the question fails."""
    if cfg.kind not in BREADTH_KINDS:
        raise StrategyError(q.id, exc) from exc
    logger.error("question %s path (%d,%d) failed (%s); recording abstention",
                 q.id, ctx, sample, exc)
    return ReasoningTrace(
        question_id=q.id, round=round, reformulation_index=ctx, sample_index=sample,
        assembled_input=assembled, reasoning_text=reasoning, raw_prediction_text="",
        parsed=Answer.abstained(q.answer_format), usage=usage, latency_ms=latency_ms)


def run_contexts(q: Question, contexts: Sequence[Tuple[str, str]], cfg: StrategyConfig,
                 backend: Backend, triggers: Optional[Mapping[AnswerFormat, str]] = None,
                 ) -> Tuple[ReasoningTrace, ...]:
    """Run every path of one question, over :func:`path_shape`'s samples and
    rounds for each (question, prompt) context.

    A context's samples come from one multi-sample reasoning call (the
    backend may batch or sequence it); sample 0 carries that call's latency,
    as it carries its prompt tokens. Zero-shot makes no reasoning call: its
    one call is the prediction. Deep CoT then refines each path for rounds
    2..T over the prior round's reasoning and prediction; a prediction sees
    only its own round's reasoning. Under the stability rule a path stops
    as soon as two consecutive rounds predict the same non-abstaining answer.
    """
    rounds, _, samples = path_shape(cfg)
    trigger = answer_trigger(q.answer_format, triggers)
    traces: List[ReasoningTrace] = []
    for ctx, (question_text, prompt_text) in enumerate(contexts):
        if cfg.kind == StrategyKind.ZERO_SHOT:
            assembled = assemble_zero_shot_input(question_text, trigger)
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


def run_strategy(q: Question, cfg: StrategyConfig, backend: Backend,
                 triggers: Optional[Mapping[AnswerFormat, str]] = None,
                 ) -> Tuple[ReasoningTrace, ...]:
    """Build the question's contexts, then run its paths over them."""
    if not q.text.strip():
        logger.warning("question %s has empty text", q.id)
    try:
        contexts = _build_contexts(q, cfg, backend, reformulate)
    except (LlmIoError, ValueError) as exc:
        # A ValueError here is a text that cannot be rewritten, such as a
        # blank question: this question fails, the run goes on.
        raise StrategyError(q.id, exc) from exc
    return run_contexts(q, contexts, cfg, backend, triggers)


def _placeholder_rewrites(text: str, spec: ReformulationSpec, backend) -> List[str]:
    return [text] + [f"<{spec.target.value} rewrite #{i}>"
                     for i in range(1, spec.n_variants)]


def plan_paths(q: Question, cfg: StrategyConfig,
               triggers: Optional[Mapping[AnswerFormat, str]] = None) -> List[dict]:
    """Dry-run view: the paths a run would take, with assembled inputs.

    Rewritten contexts are shown with placeholder text since producing them
    needs backend calls.
    """
    if cfg.kind == StrategyKind.ZERO_SHOT:
        trigger = answer_trigger(q.answer_format, triggers)
        return [{"round": 1, "reformulation_index": 0, "sample_index": 0,
                 "input": assemble_zero_shot_input(q.text, trigger)}]
    rounds, _, per_context = path_shape(cfg)
    contexts = _build_contexts(q, cfg, None, _placeholder_rewrites)
    plans = [{"round": 1, "reformulation_index": i, "sample_index": j,
              "input": assemble_reasoning_input(qt, pt)}
             for i, (qt, pt) in enumerate(contexts) for j in range(per_context)]
    prompt_text = cfg.canonical_prompt
    for r in range(2, rounds + 1):
        plans.append({
            "round": r, "reformulation_index": 0, "sample_index": 0,
            "input": assemble_iteration_input(
                q.text, prompt_text, f"<round {r - 1} reasoning>",
                f"<round {r - 1} prediction>",
                cfg.iteration_guide or prompt_text),
        })
    return plans
