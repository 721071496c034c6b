"""Diversity factor study: how much do question rewording, prompt rewording,
model perturbation, and sampling each spread the predictions?

Diversity is measured as Shannon entropy (natural log) of the prediction
multiset per question; abstentions form their own outcome class so failed
parses register as diversity rather than silence. The model-perturbation
factor exists only as a tag: it needs direct weight access (a noisy final
linear layer, noise std 0.010-0.020 in 0.001 steps) and cannot run through
an API client.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence

from .core import Answer, Question, StrategyConfig, StrategyKind, default_config
from .llmio import Backend
from .reformulate import PROMPT_BANK
from .strategy import StrategyError, run_strategy

logger = logging.getLogger(__name__)

UNSUPPORTED_FACTOR_NOTE = (
    "model_perturbation requires replacing the final linear layer with a noisy "
    "one (std 0.010-0.020, step 0.001) on open weights; unsupported here"
)


class Factor(str, Enum):
    QUESTION_REWORDING = "question"
    PROMPT_REWORDING = "prompt"
    MODEL_PERTURBATION = "llms"
    SAMPLING = "sampling"

    @classmethod
    def parse(cls, name: str) -> "Factor":
        aliases = {**{f.value: f for f in cls}, **{f.name.lower(): f for f in cls},
                   "model": cls.MODEL_PERTURBATION}
        key = name.strip().lower().replace("-", "_")
        if key not in aliases:
            raise ValueError(f"unknown factor {name!r}")
        return aliases[key]


def prediction_entropy(answers: Sequence[Answer]) -> float:
    """Shannon entropy in nats over the frequencies of equal answers.

    Abstentions are one shared outcome class. Bounded by ln(len(answers)).
    """
    if not answers:
        raise ValueError("prediction_entropy needs at least one answer")
    entropy = 0.0
    for count in Counter(None if a.abstain else a for a in answers).values():
        p = count / len(answers)
        entropy -= p * math.log(p)
    return entropy


@dataclass(frozen=True)
class FactorResult:
    """Per-factor outcome over a question subset. A question whose run
    failed is in ``failed``, not in ``per_question``; with none left, the
    entropy is None."""

    entropy_nats: Optional[float]  # mean of per-question entropies
    per_question: Dict[str, List[Answer]] = field(default_factory=dict)
    failed: tuple = ()  # ids of the questions whose run failed


def factor_configs(factor: Factor, k: int) -> List[StrategyConfig]:
    """The configs whose paths, pooled per question, are the factor's ``k``
    predictions, each at its kind's defaults. Model perturbation has none."""
    if factor == Factor.QUESTION_REWORDING:
        return [default_config(StrategyKind.QUESTION_C, n_reformulations=k)]
    if factor == Factor.SAMPLING:
        return [default_config(StrategyKind.SC, m_samples=k)]
    if factor == Factor.PROMPT_REWORDING:
        # One single-sample path per prompt, at a promptc context's temperature.
        temperature = default_config(StrategyKind.PROMPT_C).temperature
        return [default_config(StrategyKind.SC, m_samples=1, canonical_prompt=prompt,
                               temperature=temperature) for prompt in PROMPT_BANK[:k]]
    return []


def check_study(questions: Sequence[Question], factors: Sequence[Factor], k: int) -> None:
    """Refuse a study that cannot run: no questions, a question id given
    twice (predictions are kept by id), ``k`` below 1, or a prompt factor
    with more paths than the prompt bank holds."""
    if not questions:
        raise ValueError("factor study needs at least one question")
    repeated = sorted(qid for qid, n in Counter(q.id for q in questions).items() if n > 1)
    if repeated:
        raise ValueError(f"question id {', '.join(repeated)} is given more than once")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if Factor.PROMPT_REWORDING in factors and k > len(PROMPT_BANK):
        raise ValueError(f"prompt factor supports at most {len(PROMPT_BANK)} paths, got {k}")


def run_factor_study(questions: Sequence[Question], factors: Sequence[Factor], k: int,
                     backend: Backend) -> Dict[Factor, FactorResult]:
    """Generate each factor's ``k`` predictions per question, through
    :func:`run_strategy` over :func:`factor_configs`, and report mean
    per-question entropy. A failed path abstains; a question whose run
    fails, as when its rewrite does, is left out of its factor's entropy and
    counted in ``failed``, and the study goes on. :func:`check_study` runs
    before any factor does.

    Model perturbation cannot run through an API client: it is skipped, with
    no calls, and :func:`report_to_csv` tags it ``unsupported``.
    """
    check_study(questions, factors, k)
    results: Dict[Factor, FactorResult] = {}
    for factor in factors:
        configs = factor_configs(factor, k)
        if not configs:
            continue
        per_question: Dict[str, List[Answer]] = {}
        failed: List[str] = []
        for q in questions:
            try:
                per_question[q.id] = [trace.parsed for cfg in configs
                                      for trace in run_strategy(q, cfg, backend)]
            except StrategyError as exc:
                logger.error("%s factor: %s; leaving the question out", factor.value, exc)
                failed.append(q.id)
        entropies = [prediction_entropy(a) for a in per_question.values()]
        results[factor] = FactorResult(
            entropy_nats=sum(entropies) / len(entropies) if entropies else None,
            per_question=per_question,
            failed=tuple(failed),
        )
    return results


def report_to_csv(dataset: str, results: Dict[Factor, FactorResult],
                  factors: Sequence[Factor]) -> str:
    """One row, labelled ``dataset``, of the :func:`run_factor_study`
    ``results``, whose columns are ``factors``; the label is written as it
    is. Unsupported factors render as a tag, and a factor with no result or
    no surviving question as an empty cell. A footer documents the
    out-of-scope perturbation setup and, for each factor with failed
    questions, how many failed."""
    cells, failures = [dataset], []
    for f in factors:
        result = results.get(f)
        if f == Factor.MODEL_PERTURBATION and result is None:
            cells.append("unsupported")
        elif result is not None and result.entropy_nats is not None:
            cells.append(f"{result.entropy_nats:.4f}")
        else:
            cells.append("")
        if result is not None and result.failed:
            total = len(result.failed) + len(result.per_question)
            failures.append(f"# {f.value}: {len(result.failed)} of {total} questions failed")
    return "\n".join(["dataset," + ",".join(f.value for f in factors), ",".join(cells),
                      f"# {UNSUPPORTED_FACTOR_NOTE}", *failures]) + "\n"
