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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Dict, List, Optional, Sequence

from .core import Answer, Question, StrategyConfig, StrategyKind
from .extract import EmptyInputError
from .llmio import Backend
from .reformulate import PROMPT_BANK, prompt_bank
from .strategy import StrategyError, run_contexts, run_strategy

logger = logging.getLogger(__name__)

SAMPLING_TEMPERATURE = 0.8
REWORDING_TEMPERATURE = 1.0

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
        aliases = {
            "question": cls.QUESTION_REWORDING,
            "question_rewording": cls.QUESTION_REWORDING,
            "prompt": cls.PROMPT_REWORDING,
            "prompt_rewording": cls.PROMPT_REWORDING,
            "llms": cls.MODEL_PERTURBATION,
            "model": cls.MODEL_PERTURBATION,
            "model_perturbation": cls.MODEL_PERTURBATION,
            "sampling": cls.SAMPLING,
        }
        key = name.strip().lower().replace("-", "_")
        if key not in aliases:
            raise ValueError(f"unknown factor {name!r}")
        return aliases[key]


@dataclass(frozen=True)
class FactorSpec:
    """One diversity factor and the number of paths it should generate."""

    factor: Factor
    k_paths: int = 10

    def __post_init__(self):
        if self.k_paths < 1:
            raise ValueError("k_paths must be >= 1")
        if self.factor == Factor.PROMPT_REWORDING and self.k_paths > len(PROMPT_BANK):
            raise ValueError(f"prompt factor supports at most {len(PROMPT_BANK)} paths, "
                             f"got {self.k_paths}")


def prediction_entropy(answers: Sequence[Answer]) -> float:
    """Shannon entropy in nats over canonical-answer frequencies.

    Abstentions are one shared outcome class. Bounded by ln(len(answers)).
    """
    if not answers:
        raise EmptyInputError("prediction_entropy needs at least one answer")
    classes = Counter(
        ("abstain",) if a.abstain else (a.kind.value, a.value) for a in answers
    )
    total = sum(classes.values())
    entropy = 0.0
    for count in classes.values():
        p = count / total
        entropy -= p * math.log(p)
    return entropy


@dataclass(frozen=True)
class FactorResult:
    """Per-factor outcome over a question subset. A question whose run
    failed is in ``failed``, not in ``per_question``; with none left, both
    entropies are None."""

    factor: Factor
    entropy_nats: Optional[float]  # mean of per-question entropies
    pooled_entropy_nats: Optional[float]  # entropy of all predictions pooled
    per_question: Dict[str, List[Answer]] = field(default_factory=dict)
    failed: tuple = ()  # ids of the questions whose run failed


@dataclass(frozen=True)
class FactorStudyReport:
    dataset: str
    results: Dict[Factor, FactorResult]


def _factor_answers(q: Question, spec: FactorSpec, cfg: StrategyConfig,
                    backend: Backend) -> List[Answer]:
    k = spec.k_paths
    if spec.factor == Factor.QUESTION_REWORDING:
        traces = run_strategy(q, replace(cfg, kind=StrategyKind.QUESTION_C, n_reformulations=k,
                                         temperature=REWORDING_TEMPERATURE), backend)
    elif spec.factor == Factor.PROMPT_REWORDING:
        run_cfg = replace(cfg, kind=StrategyKind.PROMPT_C, n_reformulations=k,
                          temperature=REWORDING_TEMPERATURE)
        traces = run_contexts(q, [(q.text, p) for p in prompt_bank()[:k]], run_cfg, backend)
    else:  # sampling; run_factor_study skips model perturbation
        traces = run_strategy(q, replace(cfg, kind=StrategyKind.SC, m_samples=k,
                                         temperature=SAMPLING_TEMPERATURE), backend)
    return [t.parsed for t in traces]


def run_factor_study(dataset: str, questions: Sequence[Question],
                     factors: Sequence[FactorSpec], cfg: StrategyConfig,
                     backend: Backend) -> FactorStudyReport:
    """Generate per-factor prediction multisets over a question subset and
    report mean per-question entropy (plus pooled entropy for audit). A
    question whose run fails is left out of its factor's entropies and
    counted in ``failed``; the study goes on.

    Model perturbation cannot run through an API client: it is skipped, with
    no calls, and :func:`report_to_csv` tags it ``unsupported``.
    """
    if not questions:
        raise EmptyInputError("factor study needs at least one question")
    results: Dict[Factor, FactorResult] = {}
    for spec in factors:
        if spec.factor == Factor.MODEL_PERTURBATION:
            continue
        per_question: Dict[str, List[Answer]] = {}
        failed: List[str] = []
        for q in questions:
            try:
                per_question[q.id] = _factor_answers(q, spec, cfg, backend)
            except StrategyError as exc:
                logger.error("%s factor: %s; leaving the question out", spec.factor.value, exc)
                failed.append(q.id)
        entropies = [prediction_entropy(a) for a in per_question.values()]
        pooled = [a for answers in per_question.values() for a in answers]
        results[spec.factor] = FactorResult(
            factor=spec.factor,
            entropy_nats=sum(entropies) / len(entropies) if entropies else None,
            pooled_entropy_nats=prediction_entropy(pooled) if pooled else None,
            per_question=per_question,
            failed=tuple(failed),
        )
    return FactorStudyReport(dataset=dataset, results=results)


def report_to_csv(reports: Sequence[FactorStudyReport], factors: Sequence[Factor]) -> str:
    """Rows are datasets, columns are ``factors``; unsupported factors render
    as a tag, and a factor with no result or no surviving question as an
    empty cell. A footer documents the out-of-scope perturbation setup and,
    for each factor with failed questions, how many failed."""
    lines = ["dataset," + ",".join(f.value for f in factors)]
    failures = []
    for report in reports:
        cells = [report.dataset]
        for f in factors:
            result = report.results.get(f)
            if f == Factor.MODEL_PERTURBATION and result is None:
                cells.append("unsupported")
            elif result is not None and result.entropy_nats is not None:
                cells.append(f"{result.entropy_nats:.4f}")
            else:
                cells.append("")
            if result is not None and result.failed:
                total = len(result.failed) + len(result.per_question)
                failures.append(f"# {f.value}: {len(result.failed)} of {total} questions failed")
        lines.append(",".join(cells))
    lines.append(f"# {UNSUPPORTED_FACTOR_NOTE}")
    return "\n".join(lines + failures) + "\n"
