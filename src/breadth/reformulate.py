"""Semantic-preserving rewrites of questions and prompts, plus the fixed
ten-prompt bank used by the prompt-rewording diversity factor.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from enum import Enum

from .core import CANONICAL_COT_PROMPT, Usage
from .llmio import Backend, call

logger = logging.getLogger(__name__)

QUESTION_INSTRUCTION = (
    "Significantly rephrase the following question to change its wording and "
    "structure while maintaining the same meaning and intent. Ensure that the "
    "core problem remains unchanged."
)
PROMPT_INSTRUCTION = (
    "Rephrase the following sentence to change its wording and structure while "
    "maintaining the same meaning. Ensure the core sentence remains unchanged."
)

# Fixed bank of alternative reasoning triggers, in canonical order (1..10).
PROMPT_BANK = (
    "Here are the steps we can follow to achieve our goal.",
    "How about we break it down into smaller parts?",
    "How would you like to approach this situation in a methodical manner?",
    "Let's break down the problem into smaller parts and tackle each one separately.",
    "Here are some thoughtful steps to consider.",
    "Let's take it one step at a time.",
    "Let's take a thoughtful approach.",
    "In a systematic approach, let's work through the following stages.",
    "In a systematic manner, let us consider each detail.",
    CANONICAL_COT_PROMPT,
)

_DEDUP_RETRIES = 2
_CHOICES_SPLIT = re.compile(r"\n?Answer Choices:", re.IGNORECASE)


class ReformulationTarget(str, Enum):
    QUESTION = "question"
    PROMPT = "prompt"


@dataclass(frozen=True)
class ReformulationSpec:
    """How many rewrites of which target to produce.

    ``n_variants`` counts the returned list, including the original when
    ``include_original`` is set.
    """

    target: ReformulationTarget
    n_variants: int
    include_original: bool = False

    def __post_init__(self):
        if self.n_variants < 1:
            raise ValueError("n_variants must be >= 1")

    def instruction(self) -> str:
        if self.target == ReformulationTarget.QUESTION:
            return QUESTION_INSTRUCTION
        return PROMPT_INSTRUCTION


class Reformulations(list):
    """What :func:`reformulate` returns: the variants, a list of strings,
    with ``usage`` and ``latency_ms``, the tokens and milliseconds of every
    rewrite call that made them, retries included. It is a list, so a caller
    that wants only the variants reads it as one."""

    usage = Usage()
    latency_ms = 0


def split_choice_block(text: str) -> tuple:
    """Split a question into (stem, choices block); block is '' if absent.

    The choices block defines the label space, so rewrites must leave it
    untouched.
    """
    match = _CHOICES_SPLIT.search(text)
    if not match:
        return text, ""
    return text[: match.start()], text[match.start():]


def _normalized(text: str) -> str:
    return " ".join(text.split()).lower()


def reformulate(text: str, spec: ReformulationSpec, backend: Backend) -> Reformulations:
    """Generate ``spec.n_variants`` rewrites of ``text`` (element 0 is the
    verbatim original when ``include_original`` is set), with the usage of
    the calls that made them and the milliseconds they took.

    One backend call per variant, at temperature 1.0 with the backend's
    model; blank or normalized-duplicate outputs are regenerated up to a
    small retry budget (logged at INFO) and then kept with a WARNING. Never
    returns fewer than ``n_variants`` strings.
    """
    if not text:
        raise ValueError("cannot reformulate empty text")
    stem, choices_block = text, ""
    if spec.target == ReformulationTarget.QUESTION:
        stem, choices_block = split_choice_block(text)

    variants = Reformulations()
    seen = set()
    if spec.include_original:
        variants.append(text)
        seen.add(_normalized(stem))  # rewrites are of the stem alone

    prompt_text = f"{spec.instruction()}\n{stem}"
    for index in range(spec.n_variants - len(variants)):
        candidate = ""
        for attempt in range(_DEDUP_RETRIES + 1):
            [(candidate, usage, ms)] = call(
                backend, prompt_text, 1.0, sample_batch_id=index * (_DEDUP_RETRIES + 1) + attempt)
            variants.usage += usage
            variants.latency_ms += ms
            candidate = candidate.strip()
            if candidate and _normalized(candidate) not in seen:
                break
            if attempt < _DEDUP_RETRIES:  # a retry is routine; keeping a bad one is not
                logger.info("%s reformulation for variant %d, regenerating",
                            "duplicate" if candidate else "blank", index)
        if not candidate:
            logger.warning("variant %d stayed blank after retries, keeping original", index)
            candidate = stem
        elif _normalized(candidate) in seen:
            logger.warning("variant %d still a duplicate after retries, keeping it", index)
        seen.add(_normalized(candidate))
        if choices_block:
            candidate = candidate.rstrip() + "\n" + choices_block.lstrip("\n")
        variants.append(candidate)
    return variants
