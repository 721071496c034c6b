"""Answer extraction from raw prediction text, and majority voting.

Extraction is a deterministic cascade: (1) parse what follows the last
answer-trigger phrase, (2) per-format positional fallbacks, (3) abstain.
Trigger phrases ship as data (``data/answer_triggers.json``) so they can be
extended without code changes; within a text the last occurrence wins, since
models often restate their answer.
"""

from __future__ import annotations

import functools
import json
import logging
import re
from importlib import resources
from typing import List, Optional, Sequence, Tuple

from .core import (
    _NUMBER_TOKEN,
    _PAREN_LABEL,
    Answer,
    AnswerFormat,
    VoteResult,
    canonical_answer,
)

logger = logging.getLogger(__name__)


class EmptyInputError(ValueError):
    """An aggregate was asked for over zero items."""


_DEFAULT_LABELS = ("A", "B", "C", "D", "E")

_YES_NO_TOKEN = re.compile(r"\b(yes|no)\b", re.IGNORECASE)
_QUOTED_SPAN = re.compile(r"\"([^\"]+)\"")
_BOLD_SPAN = re.compile(r"\*\*([^*]+)\*\*")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def _load_triggers() -> dict:
    path = resources.files("breadth").joinpath("data/answer_triggers.json")
    with path.open("r", encoding="utf-8") as fh:
        raw = json.load(fh)
    return {AnswerFormat(k): tuple(v) for k, v in raw.items()}


_TRIGGERS = _load_triggers()


def _after_last_trigger(text: str, fmt: AnswerFormat) -> Optional[str]:
    lowered = text.lower()
    best_end = -1
    for phrase in _TRIGGERS[fmt]:
        idx = lowered.rfind(phrase)
        if idx >= 0:
            best_end = max(best_end, idx + len(phrase))
    if best_end < 0:
        return None
    return text[best_end:]


def _label_in(fragment: str, labels: Sequence[str]) -> Optional[str]:
    label_set = {l.upper() for l in labels}
    for match in _PAREN_LABEL.finditer(fragment):
        if match.group(1).upper() in label_set:
            return match.group(1).upper()
    standalone = re.compile(
        r"(?<![A-Za-z0-9])([%s])(?![A-Za-z0-9])" % "".join(sorted(label_set))
    )
    match = standalone.search(fragment)
    if match:
        return match.group(1)
    return None


def _final_sentence(text: str) -> str:
    lines = [line for line in text.strip().splitlines() if line.strip()]
    if not lines:
        return ""
    parts = _SENTENCE_SPLIT.split(lines[-1].strip())
    return parts[-1] if parts else lines[-1]


def _last_span(text: str) -> Optional[str]:
    # Last quoted or bolded span, whichever closes later.
    candidates = [(m.end(), m.group(1)) for m in _QUOTED_SPAN.finditer(text)]
    candidates += [(m.end(), m.group(1)) for m in _BOLD_SPAN.finditer(text)]
    if not candidates:
        return None
    return max(candidates, key=lambda c: c[0])[1]


def _parse_fragment(fragment: str, fmt: AnswerFormat, labels: Sequence[str]) -> Optional[str]:
    if fmt == AnswerFormat.MULTIPLE_CHOICE:
        return _label_in(fragment, labels)
    if fmt == AnswerFormat.NUMERIC:
        match = _NUMBER_TOKEN.search(fragment)
        return match.group(0) if match else None
    if fmt == AnswerFormat.YES_NO:
        match = _YES_NO_TOKEN.search(fragment)
        return match.group(1) if match else None
    span = _last_span(fragment)
    if span:
        return span
    first_line = fragment.strip().splitlines()
    return first_line[0] if first_line else None


def _fallback(text: str, fmt: AnswerFormat, labels: Sequence[str]) -> Optional[str]:
    if fmt == AnswerFormat.MULTIPLE_CHOICE:
        label_set = {l.upper() for l in labels}
        found = [m.group(1).upper() for m in _PAREN_LABEL.finditer(text)
                 if m.group(1).upper() in label_set]
        return found[-1] if found else None
    if fmt == AnswerFormat.NUMERIC:
        numbers = _NUMBER_TOKEN.findall(_final_sentence(text))
        return numbers[-1] if numbers else None
    if fmt == AnswerFormat.YES_NO:
        tokens = _YES_NO_TOKEN.findall(text)
        return tokens[-1] if tokens else None
    span = _last_span(text)
    if span:
        return span
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return lines[-1] if lines else None


def extract_answer(text: str, fmt: AnswerFormat,
                   choices: Optional[Sequence[tuple]] = None) -> Answer:
    """Parse raw prediction text into a canonical :class:`Answer`.

    Never raises; abstains when nothing parseable is found. ``choices``, the
    question's ``(label, text)`` pairs, restricts the label space for
    multiple choice (default A-E); labels are preferred over values, so
    "(A) 15" yields A even when 15 is a value.
    """
    if not text or not text.strip():
        return Answer.abstained(fmt)
    labels = tuple([l for l, _ in choices]) if choices else _DEFAULT_LABELS
    raw = _raw_answer(text, fmt, labels)
    if raw is None:
        # divergences from known output shapes are logged, never guessed
        logger.debug("no %s answer found in prediction text: %.120r", fmt.value, text)
        return Answer.abstained(fmt)
    return canonical_answer(raw, fmt)


# Paths repeat a handful of prediction texts, so each distinct one is parsed
# once. The memo sits below ``extract_answer``, not over it, so that every
# path still calls ``extract_answer`` and ``canonical_answer`` (memoized in
# turn): the benchmark's tracer counts both per path.
@functools.lru_cache(maxsize=256)
def _raw_answer(text: str, fmt: AnswerFormat, labels: Tuple[str, ...]) -> Optional[str]:
    """The answer fragment of ``text``: what follows the last trigger, else
    the format's fallback; None when neither parses."""
    fragment = _after_last_trigger(text, fmt)
    if fragment is not None:
        raw = _parse_fragment(fragment, fmt, labels)
        if raw is not None:
            return raw
    return _fallback(text, fmt, labels)


def majority_vote(answers: Sequence[Answer]) -> VoteResult:
    """Most-frequent canonical answer, abstentions excluded.

    Ties break to the answer whose first occurrence comes earliest in list
    order (and set the ``tie`` flag); an all-abstain list wins an abstain.
    """
    if not answers:
        raise EmptyInputError("majority_vote needs at least one answer")
    counted: dict = {}
    order: List[Answer] = []
    abstained = 0
    for answer in answers:
        if answer.abstain:
            abstained += 1
            continue
        key = (answer.kind, answer.value)
        if key not in counted:
            counted[key] = [answer, 0]
            order.append(answer)
        counted[key][1] += 1
    if not order:
        return VoteResult(
            winner=Answer.abstained(answers[0].kind),
            counts=(),
            total_paths=len(answers),
            abstained=abstained,
            tie=False,
        )
    counts = tuple((a, counted[(a.kind, a.value)][1]) for a in order)
    top = max(c for _, c in counts)
    winner = next(a for a, c in counts if c == top)
    tie = sum(1 for _, c in counts if c == top) >= 2
    return VoteResult(
        winner=winner,
        counts=counts,
        total_paths=len(answers),
        abstained=abstained,
        tie=tie,
    )
