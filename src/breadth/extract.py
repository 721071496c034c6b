"""Answer extraction from raw prediction text, and majority voting.

Extraction decides only where to look and which token to take; ``core``
says what a token is (a number, yes/no, a choice label), by the same
readers that ``canonical_answer`` uses. It is a deterministic cascade: (1)
the first token after the last answer-trigger phrase, (2) per-format
positional fallbacks, mostly the last token, (3) abstain. Trigger phrases
ship as data (``data/answer_triggers.json``) so they can be extended without
code changes; within a text the last occurrence wins, since models often
restate their answer.
"""

from __future__ import annotations

import functools
import json
import logging
import re
from collections import Counter
from importlib import resources
from typing import Optional, Sequence, Tuple

from .core import (
    CHOICE_LABELS,
    Answer,
    AnswerFormat,
    VoteResult,
    canonical_answer,
    choice_label,
    number_tokens,
    paren_labels,
    yes_no_tokens,
)

logger = logging.getLogger(__name__)


_QUOTED_SPAN = re.compile(r"\"([^\"]+)\"")
_BOLD_SPAN = re.compile(r"\*\*([^*]+)\*\*")
_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")
_OPENING_LABEL = re.compile(r"\s*([A-Z])(?:[.):]|\s*\Z)")


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


def _final_sentence(text: str) -> str:
    # Its one caller passes a text that is not blank.
    lines = [line for line in text.strip().splitlines() if line.strip()]
    return _SENTENCE_SPLIT.split(lines[-1].strip())[-1]


def _last_span(text: str) -> Optional[str]:
    # Last quoted or bolded span, whichever closes later.
    candidates = [(m.end(), m.group(1)) for m in _QUOTED_SPAN.finditer(text)]
    candidates += [(m.end(), m.group(1)) for m in _BOLD_SPAN.finditer(text)]
    if not candidates:
        return None
    return max(candidates, key=lambda c: c[0])[1]


def _parse_fragment(fragment: str, fmt: AnswerFormat, labels: Sequence[str]) -> Optional[str]:
    # The first answer token after the trigger.
    if fmt == AnswerFormat.MULTIPLE_CHOICE:
        return choice_label(fragment, labels)
    if fmt == AnswerFormat.NUMERIC:
        return (number_tokens(fragment) or [None])[0]
    if fmt == AnswerFormat.YES_NO:
        return (yes_no_tokens(fragment) or [None])[0]
    span = _last_span(fragment)
    if span:
        return span
    first_line = fragment.strip().splitlines()
    return first_line[0] if first_line else None


def _fallback(text: str, fmt: AnswerFormat, labels: Sequence[str]) -> Optional[str]:
    # No trigger, or nothing after the last one: mostly the reply's last token.
    if fmt == AnswerFormat.MULTIPLE_CHOICE:
        found = paren_labels(text, labels)
        if found:
            return found[-1]
        # The request ends with the trigger, so a reply that opens with a
        # bare label ("B.", "B) 16", "C: 42" or "B" alone) is that label.
        match = _OPENING_LABEL.match(text)
        return match.group(1) if match and match.group(1) in labels else None
    if fmt == AnswerFormat.NUMERIC:
        return (number_tokens(_final_sentence(text)) or [None])[-1]
    if fmt == AnswerFormat.YES_NO:
        return (yes_no_tokens(text) or [None])[-1]
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
    labels = tuple([l for l, _ in choices]) if choices else CHOICE_LABELS
    raw = _raw_answer(text, fmt, labels)
    if raw is None:
        # divergences from known output shapes are logged, never guessed
        # AnswerFormat(fmt): a format given as its plain string has no .value
        logger.debug("no %s answer found in prediction text: %.120r",
                     AnswerFormat(fmt).value, text)
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
    """Most-frequent answer, abstentions excluded: two paths agree when their
    canonical answers are equal.

    Ties break to the answer whose first occurrence comes earliest in list
    order, which a ``Counter`` keeps, and set the ``tie`` flag; an
    all-abstain list wins an abstain.
    """
    if not answers:
        raise ValueError("majority_vote needs at least one answer")
    counts = Counter([a for a in answers if not a.abstain])
    top = counts.most_common(2) or [(Answer.abstained(answers[0].kind), 0)]
    return VoteResult(top[0][0], tuple(counts.items()),
                      len(top) == 2 and top[1][1] == top[0][1])
