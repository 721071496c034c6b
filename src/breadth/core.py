"""Shared domain types and answer canonicalization.

All types here are immutable value objects (frozen dataclasses) and are safe
to share across threads. The types built per call, path or question, and so
as many times as breadth has paths, each keep a written ``__init__`` that
checks and fills the instance in one ``__dict__.update``, not one
``object.__setattr__`` per field as a generated one does: :class:`Usage`,
:class:`Answer`, :class:`ReasoningTrace` and :class:`VoteResult` here, and
``llmio``'s ``CompletionRequest`` and ``CompletionResponse``. Each lives for
a call or a question. ``bench.QuestionOutcome``, kept for every question to
the end of a run, keeps the generated one: reading ``__dict__`` gives an
instance a dict of its own, about 330 bytes against 130 on CPython 3.11,
which would cost more peak memory than the 1.2 µs per question it saves is
worth. A persisted type is a :class:`Record`, whose JSON object holds its
fields by name: a None field is left out, an absent one reads as its
default, and an int is a count, never negative. A trace, written once per
path, also has a fast writer, ``json_line``.
"""

from __future__ import annotations

import functools
import json
import logging
import operator
import re
import sys
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import Any, Collection, List, Optional

logger = logging.getLogger(__name__)

CANONICAL_COT_PROMPT = "Let's think step by step."

# Benchmark choice labels: extraction's default, and the only ones not flagged.
CHOICE_LABELS = ("A", "B", "C", "D", "E")

# The one encoding of every cache key, cache record and trace line: sorted
# keys, no spaces, non-ASCII escaped. ``json.dumps`` with these arguments
# would build a new encoder on every call. The four per-record writers
# (``CompletionRequest.sample_payloads``, ``ReplayStore.append``,
# ``ReasoningTrace.json_line`` and ``bench.summary_json``, which indents as
# ``json.dumps(..., indent=2)`` does) write fixed layouts and escape each
# string with ``json_string``, the C string encoder that ``json`` calls for a
# str; ``test_cache_key_is_the_digest_of_each_samples_own_request``,
# ``test_recorded_lines_are_the_canonical_json_of_each_samples_record``,
# ``test_trace_lines_are_the_canonical_json_of_each_trace`` and
# ``test_summary_json_is_json_dumps_of_its_record`` pin each to the encoder.
# ``breadth cache --verify`` checks a stored request by this encoding alone:
# its key must be the SHA-256 of the request's canonical JSON.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
json_string = json.encoder.encode_basestring_ascii


def parse_json(text: str, where: str, lineno: int = 1) -> Any:
    """``json.loads(text)``, with invalid JSON raised as a ``ValueError``
    that names ``where`` and the line of the file, ``text`` starting on
    line ``lineno`` of it."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{where}: invalid JSON at line {lineno + exc.lineno - 1} "
                         f"column {exc.colno}: {exc.msg}") from None


class AnswerFormat(str, Enum):
    NUMERIC = "numeric"
    MULTIPLE_CHOICE = "multiple_choice"
    YES_NO = "yes_no"
    FREE_FORM = "free_form"


class StrategyKind(str, Enum):
    ZERO_SHOT = "zero_shot"
    COT = "cot"
    DEEP_COT = "deep_cot"
    SC = "sc"
    QUESTION_C = "questionc"
    PROMPT_C = "promptc"
    QUESTION_C_SC = "questionc_sc"
    PROMPT_C_SC = "promptc_sc"

    @classmethod
    def parse(cls, name: str) -> "StrategyKind":
        """Accept both CLI spellings (``questionc-sc``) and enum values."""
        return cls(name.strip().lower().replace("-", "_"))


class StopRule(str, Enum):
    FIXED_T = "fixed_t"
    STABLE_STOP = "stable_stop"

    @classmethod
    def parse(cls, name: str) -> "StopRule":
        aliases = {"fixed": cls.FIXED_T, "stable": cls.STABLE_STOP}
        key = name.strip().lower().replace("-", "_")
        if key in aliases:
            return aliases[key]
        return cls(key)


_NULL = type(None)


def check_temperature(temperature: float) -> None:
    """Raise ``ValueError`` unless ``temperature`` is >= 0 and a finite float holds it."""
    if not 0 <= temperature <= sys.float_info.max:  # false for NaN too
        raise ValueError(f"temperature must be finite and >= 0, got {temperature}")


def is_count(value: Any) -> bool:
    """True for a JSON int >= 0 that is not a bool: what every persisted int
    field holds, as a token count or an index."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _as_list(values: tuple) -> list:
    return [v.to_dict() if isinstance(v, Record) else _as_list(v) if isinstance(v, tuple) else v
            for v in values]


# Each annotation a record field may have: the JSON types its value may take,
# then how ``Record`` writes and reads the value (None: as it is).
_FIELD_CODECS = {
    "str": ((str,), None, None),
    "int": ((int,), None, None),
    "float": ((int, float), None, None),
    "bool": ((bool,), None, None),
    "dict": ((dict,), None, None),
    "Optional[dict]": ((dict, _NULL), dict, None),
    "tuple": ((list,), _as_list, tuple),
    "Optional[str]": ((str, _NULL), None, None),
    "Optional[tuple]": ((list, _NULL), _as_list, tuple),
    "Answer": ((dict,), operator.methodcaller("to_dict"), lambda d: Answer.from_dict(d)),
    "Usage": ((dict,), operator.methodcaller("to_dict"), lambda d: Usage.from_dict(d)),
    "AnswerFormat": ((str,), operator.attrgetter("_value_"), AnswerFormat),
    "StrategyKind": ((str,), operator.attrgetter("_value_"), StrategyKind.parse),
    "StopRule": ((str,), operator.attrgetter("_value_"), StopRule.parse),
}


def check_json_fields(cls, d: Any) -> dict:
    """The fields of the dataclass ``cls`` that the JSON object ``d`` holds,
    by name, each decoded as its annotation's entry in ``_FIELD_CODECS``
    says. A ``ValueError`` unless ``d`` holds every field that has no
    default, each of the JSON type of its annotation (a bool is not an int,
    and an int is a count: see :func:`is_count`)."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {d!r:.80}")
    decoded = {}
    for f in fields(cls):
        name = f.name
        if name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValueError(f"{cls.__name__} has no field {name!r}")
            continue
        value = d[name]
        allowed, _, decode = _FIELD_CODECS[f.type]
        count = f.type == "int"
        if not (is_count(value) if count else isinstance(value, allowed)
                and (bool in allowed or not isinstance(value, bool))):
            expected = "int >= 0" if count else " or ".join(
                "null" if t is _NULL else t.__name__ for t in allowed)
            raise ValueError(f"{cls.__name__} field {name!r} must be {expected}, "
                             f"got {value!r:.80}")
        decoded[name] = value if decode is None or value is None else decode(value)
    return decoded


class Record:
    """A persisted dataclass. ``to_dict`` writes each field by name, as its
    annotation's entry in ``_FIELD_CODECS`` says, and leaves out one that is
    None; ``from_dict`` reads it back through :func:`check_json_fields`."""

    def to_dict(self) -> dict:
        d = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                encode = _FIELD_CODECS[f.type][1]
                d[f.name] = value if encode is None else encode(value)
        return d

    @classmethod
    def from_dict(cls, d: Any):
        return cls(**check_json_fields(cls, d))


@dataclass(frozen=True)
class Usage(Record):
    """Token accounting for one or more generation calls."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __init__(self, prompt_tokens: int = 0, completion_tokens: int = 0):
        self.__dict__.update(prompt_tokens=prompt_tokens, completion_tokens=completion_tokens)

    def __add__(self, other: "Usage") -> "Usage":
        return Usage(
            self.prompt_tokens + other.prompt_tokens,
            self.completion_tokens + other.completion_tokens,
        )

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class Answer(Record):
    """A canonicalized answer, or an abstention when nothing could be parsed.

    ``value`` is always the canonical string form for the given kind:
    canonical decimal for numeric, an upper-case label for multiple choice,
    ``yes``/``no``, or a folded free-form string. Equal semantic answers
    compare equal.
    """

    kind: AnswerFormat
    value: str = ""
    abstain: bool = False

    def __init__(self, kind: AnswerFormat, value: str = "", abstain: bool = False):
        if abstain and value:
            raise ValueError("abstaining answers carry no value")
        self.__dict__.update(kind=kind, value=value, abstain=abstain)

    @classmethod
    def abstained(cls, kind: AnswerFormat) -> "Answer":
        return cls(kind, "", True)


_NUMBER_TOKEN = re.compile(r"[-+]?(?:\d[\d,]*\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_PAREN_LABEL = re.compile(r"\(([A-Za-z])\)")
_STANDALONE_UPPER = re.compile(r"(?<![A-Za-z0-9])([A-Z])(?![A-Za-z0-9])")
_YES_NO = re.compile(r"\b(yes|no)\b")  # over lowercased text
_TERMINAL_PUNCT = ".,;:!?"


def _canonical_decimal(token: str) -> Optional[str]:
    token = token.replace(",", "")
    try:
        value = Decimal(token)
    except InvalidOperation:
        return None
    # Past 10**±1000 the plain form would run to that many digits: abstain.
    if not value.is_finite() or abs(value.adjusted()) > 1000:
        return None
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", "", "-"):
        text = "0"
    return text


def number_tokens(text: str) -> List[str]:
    """The number tokens of ``text`` in order, read across currency and
    percent signs (so "-$5" is -5), skipping any prefix such as "about"."""
    return _NUMBER_TOKEN.findall(text.replace("$", "").replace("%", ""))


def yes_no_tokens(text: str) -> List[str]:
    """The words ``yes`` and ``no`` in ``text`` in order, lower-cased."""
    return _YES_NO.findall(text.lower())


def paren_labels(text: str, labels: Optional[Collection[str]] = None) -> List[str]:
    """The parenthesized letters of ``text`` in order, upper-cased; with
    ``labels`` (upper-case letters), only those among them."""
    return [l for l in map(str.upper, _PAREN_LABEL.findall(text))
            if labels is None or l in labels]


def choice_label(text: str, labels: Optional[Collection[str]] = None) -> Optional[str]:
    """The first parenthesized letter of ``text``, else its first standalone
    capital; with ``labels`` (upper-case letters), the first among them."""
    found = paren_labels(text, labels) or [
        l for l in _STANDALONE_UPPER.findall(text) if labels is None or l in labels]
    return found[0] if found else None


@functools.lru_cache(maxsize=256, typed=True)
def canonical_answer(raw: str, fmt: AnswerFormat) -> Answer:
    """Normalize a raw answer fragment into a canonical :class:`Answer`.

    Deterministic and total: unparseable input yields an abstaining answer,
    never an exception. Idempotent on its own output. Memoized, so equal
    answers share one :class:`Answer`; by type as well as value, since a
    plain-``str`` ``fmt`` is kept as the answer's ``kind``.
    """
    if fmt == AnswerFormat.NUMERIC:
        tokens = number_tokens(raw)
        value = _canonical_decimal(tokens[0]) if tokens else None
    elif fmt == AnswerFormat.MULTIPLE_CHOICE:
        text = raw.strip().strip(_TERMINAL_PUNCT).strip()
        value = text.upper() if len(text) == 1 and text.isalpha() else choice_label(text)
    elif fmt == AnswerFormat.YES_NO:
        value = (yes_no_tokens(raw) or [None])[0]
    else:
        text = " ".join(raw.split()).strip().strip('"').strip()
        value = text.rstrip(_TERMINAL_PUNCT).strip().lower() or None
    if value is None:
        return Answer.abstained(fmt)
    return Answer(fmt, value)


@dataclass(frozen=True)
class Question(Record):
    """One benchmark item with its answer format, choices, and gold answer."""

    id: str
    text: str
    answer_format: AnswerFormat
    gold: Answer
    choices: Optional[tuple] = None  # ordered (label, text) pairs

    def __post_init__(self):
        choices = self.choices
        if choices is not None:
            if not (isinstance(choices, (list, tuple))
                    and all(isinstance(c, (list, tuple)) and len(c) == 2 for c in choices)):
                raise ValueError(f"question choices must be [label, text] pairs, "
                                 f"got {choices!r:.80}")
            choices = tuple((str(l), str(t)) for l, t in choices)
            object.__setattr__(self, "choices", choices)
        is_mc = self.answer_format == AnswerFormat.MULTIPLE_CHOICE
        if is_mc:
            if not choices:
                raise ValueError(f"question {self.id}: multiple choice requires choices")
            labels = [l for l, _ in choices]
            if len(set(labels)) != len(labels):
                raise ValueError(f"question {self.id}: duplicate choice labels")
            if not all(re.fullmatch("[A-Z]", l) for l in labels):
                raise ValueError(f"question {self.id}: a choice label must be one letter "
                                 f"A-Z, got {labels}")
            if any(l not in CHOICE_LABELS for l in labels):
                logger.warning("question %s: choice labels beyond A-E: %s", self.id, labels)
        elif choices:
            raise ValueError(f"question {self.id}: choices only valid for multiple choice")
        self._check_gold()

    def _check_gold(self):
        gold = self.gold
        if gold.abstain or gold.kind != self.answer_format:
            raise ValueError(f"question {self.id}: gold not parseable under {self.answer_format}")
        if self.answer_format == AnswerFormat.MULTIPLE_CHOICE:
            labels = {l for l, _ in self.choices}
            if gold.value not in labels:
                raise ValueError(f"question {self.id}: gold label {gold.value!r} not in choices")
        elif canonical_answer(gold.value, self.answer_format) != gold:
            raise ValueError(f"question {self.id}: gold {gold.value!r} is not canonical")


@dataclass(frozen=True)
class ReasoningTrace(Record):
    """One reasoning path: assembled input, generated reasoning, prediction.

    ``(question_id, round, reformulation_index, sample_index)`` is unique
    within a run; ``round`` counts iterations for depth strategies and is 1
    for breadth. The assembled input always starts with the question text.
    """

    question_id: str
    round: int
    reformulation_index: int
    sample_index: int
    assembled_input: str
    reasoning_text: str
    raw_prediction_text: str
    parsed: Answer
    usage: Usage = field(default_factory=Usage)
    latency_ms: int = 0

    def __init__(self, question_id: str, round: int, reformulation_index: int, sample_index: int,
                 assembled_input: str, reasoning_text: str, raw_prediction_text: str,
                 parsed: Answer, usage: Usage = Usage(), latency_ms: int = 0):
        if round < 1:
            raise ValueError("round starts at 1")
        if reformulation_index < 0 or sample_index < 0:
            raise ValueError("path indices are non-negative")
        if latency_ms < 0:
            raise ValueError("latency_ms is non-negative")
        self.__dict__.update(
            question_id=question_id, round=round, reformulation_index=reformulation_index,
            sample_index=sample_index, assembled_input=assembled_input,
            reasoning_text=reasoning_text, raw_prediction_text=raw_prediction_text,
            parsed=parsed, usage=usage, latency_ms=latency_ms)

    def path_key(self) -> tuple:
        return (self.question_id, self.round, self.reformulation_index, self.sample_index)

    def json_line(self) -> str:
        """The trace's line in ``traces.jsonl``: the canonical JSON of the
        object ``from_dict`` reads, and a newline. The keys are written in
        sorted order; indices, latency and token counts are ints, which
        ``%d`` writes as JSON does."""
        parsed, usage = self.parsed, self.usage
        return (
            '{"assembled_input":%s,"latency_ms":%d,'
            '"parsed":{"abstain":%s,"kind":%s,"value":%s},'
            '"question_id":%s,"raw_prediction_text":%s,"reasoning_text":%s,'
            '"reformulation_index":%d,"round":%d,"sample_index":%d,'
            '"usage":{"completion_tokens":%d,"prompt_tokens":%d}}\n' % (
                _input_json(self.assembled_input), self.latency_ms,
                "true" if parsed.abstain else "false", _FORMAT_JSON[parsed.kind],
                json_string(parsed.value), json_string(self.question_id),
                json_string(self.raw_prediction_text), json_string(self.reasoning_text),
                self.reformulation_index, self.round, self.sample_index,
                usage.completion_tokens, usage.prompt_tokens))


# A context's paths share its input, so a trace line escapes each input once.
_input_json = functools.lru_cache(maxsize=64)(json_string)

# Each answer format's JSON string, as a trace line writes its parsed kind.
_FORMAT_JSON = {fmt: json_string(fmt.value) for fmt in AnswerFormat}


# The knobs each kind reads besides ``answer_triggers``, with the kind's
# defaults: the headline setup of three iterations deep or three paths wide
# (the hybrids three rewrites at one sample each). The kinds that sample
# several answers per context run at the lower temperature 0.8; plain CoT,
# depth rounds and single-sample context rewrites at 1.0.
_COT = {"canonical_prompt": CANONICAL_COT_PROMPT, "temperature": 1.0}
_SAMPLING = {**_COT, "temperature": 0.8}
KIND_KNOBS = {
    StrategyKind.ZERO_SHOT: {"temperature": 1.0},
    StrategyKind.COT: {**_COT},
    StrategyKind.DEEP_COT: {**_COT, "max_iterations": 3, "stop_rule": StopRule.FIXED_T,
                            "iteration_guide": ""},
    StrategyKind.SC: {**_SAMPLING, "m_samples": 3},
    StrategyKind.QUESTION_C: {**_COT, "n_reformulations": 3},
    StrategyKind.PROMPT_C: {**_COT, "n_reformulations": 3},
    StrategyKind.QUESTION_C_SC: {**_SAMPLING, "n_reformulations": 3, "m_samples": 1},
    StrategyKind.PROMPT_C_SC: {**_SAMPLING, "n_reformulations": 3, "m_samples": 1},
}

# The kinds that run several paths in one round: those that read a rewrite or
# a sample count.
BREADTH_KINDS = frozenset(kind for kind, knobs in KIND_KNOBS.items()
                          if {"n_reformulations", "m_samples"} & knobs.keys())


@dataclass(frozen=True)
class StrategyConfig(Record):
    """Which pipeline to run and its knobs.

    ``n_reformulations`` is the number of reworded contexts, ``m_samples``
    the samples drawn per context, ``max_iterations`` the depth cap, and
    ``iteration_guide`` the prompt that steers refinement rounds (empty
    string means: reuse the canonical prompt). ``canonical_prompt`` is the
    reasoning-trigger text every path starts from. ``answer_triggers`` maps a
    format name to its prediction trigger (None: ``strategy.DEFAULT_TRIGGERS``).

    A knob the kind does not read (see :data:`KIND_KNOBS`) must keep its
    field default, so ``(max_iterations, n_reformulations, m_samples)`` is
    the shape that runs: rounds, contexts, and samples per context.
    """

    kind: StrategyKind
    n_reformulations: int = 1
    m_samples: int = 1
    max_iterations: int = 1
    stop_rule: StopRule = StopRule.FIXED_T
    temperature: float = 1.0
    canonical_prompt: str = CANONICAL_COT_PROMPT
    iteration_guide: str = ""
    answer_triggers: Optional[dict] = field(default=None, hash=False)  # a dict has no hash

    def __post_init__(self):
        if self.n_reformulations < 1 or self.m_samples < 1 or self.max_iterations < 1:
            raise ValueError("n_reformulations, m_samples, max_iterations must be >= 1")
        check_temperature(self.temperature)
        if not self.canonical_prompt:
            raise ValueError("canonical_prompt must be non-empty")
        object.__setattr__(self, "answer_triggers", _format_triggers(self.answer_triggers))
        reads = {"kind", "answer_triggers", *KIND_KNOBS[self.kind]}
        ignored = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
                   if f.name not in reads and getattr(self, f.name) != f.default]
        if ignored:
            raise ValueError(f"strategy {self.kind.value} ignores {', '.join(ignored)}; "
                             f"it reads only {', '.join(sorted(reads - {'kind'}))}")

    @classmethod
    def from_dict(cls, d: dict) -> "StrategyConfig":
        """Inverse of ``to_dict``; also takes kind and stop rule by their CLI
        names. Unknown keys and values of the wrong type are a ``ValueError``."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown strategy config keys: {sorted(unknown)}")
        return super().from_dict(d)


def _format_triggers(triggers: Any) -> Optional[dict]:
    """``answer_triggers`` keyed by format name, with ``{}`` as None; a
    ``ValueError`` unless it maps answer formats to non-empty text."""
    if triggers is None:
        return None
    if not (isinstance(triggers, dict) and set(triggers) <= set(AnswerFormat)
            and all(isinstance(text, str) and text for text in triggers.values())):
        raise ValueError("answer_triggers must map answer formats "
                         f"({', '.join(f.value for f in AnswerFormat)}) to non-empty text, "
                         f"got {triggers!r:.80}")
    return {AnswerFormat(fmt).value: text for fmt, text in triggers.items()} or None


def default_config(kind: StrategyKind, **overrides: Any) -> StrategyConfig:
    """Build a config with the kind's defaults, then apply overrides."""
    return StrategyConfig(kind=kind, **{**KIND_KNOBS[kind], **overrides})


@dataclass(frozen=True)
class VoteResult:
    """Aggregated majority vote over parsed answers.

    ``counts`` lists (answer, count) pairs in first-occurrence order;
    abstentions are excluded from counting.
    """

    winner: Answer
    counts: tuple  # ordered (Answer, count) pairs
    tie: bool

    def __init__(self, winner: Answer, counts: tuple, tie: bool):
        self.__dict__.update(winner=winner, counts=counts, tie=tie)
