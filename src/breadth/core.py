"""Shared domain types and answer canonicalization.

All types here are immutable value objects (frozen dataclasses) and are safe
to share across threads. A persisted type is a :class:`Record`, whose JSON
object holds its fields by name: a None field is left out, an absent one
reads as its default, and an int is a count, never negative. A trace,
written once per path, also has a fast writer, ``json_line``.
"""

from __future__ import annotations

import functools
import json
import logging
import math
import operator
import re
from dataclasses import MISSING, dataclass, field, fields
from decimal import Decimal, InvalidOperation
from enum import Enum
from typing import Any, Optional

logger = logging.getLogger(__name__)

CANONICAL_COT_PROMPT = "Let's think step by step."

# Benchmark choice labels run A..E; anything past E is accepted but flagged.
_EXPECTED_LABELS = "ABCDE"

# The one encoding of every cache key, cache record and trace line: sorted
# keys, no spaces, non-ASCII escaped. ``json.dumps`` with these arguments
# would build a new encoder on every call. The three per-record writers
# (``CompletionRequest.sample_payloads``, ``ReplayStore.append`` and
# ``ReasoningTrace.json_line``) write fixed layouts and escape each string
# with ``json_string``, the C string encoder that ``canonical_json`` calls
# for a str, without the encoder's Python-level dispatch;
# ``test_cache_key_is_the_digest_of_each_samples_own_request``,
# ``test_recorded_lines_are_the_canonical_json_of_each_samples_record`` and
# ``test_trace_lines_are_the_canonical_json_of_each_trace`` pin each layout to
# this encoding of the whole record.
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


BREADTH_KINDS = frozenset(
    {
        StrategyKind.SC,
        StrategyKind.QUESTION_C,
        StrategyKind.PROMPT_C,
        StrategyKind.QUESTION_C_SC,
        StrategyKind.PROMPT_C_SC,
    }
)


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
    "tuple": ((list,), _as_list, tuple),
    "Optional[str]": ((str, _NULL), None, None),
    "Optional[tuple]": ((list, _NULL), _as_list, tuple),
    "Answer": ((dict,), operator.methodcaller("to_dict"), lambda d: Answer.from_dict(d)),
    "Usage": ((dict,), operator.methodcaller("to_dict"), lambda d: Usage.from_dict(d)),
    "AnswerFormat": ((str,), operator.attrgetter("_value_"), AnswerFormat),
    "StrategyKind": ((str,), operator.attrgetter("_value_"), StrategyKind.parse),
    "StopRule": ((str,), operator.attrgetter("_value_"), StopRule.parse),
}


@functools.lru_cache(maxsize=None)
def _field_readers(cls) -> tuple:
    """How :func:`check_json_fields` reads each field of the dataclass
    ``cls``, worked out once per class: its name, whether it is required,
    whether it is a count, the JSON types it may take, whether a bool is
    one of them, its decoder and the type its error message names."""
    readers = []
    for f in fields(cls):
        allowed, _, decode = _FIELD_CODECS[f.type]
        count = f.type == "int"
        expected = "int >= 0" if count else " or ".join(
            "null" if t is _NULL else t.__name__ for t in allowed)
        readers.append((f.name, f.default is MISSING and f.default_factory is MISSING,
                        count, allowed, bool in allowed, decode, expected))
    return tuple(readers)


def check_json_fields(cls, d: Any) -> dict:
    """The fields of the dataclass ``cls`` that the JSON object ``d`` holds,
    by name, each decoded as its annotation's entry in ``_FIELD_CODECS``
    says. A ``ValueError`` unless ``d`` holds every field that has no
    default, each of the JSON type of its annotation (a bool is not an int,
    and an int is a count: see :func:`is_count`)."""
    if not isinstance(d, dict):
        raise ValueError(f"{cls.__name__} must be a JSON object, got {d!r:.80}")
    decoded = {}
    for name, required, count, allowed, bool_ok, decode, expected in _field_readers(cls):
        if name not in d:
            if required:
                raise ValueError(f"{cls.__name__} has no field {name!r}")
            continue
        value = d[name]
        if not (is_count(value) if count else isinstance(value, allowed)
                and (bool_ok or not isinstance(value, bool))):
            raise ValueError(f"{cls.__name__} field {name!r} must be {expected}, "
                             f"got {value!r:.80}")
        decoded[name] = value if decode is None or value is None else decode(value)
    return decoded


class Record:
    """A persisted dataclass. ``to_dict`` writes each field by name, as its
    annotation's entry in ``_FIELD_CODECS`` says, and leaves out one that is
    None; ``from_dict`` reads it back through :func:`check_json_fields`. A
    record's fields are the annotations of its own class body, and they are
    all its instance dict holds, which ``to_dict`` copies."""

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # The fields that are not copied as they are: those with an encoder,
        # and those that may be None.
        codecs = ((name, _FIELD_CODECS[annotation])
                  for name, annotation in cls.__annotations__.items())
        cls._encoders = tuple((name, encode) for name, (types, encode, _) in codecs
                              if encode is not None or _NULL in types)

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        for name, encode in self._encoders:
            value = d[name]
            if value is None:
                del d[name]
            elif encode is not None:
                d[name] = encode(value)
        return d

    @classmethod
    def from_dict(cls, d: Any):
        return cls(**check_json_fields(cls, d))


@dataclass(frozen=True)
class Usage(Record):
    """Token accounting for one or more generation calls."""

    prompt_tokens: int = 0
    completion_tokens: int = 0

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

    def __post_init__(self):
        if self.abstain and self.value:
            raise ValueError("abstaining answers carry no value")

    @classmethod
    def abstained(cls, kind: AnswerFormat) -> "Answer":
        return cls(kind=kind, value="", abstain=True)


_NUMBER_TOKEN = re.compile(r"[-+]?(?:\d[\d,]*\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
_PAREN_LABEL = re.compile(r"\(([A-Za-z])\)")
_STANDALONE_UPPER = re.compile(r"(?<![A-Za-z0-9])([A-Z])(?![A-Za-z0-9])")
_YES_NO = re.compile(r"\b(yes|no)\b")
_TERMINAL_PUNCT = ".,;:!?"


def _canonical_decimal(token: str) -> Optional[str]:
    token = token.replace(",", "")
    try:
        value = Decimal(token)
    except InvalidOperation:
        return None
    if not value.is_finite():
        return None
    text = format(value, "f")
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    if text in ("-0", "", "-"):
        text = "0"
    return text


def _canonical_numeric(raw: str) -> Optional[str]:
    # Tolerate currency signs, percent, thousands separators, and "≈" prefixes.
    cleaned = raw.strip()
    for junk in ("approximately", "about", "around"):
        if cleaned.lower().startswith(junk):
            cleaned = cleaned[len(junk):].strip()
    cleaned = cleaned.lstrip("≈~").replace("$", "").replace("%", "").strip()
    match = _NUMBER_TOKEN.search(cleaned)
    if not match:
        return None
    return _canonical_decimal(match.group(0))


def _canonical_choice(raw: str) -> Optional[str]:
    text = raw.strip().strip(_TERMINAL_PUNCT).strip()
    if len(text) == 1 and text.isalpha():
        return text.upper()
    match = _PAREN_LABEL.search(text)
    if match:
        return match.group(1).upper()
    match = _STANDALONE_UPPER.search(text)
    if match:
        return match.group(1)
    return None


def _canonical_yes_no(raw: str) -> Optional[str]:
    match = _YES_NO.search(raw.lower())
    return match.group(1) if match else None


def _canonical_free_form(raw: str) -> Optional[str]:
    text = " ".join(raw.split()).strip().strip('"').strip()
    text = text.rstrip(_TERMINAL_PUNCT).strip().lower()
    return text or None


@functools.lru_cache(maxsize=256, typed=True)
def canonical_answer(raw: str, fmt: AnswerFormat) -> Answer:
    """Normalize a raw answer fragment into a canonical :class:`Answer`.

    Deterministic and total: unparseable input yields an abstaining answer,
    never an exception. Idempotent on its own output. Memoized, so equal
    answers share one :class:`Answer`; by type as well as value, since a
    plain-``str`` ``fmt`` is kept as the answer's ``kind``.
    """
    if fmt == AnswerFormat.NUMERIC:
        value = _canonical_numeric(raw)
    elif fmt == AnswerFormat.MULTIPLE_CHOICE:
        value = _canonical_choice(raw)
    elif fmt == AnswerFormat.YES_NO:
        value = _canonical_yes_no(raw)
    else:
        value = _canonical_free_form(raw)
    if value is None:
        return Answer.abstained(fmt)
    return Answer(kind=fmt, value=value)


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
            choices = tuple((str(l), str(t)) for l, t in choices)
            object.__setattr__(self, "choices", choices)
        is_mc = self.answer_format == AnswerFormat.MULTIPLE_CHOICE
        if is_mc:
            if not choices:
                raise ValueError(f"question {self.id}: multiple choice requires choices")
            labels = [l for l, _ in choices]
            if len(set(labels)) != len(labels):
                raise ValueError(f"question {self.id}: duplicate choice labels")
            if any(l not in _EXPECTED_LABELS for l in labels):
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

    @classmethod
    def from_dict(cls, d: Any) -> "Question":
        kwargs = check_json_fields(cls, d)
        choices = kwargs.get("choices")
        if choices and not all(isinstance(c, list) and len(c) == 2 for c in choices):
            raise ValueError(f"question choices must be [label, text] pairs, got {choices!r:.80}")
        return cls(**kwargs)


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

    def __post_init__(self):
        if self.round < 1:
            raise ValueError("round starts at 1")
        if self.reformulation_index < 0 or self.sample_index < 0:
            raise ValueError("path indices are non-negative")
        if self.latency_ms < 0:
            raise ValueError("latency_ms is non-negative")

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
                json_string(self.assembled_input), self.latency_ms,
                "true" if parsed.abstain else "false", _FORMAT_JSON[parsed.kind],
                json_string(parsed.value), json_string(self.question_id),
                json_string(self.raw_prediction_text), json_string(self.reasoning_text),
                self.reformulation_index, self.round, self.sample_index,
                usage.completion_tokens, usage.prompt_tokens))


# Each answer format's JSON string, as a trace line writes its parsed kind.
_FORMAT_JSON = {fmt: json_string(fmt.value) for fmt in AnswerFormat}


# The knobs each kind reads besides ``temperature``, with the kind's defaults:
# the headline setup of three iterations deep or three paths wide (the
# hybrids three rewrites at one sample each).
_PROMPT = {"canonical_prompt": CANONICAL_COT_PROMPT}
KIND_KNOBS = {
    StrategyKind.ZERO_SHOT: {},
    StrategyKind.COT: {**_PROMPT},
    StrategyKind.DEEP_COT: {**_PROMPT, "max_iterations": 3, "stop_rule": StopRule.FIXED_T,
                            "iteration_guide": ""},
    StrategyKind.SC: {**_PROMPT, "m_samples": 3},
    StrategyKind.QUESTION_C: {**_PROMPT, "n_reformulations": 3},
    StrategyKind.PROMPT_C: {**_PROMPT, "n_reformulations": 3},
    StrategyKind.QUESTION_C_SC: {**_PROMPT, "n_reformulations": 3, "m_samples": 1},
    StrategyKind.PROMPT_C_SC: {**_PROMPT, "n_reformulations": 3, "m_samples": 1},
}


@dataclass(frozen=True)
class StrategyConfig(Record):
    """Which pipeline to run and its knobs.

    ``n_reformulations`` is the number of reworded contexts, ``m_samples``
    the samples drawn per context, ``max_iterations`` the depth cap, and
    ``iteration_guide`` the prompt that steers refinement rounds (empty
    string means: reuse the canonical prompt). ``canonical_prompt`` is the
    reasoning-trigger text every path starts from.

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

    def __post_init__(self):
        if self.n_reformulations < 1 or self.m_samples < 1 or self.max_iterations < 1:
            raise ValueError("n_reformulations, m_samples, max_iterations must be >= 1")
        if not 0 <= self.temperature < math.inf:  # false for NaN too
            raise ValueError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not self.canonical_prompt:
            raise ValueError("canonical_prompt must be non-empty")
        reads = {"kind", "temperature", *KIND_KNOBS[self.kind]}
        ignored = [f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
                   if f.name not in reads and getattr(self, f.name) != f.default]
        if ignored:
            raise ValueError(f"strategy {self.kind.value} ignores {', '.join(ignored)}; "
                             f"it reads only {', '.join(sorted(reads - {'kind'}))}")

    def to_dict(self) -> dict:
        return {**super().to_dict(), "canonical_prompt": {"text": self.canonical_prompt,
                                                          "origin": dict(_CANONICAL_ORIGIN)}}

    @classmethod
    def from_dict(cls, d: dict) -> "StrategyConfig":
        """Inverse of ``to_dict``; also takes ``canonical_prompt`` as plain
        text, and kind and stop rule by their CLI names. Unknown keys, values
        of the wrong type and a non-canonical origin are a ``ValueError``."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown strategy config keys: {sorted(unknown)}")
        prompt = d.get("canonical_prompt")
        if isinstance(prompt, dict):
            if (set(prompt) - {"text", "origin"} or not isinstance(prompt.get("text"), str)
                    or prompt.get("origin", _CANONICAL_ORIGIN) != _CANONICAL_ORIGIN):
                raise ValueError("strategy config 'canonical_prompt' must be text or "
                                 f"{{'text': ..., 'origin': {_CANONICAL_ORIGIN}}}, got {prompt!r}")
            d = {**d, "canonical_prompt": prompt["text"]}
        return super().from_dict(d)


# How ``StrategyConfig.to_dict`` tags the prompt in run records.
_CANONICAL_ORIGIN = {"kind": "canonical"}


# Sampling-based strategies default to the lower sampling temperature; plain
# CoT, depth rounds, and single-sample context rewrites run at 1.0.
_DEFAULT_TEMPERATURES = {
    StrategyKind.SC: 0.8,
    StrategyKind.QUESTION_C_SC: 0.8,
    StrategyKind.PROMPT_C_SC: 0.8,
}

def default_config(kind: StrategyKind, **overrides: Any) -> StrategyConfig:
    """Build a config with the kind's defaults, then apply overrides."""
    return StrategyConfig(kind=kind, **{"temperature": _DEFAULT_TEMPERATURES.get(kind, 1.0),
                                        **KIND_KNOBS[kind], **overrides})


@dataclass(frozen=True)
class VoteResult:
    """Aggregated majority vote over parsed answers.

    ``counts`` lists (answer, count) pairs in first-occurrence order;
    abstentions are excluded from counting but tallied in ``abstained``.
    """

    winner: Answer
    counts: tuple  # ordered (Answer, count) pairs
    total_paths: int
    abstained: int
    tie: bool

    def __post_init__(self):
        counted = sum(c for _, c in self.counts)
        if counted + self.abstained != self.total_paths:
            raise ValueError("counts plus abstentions must cover every path")
