import ast
import builtins
import inspect
import json
import os
import random
import string
from dataclasses import MISSING, FrozenInstanceError, fields, replace

import pytest

from breadth.bench import QuestionOutcome, RunRecord
from breadth.core import (
    KIND_KNOBS,
    Answer,
    AnswerFormat,
    Question,
    ReasoningTrace,
    Record,
    StopRule,
    StrategyConfig,
    StrategyKind,
    Usage,
    VoteResult,
    canonical_answer,
    canonical_json,
    default_config,
    is_count,
)
from breadth.extract import extract_answer
from breadth.llmio import CompletionRequest, CompletionResponse, _request_layout
from conftest import (
    ADVERSARIAL_ALPHABET,
    IGNORED_KNOBS,
    NON_DEFAULT_KNOBS,
    knob_id,
    mc_question,
    trace_dict,
)


def test_numeric_canonicalization():
    assert canonical_answer("15.0", AnswerFormat.NUMERIC) == Answer(AnswerFormat.NUMERIC, "15")
    assert canonical_answer("$3,000", AnswerFormat.NUMERIC).value == "3000"
    assert canonical_answer("65,000.", AnswerFormat.NUMERIC).value == "65000"
    assert canonical_answer("25%", AnswerFormat.NUMERIC).value == "25"
    assert canonical_answer("≈15.8114", AnswerFormat.NUMERIC).value == "15.8114"
    assert canonical_answer("approximately 139", AnswerFormat.NUMERIC).value == "139"
    assert canonical_answer("-0.0", AnswerFormat.NUMERIC).value == "0"
    assert canonical_answer("1e3", AnswerFormat.NUMERIC).value == "1000"
    assert canonical_answer("no numbers here", AnswerFormat.NUMERIC).abstain


@pytest.mark.parametrize("raw, value", [
    ("about 5", "5"), ("Around 1,200", "1200"), ("approximately  7.50", "7.5"),
    ("≈ 2", "2"), ("~-4", "-4"), ("about $3", "3"),
    # Currency and percent signs are read across, not stopped at.
    ("-$5", "-5"), ("-%9", "-9"), ("3.5%1", "3.51"), ("$-2", "-2"),
])
def test_a_numeric_answer_is_its_first_number_read_across_dollar_and_percent(raw, value):
    assert canonical_answer(raw, AnswerFormat.NUMERIC) == Answer(AnswerFormat.NUMERIC, value)


@pytest.mark.parametrize("raw", ["1e5000", "1e-5000", "1e999999", "-1e1001", "0e-1001"])
def test_a_numeric_answer_past_ten_to_the_1000_either_way_abstains(raw):
    # Its plain form, 5 KB, 5 KB and 1 MB for the first three, was built whole.
    assert canonical_answer(raw, AnswerFormat.NUMERIC).abstain
    assert extract_answer(f"So the total is {raw}.", AnswerFormat.NUMERIC).abstain


def test_a_numeric_answer_up_to_ten_to_the_1000_either_way_is_read_in_full():
    assert canonical_answer("1e1000", AnswerFormat.NUMERIC).value == "1" + "0" * 1000
    assert canonical_answer("-1e-1000", AnswerFormat.NUMERIC).value == "-0." + "0" * 999 + "1"


def test_choice_label_extraction():
    assert canonical_answer("(B)", AnswerFormat.MULTIPLE_CHOICE).value == "B"
    assert canonical_answer("b", AnswerFormat.MULTIPLE_CHOICE).value == "B"
    assert canonical_answer("(d) 65,000", AnswerFormat.MULTIPLE_CHOICE).value == "D"
    assert canonical_answer("Option D:", AnswerFormat.MULTIPLE_CHOICE).value == "D"
    assert canonical_answer("", AnswerFormat.MULTIPLE_CHOICE).abstain


def test_yes_no_fold():
    assert canonical_answer("Yes.", AnswerFormat.YES_NO).value == "yes"
    assert canonical_answer("NO", AnswerFormat.YES_NO).value == "no"
    assert canonical_answer("maybe", AnswerFormat.YES_NO).abstain


def test_free_form_fold_equates_case_and_punctuation():
    a = canonical_answer("yoga", AnswerFormat.FREE_FORM)
    b = canonical_answer("Yoga. ", AnswerFormat.FREE_FORM)
    assert a == b
    assert canonical_answer("  nk  ls ", AnswerFormat.FREE_FORM).value == "nk ls"
    assert canonical_answer("   ", AnswerFormat.FREE_FORM).abstain


def _random_text(rng):
    alphabet = string.ascii_letters + string.digits + " .,$()%-"
    return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 30)))


def test_canonical_answer_idempotent_over_random_strings():
    rng = random.Random(7)
    formats = list(AnswerFormat)
    for _ in range(500):
        raw = _random_text(rng)
        fmt = rng.choice(formats)
        first = canonical_answer(raw, fmt)
        if first.abstain:
            continue
        again = canonical_answer(first.value, fmt)
        assert again == first, (raw, fmt, first, again)


def test_answer_equality_is_equivalence_relation():
    rng = random.Random(11)
    pool = [canonical_answer(_random_text(rng), fmt)
            for fmt in AnswerFormat for _ in range(40)]
    for a in pool:
        assert a == a
    for a in pool:
        for b in pool:
            assert (a == b) == (b == a)
    for a in pool:
        for b in pool:
            if a != b:
                continue
            for c in pool:
                if b == c:
                    assert a == c


def test_abstain_answer_must_be_empty():
    with pytest.raises(ValueError):
        Answer(AnswerFormat.NUMERIC, "3", abstain=True)


def test_question_requires_choices_iff_multiple_choice():
    gold = Answer(AnswerFormat.MULTIPLE_CHOICE, "A")
    with pytest.raises(ValueError):
        Question(id="q", text="t", answer_format=AnswerFormat.MULTIPLE_CHOICE, gold=gold)
    with pytest.raises(ValueError):
        Question(id="q", text="t", answer_format=AnswerFormat.NUMERIC,
                 gold=Answer(AnswerFormat.NUMERIC, "3"), choices=(("A", "x"),))


@pytest.mark.parametrize("choice", [("B", "x", "y"), 5, "Bx"],
                         ids=["three-items", "not-a-sequence", "a-string"])
def test_question_choices_must_be_label_text_pairs(choice):
    # Only JSON input was checked; built in code, these raised an unpacking
    # ValueError or a TypeError, or passed as the pair ("B", "x").
    with pytest.raises(ValueError, match=r"question choices must be \[label, text\] pairs"):
        Question(id="q", text="t", answer_format=AnswerFormat.MULTIPLE_CHOICE,
                 gold=Answer(AnswerFormat.MULTIPLE_CHOICE, "A"), choices=(("A", "x"), choice))


def test_question_rejects_duplicate_labels_and_foreign_gold():
    gold = Answer(AnswerFormat.MULTIPLE_CHOICE, "A")
    with pytest.raises(ValueError):
        Question(id="q", text="t", answer_format=AnswerFormat.MULTIPLE_CHOICE,
                 gold=gold, choices=(("A", "1"), ("A", "2")))
    with pytest.raises(ValueError):
        Question(id="q", text="t", answer_format=AnswerFormat.MULTIPLE_CHOICE,
                 gold=Answer(AnswerFormat.MULTIPLE_CHOICE, "F"),
                 choices=(("A", "1"), ("B", "2")))


def test_labels_beyond_e_accepted_but_flagged(caplog):
    with caplog.at_level("WARNING"):
        q = Question(id="wide", text="t", answer_format=AnswerFormat.MULTIPLE_CHOICE,
                     gold=Answer(AnswerFormat.MULTIPLE_CHOICE, "F"),
                     choices=tuple((l, l.lower()) for l in "ABCDEF"))
    assert q.gold.value == "F"
    assert any("beyond A-E" in r.message for r in caplog.records)


@pytest.mark.parametrize("label", ["CD", "", "b", "1"])
def test_a_label_that_is_no_single_letter_of_a_to_z_is_refused(label):
    with pytest.raises(ValueError) as err:
        Question(id="odd", text="t", answer_format=AnswerFormat.MULTIPLE_CHOICE,
                 gold=Answer(AnswerFormat.MULTIPLE_CHOICE, "A"),
                 choices=(("A", "x"), (label, "y")))
    assert str(err.value) == ("question odd: a choice label must be one letter A-Z, "
                              f"got ['A', {label!r}]")


def test_question_gold_must_parse_under_format():
    with pytest.raises(ValueError):
        Question(id="q", text="t", answer_format=AnswerFormat.NUMERIC,
                 gold=Answer(AnswerFormat.NUMERIC, "not-a-number"))
    with pytest.raises(ValueError):
        Question(id="q", text="t", answer_format=AnswerFormat.YES_NO,
                 gold=Answer.abstained(AnswerFormat.YES_NO))


def test_strategy_kind_parses_cli_spelling():
    assert StrategyKind.parse("questionc-sc") == StrategyKind.QUESTION_C_SC
    assert StrategyKind.parse("PromptC-SC") == StrategyKind.PROMPT_C_SC
    assert StopRule.parse("stable") == StopRule.STABLE_STOP


def test_default_config_temperatures():
    assert default_config(StrategyKind.SC).temperature == 0.8
    assert default_config(StrategyKind.PROMPT_C_SC).temperature == 0.8
    assert default_config(StrategyKind.COT).temperature == 1.0
    assert default_config(StrategyKind.DEEP_COT).temperature == 1.0
    assert default_config(StrategyKind.QUESTION_C).temperature == 1.0


def test_default_config_headline_knobs():
    # the standard comparison setup: three iterations deep, three paths wide
    assert default_config(StrategyKind.DEEP_COT).max_iterations == 3
    assert default_config(StrategyKind.SC).m_samples == 3
    assert default_config(StrategyKind.PROMPT_C_SC).n_reformulations == 3
    assert default_config(StrategyKind.PROMPT_C_SC).m_samples == 1
    assert default_config(StrategyKind.COT).max_iterations == 1
    assert default_config(StrategyKind.SC, m_samples=6).m_samples == 6


@pytest.mark.parametrize("kind,knob", IGNORED_KNOBS, ids=knob_id)
def test_config_rejects_a_knob_its_kind_does_not_read(kind, knob):
    with pytest.raises(ValueError, match=f"{kind.value} ignores {knob}="):
        StrategyConfig(kind, **{knob: NON_DEFAULT_KNOBS[knob]})
    with pytest.raises(ValueError, match=f"{kind.value} ignores {knob}="):
        default_config(kind, **{knob: NON_DEFAULT_KNOBS[knob]})
    # At its field default the knob is neutral, and accepted.
    StrategyConfig(kind, **{knob: getattr(StrategyConfig(StrategyKind.ZERO_SHOT), knob)})


def test_each_kind_sets_the_knobs_it_reads():
    settable = 0
    for kind in StrategyKind:
        for knob in KIND_KNOBS[kind]:
            value = NON_DEFAULT_KNOBS.get(knob, 0.5)
            assert getattr(default_config(kind, **{knob: value}), knob) == value
            settable += 1
        assert default_config(kind).temperature == KIND_KNOBS[kind]["temperature"]
    assert settable == 25
    sampling = {kind for kind in StrategyKind if KIND_KNOBS[kind]["temperature"] == 0.8}
    assert sampling == {StrategyKind.SC, StrategyKind.QUESTION_C_SC, StrategyKind.PROMPT_C_SC}


def test_config_validation():
    with pytest.raises(ValueError):
        StrategyConfig(kind=StrategyKind.SC, m_samples=0)
    with pytest.raises(ValueError, match="n_samples must be >= 1"):
        CompletionRequest("m", "q", n_samples=0)
    # A request checks its temperature when the request layout's memo
    # misses, and a refused one is never memoized, so it is refused again.
    _request_layout.cache_clear()
    CompletionRequest("m", "q", 0.8)
    warm = _request_layout.cache_info().currsize
    for temperature in (-0.1, -1, -1.0, 10 ** 400, float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
            StrategyConfig(kind=StrategyKind.COT, temperature=temperature)
        for _ in range(2):
            with pytest.raises(ValueError, match="temperature must be finite and >= 0"):
                CompletionRequest("m", "q", temperature)
            assert _request_layout.cache_info().currsize == warm
    with pytest.raises(ValueError, match=r"unknown strategy config keys: \['answer_trigger'\]"):
        StrategyConfig.from_dict({"kind": "cot", "answer_trigger": {}})


def test_answer_triggers_are_keyed_by_format_name_and_empty_means_the_defaults():
    cfg = default_config(StrategyKind.SC, answer_triggers={AnswerFormat.YES_NO: "So"})
    assert [type(key) for key in cfg.answer_triggers] == [str]
    assert cfg.to_dict()["answer_triggers"] == {"yes_no": "So"}
    assert StrategyConfig.from_dict(cfg.to_dict()) == cfg
    assert hash(cfg) == hash(default_config(StrategyKind.SC))
    for empty in ({}, None):
        plain = default_config(StrategyKind.SC, answer_triggers=empty)
        assert plain == default_config(StrategyKind.SC) and plain.answer_triggers is None
        assert "answer_triggers" not in plain.to_dict()


@pytest.mark.parametrize("triggers", [{"yes_no": None}, {"yes_no": 3}, {"yes_no": ""},
                                      {"yes/no": "So"}, ["So"]], ids=str)
def test_malformed_answer_triggers_are_a_value_error_naming_them(triggers):
    with pytest.raises(ValueError, match="answer_triggers"):
        default_config(StrategyKind.COT, answer_triggers=triggers)


def test_canonical_prompt_default_text():
    cfg = default_config(StrategyKind.COT)
    assert cfg.canonical_prompt == "Let's think step by step."
    assert cfg.to_dict()["canonical_prompt"] == "Let's think step by step."


def test_serialization_round_trips(toy_shop_question):
    q = toy_shop_question
    assert Question.from_dict(q.to_dict()) == q

    trace = ReasoningTrace(
        question_id=q.id, round=2, reformulation_index=1, sample_index=0,
        assembled_input=q.text + "\nprompt", reasoning_text="r",
        raw_prediction_text="p", parsed=Answer(AnswerFormat.MULTIPLE_CHOICE, "A"),
        usage=Usage(10, 20), latency_ms=5,
    )
    assert ReasoningTrace.from_dict(trace_dict(trace)) == trace

    cfg = default_config(StrategyKind.QUESTION_C_SC, n_reformulations=3, m_samples=2)
    assert StrategyConfig.from_dict(cfg.to_dict()) == cfg
    # a config file may give the stop rule by its CLI name
    assert StrategyConfig.from_dict({**cfg.to_dict(), "stop_rule": "fixed"}) == cfg
    # the prompt is text and nothing else: the object form run records once held is refused
    for prompt in ({"text": "Let's think step by step.", "origin": {"kind": "canonical"}},
                   {"text": "Let's think step by step."}, "", None, ["Reason."]):
        with pytest.raises(ValueError, match="canonical_prompt"):
            StrategyConfig.from_dict({**cfg.to_dict(), "canonical_prompt": prompt})


def test_trace_lines_are_the_canonical_json_of_each_trace():
    # The reference: the trace's whole object, encoded by the generic encoder.
    rng = random.Random(7)

    def text():
        return "".join(rng.choice(ADVERSARIAL_ALPHABET) for _ in range(rng.randint(0, 6)))

    def count():
        return rng.choice([0, rng.randint(1, 999), rng.randint(2 ** 31, 2 ** 64), 10 ** 30])

    seen = set()
    for _ in range(500):
        kind, abstain = rng.choice(list(AnswerFormat)), rng.random() < 0.5
        seen.add((kind, abstain))
        trace = ReasoningTrace(
            question_id=text(), round=1 + count(), reformulation_index=count(),
            sample_index=count(), assembled_input=text(), reasoning_text=text(),
            raw_prediction_text=text(),
            parsed=Answer(kind, "" if abstain else text(), abstain),
            usage=Usage(count(), count()), latency_ms=count())
        line = trace.json_line()
        assert line == canonical_json(trace_dict(trace)) + "\n", trace
        assert ReasoningTrace.from_dict(json.loads(line)) == trace
    assert len(seen) == 2 * len(AnswerFormat)  # every format, abstaining or not


def test_trace_validation():
    parsed = Answer(AnswerFormat.NUMERIC, "1")
    with pytest.raises(ValueError):
        ReasoningTrace(question_id="q", round=0, reformulation_index=0,
                       sample_index=0, assembled_input="q", reasoning_text="",
                       raw_prediction_text="", parsed=parsed)
    with pytest.raises(ValueError):
        ReasoningTrace(question_id="q", round=1, reformulation_index=0,
                       sample_index=0, assembled_input="q", reasoning_text="",
                       raw_prediction_text="", parsed=parsed, latency_ms=-1)
    # A trace line may leave out a field with a default, not one without.
    trace = ReasoningTrace(question_id="q", round=1, reformulation_index=0, sample_index=0,
                           assembled_input="q", reasoning_text="", raw_prediction_text="",
                           parsed=parsed)
    fields = trace_dict(trace)
    assert ReasoningTrace.from_dict({k: v for k, v in fields.items()
                                     if k not in ("usage", "latency_ms")}) == trace
    with pytest.raises(ValueError, match="ReasoningTrace has no field 'round'"):
        ReasoningTrace.from_dict({k: v for k, v in fields.items() if k != "round"})


# The types that write their own ``__init__``, each with arguments that differ
# from every default, in field order.
_OWN_INITS = {
    Usage: {"prompt_tokens": 3, "completion_tokens": 4},
    ReasoningTrace: {"question_id": "q", "round": 2, "reformulation_index": 1,
                     "sample_index": 3, "assembled_input": "q\nprompt", "reasoning_text": "r",
                     "raw_prediction_text": "(A)",
                     "parsed": Answer(AnswerFormat.MULTIPLE_CHOICE, "A"),
                     "usage": Usage(10, 20), "latency_ms": 5},
    CompletionRequest: {"model": "m", "user_text": "q", "temperature": 0.8, "n_samples": 3,
                        "sample_batch_id": 2},
    CompletionResponse: {"texts": ("a", "b"), "usage": Usage(1, 2), "backend": "replay_hit"},
    Answer: {"kind": AnswerFormat.NUMERIC, "value": "42", "abstain": False},
    VoteResult: {"winner": Answer(AnswerFormat.YES_NO, "yes"),
                 "counts": ((Answer(AnswerFormat.YES_NO, "yes"), 2),
                            (Answer(AnswerFormat.YES_NO, "no"), 1)),
                 "tie": False},
}


@pytest.mark.parametrize("cls", list(_OWN_INITS), ids=lambda cls: cls.__name__)
def test_a_written_init_matches_its_dataclass_and_keeps_it_frozen(cls):
    assert "__post_init__" not in vars(cls)
    params = list(inspect.signature(cls).parameters.values())
    assert [p.name for p in params] == [f.name for f in fields(cls)]
    for param, f in zip(params, fields(cls)):
        default = f.default if f.default_factory is MISSING else f.default_factory()
        assert param.default == (inspect.Parameter.empty if default is MISSING else default)
    args = _OWN_INITS[cls]
    value = cls(**args)
    assert {f.name: getattr(value, f.name) for f in fields(cls)} == args
    for name, arg in args.items():
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, arg)
    twin = cls(*args.values())
    assert twin is not value and twin == value and hash(twin) == hash(value)
    assert vars(replace(value)) == vars(value)
    if issubclass(cls, Record):
        assert cls.from_dict(value.to_dict()) == value


@pytest.mark.parametrize("fields", [
    {"round": "1"},
    {"round": 1.0},
    {"round": True},
    {"latency_ms": 2.5},
    {"question_id": None},
    {"parsed": "A"},
    {"parsed": {"kind": "numeric", "value": 1}},
    {"parsed": {"kind": "numeric", "abstain": 0}},
    {"usage": {"prompt_tokens": None}},
    {"usage": {"completion_tokens": "3"}},
])
def test_trace_from_dict_rejects_a_field_of_the_wrong_json_type(fields):
    trace = ReasoningTrace(question_id="q", round=1, reformulation_index=0, sample_index=0,
                           assembled_input="q", reasoning_text="r", raw_prediction_text="1",
                           parsed=Answer(AnswerFormat.NUMERIC, "1"))
    with pytest.raises(ValueError):
        ReasoningTrace.from_dict({**trace_dict(trace), **fields})


_YES = Answer(AnswerFormat.YES_NO, "yes")
_TRACE = ReasoningTrace(question_id="q", round=2, reformulation_index=1, sample_index=3,
                        assembled_input="q\nprompt", reasoning_text="r",
                        raw_prediction_text="yes", parsed=_YES, usage=Usage(10, 20),
                        latency_ms=5)
_OUTCOMES = (QuestionOutcome("q0", _YES, True, rounds=2, trace_count=3),
             QuestionOutcome("q1", Answer.abstained(AnswerFormat.YES_NO), False, rounds=0,
                             error="backend failed"))

# One record of each persisted type, with a field left None where it has one.
RECORDS = [
    Usage(3, 4),
    _YES,
    Answer.abstained(AnswerFormat.NUMERIC),
    Question("q", "Is it?", AnswerFormat.YES_NO, _YES),
    mc_question("m", "Pick one.", "B", choices=(("A", "x"), ("B", "y"))),
    _TRACE,
    *_OUTCOMES,
    RunRecord("r", "coinflip", default_config(StrategyKind.SC).to_dict(), _OUTCOMES, 0.5,
              Usage(7, 9), 1.25, partial=True),
    default_config(StrategyKind.DEEP_COT, max_iterations=2, stop_rule=StopRule.STABLE_STOP),
]


def _record_id(record) -> str:
    return type(record).__name__


def test_every_record_type_has_an_example():
    assert {type(r) for r in RECORDS} == set(Record.__subclasses__())


@pytest.mark.parametrize("record", RECORDS, ids=_record_id)
def test_record_round_trips_through_json(record):
    d = record.to_dict()
    # Every field is written by name, except one that is None.
    assert set(d) == {f.name for f in fields(record) if getattr(record, f.name) is not None}
    assert type(record).from_dict(json.loads(json.dumps(d))) == record


@pytest.mark.parametrize("record", RECORDS, ids=_record_id)
def test_record_from_dict_rejects_a_missing_mistyped_or_negative_field(record):
    cls, d = type(record), json.loads(json.dumps(record.to_dict()))
    for f in fields(record):
        if f.default is MISSING and f.default_factory is MISSING:
            with pytest.raises(ValueError, match=f"{cls.__name__} has no field {f.name!r}"):
                cls.from_dict({k: v for k, v in d.items() if k != f.name})
        if f.name not in d:
            continue
        # No field that holds a number takes a string, and no other takes a number.
        wrong = "x" if isinstance(d[f.name], (int, float)) else 5
        with pytest.raises(ValueError, match=f"{cls.__name__} field {f.name!r}"):
            cls.from_dict({**d, f.name: wrong})
        if f.type == "int":
            with pytest.raises(ValueError, match=f"{f.name!r} must be int >= 0, got -1"):
                cls.from_dict({**d, f.name: -1})


def test_is_count_takes_json_ints_at_or_above_zero():
    assert all(is_count(v) for v in (0, 1, 12, 2 ** 64))
    assert not any(is_count(v) for v in (-1, -5, True, False, 1.0, 1.9, "12", None, [1]))


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "breadth")


def _name(node) -> str:
    """``X`` of an expression ``X`` or ``module.X``; else empty."""
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_every_exception_class_is_caught_by_name_somewhere():
    # A class no code catches by name is a concept no caller acts on: its
    # raise sites raise the base, with the same message, instead.
    bases, caught = {}, set()
    for filename in sorted(os.listdir(SRC)):
        if not filename.endswith(".py"):
            continue
        with open(os.path.join(SRC, filename), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [_name(base) for base in node.bases]
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
                caught.update(_name(t) for t in types)

    def is_exception(name):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_exception(base) for base in bases.get(name, ()))

    defined = [name for name in sorted(bases) if is_exception(name)]
    assert "LlmIoError" in defined
    uncaught = [name for name in defined if name not in caught]
    assert not uncaught, f"no except clause names {uncaught}"
