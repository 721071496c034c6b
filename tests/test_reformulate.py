import pytest

from breadth.core import CANONICAL_COT_PROMPT
from breadth.llmio import ScriptedBackend
from breadth.reformulate import (
    PROMPT_BANK,
    PROMPT_INSTRUCTION,
    QUESTION_INSTRUCTION,
    ReformulationSpec,
    ReformulationTarget,
    reformulate,
    split_choice_block,
)


def test_prompt_bank_contents_and_order():
    assert isinstance(PROMPT_BANK, tuple) and len(PROMPT_BANK) == 10
    assert PROMPT_BANK[0] == "Here are the steps we can follow to achieve our goal."
    assert PROMPT_BANK[5] == "Let's take it one step at a time."
    assert PROMPT_BANK[9] == "Let's think step by step." == CANONICAL_COT_PROMPT


def test_default_instructions_per_target():
    q = ReformulationSpec(ReformulationTarget.QUESTION, 2)
    p = ReformulationSpec(ReformulationTarget.PROMPT, 2)
    assert q.instruction() == QUESTION_INSTRUCTION
    assert p.instruction() == PROMPT_INSTRUCTION
    assert q.instruction().startswith("Significantly rephrase the following question")
    assert p.instruction().startswith("Rephrase the following sentence")


def test_identity_case_makes_no_backend_calls():
    backend = ScriptedBackend()  # would raise LlmIoError if called
    spec = ReformulationSpec(ReformulationTarget.QUESTION, 1, include_original=True)
    assert reformulate("original text", spec, backend) == ["original text"]
    assert backend.calls == []


def test_scripted_prompt_rewrites_pass_through_in_order():
    backend = ScriptedBackend({
        PROMPT_INSTRUCTION: ["Rewrite one.", "Rewrite two.", "Rewrite three."],
    })
    spec = ReformulationSpec(ReformulationTarget.PROMPT, 3)
    result = reformulate("Let's think step by step.", spec, backend)
    assert result == ["Rewrite one.", "Rewrite two.", "Rewrite three."]


def test_include_original_keeps_element_zero_verbatim():
    backend = ScriptedBackend({
        QUESTION_INSTRUCTION: [f"Variant {i}" for i in range(1, 10)],
    })
    spec = ReformulationSpec(ReformulationTarget.QUESTION, 10, include_original=True)
    result = reformulate("The original question?", spec, backend)
    assert len(result) == 10
    assert result[0] == "The original question?"
    assert result[1:] == [f"Variant {i}" for i in range(1, 10)]


def test_duplicates_are_regenerated_within_retry_budget():
    backend = ScriptedBackend({
        QUESTION_INSTRUCTION: ["Same thing", "same  THING", "A fresh wording"],
    })
    spec = ReformulationSpec(ReformulationTarget.QUESTION, 2)
    result = reformulate("anything", spec, backend)
    assert result == ["Same thing", "A fresh wording"]


def test_exhausted_retry_budget_keeps_flagged_duplicate():
    backend = ScriptedBackend({
        QUESTION_INSTRUCTION: ["dup", "dup", "dup", "dup"],
    })
    spec = ReformulationSpec(ReformulationTarget.QUESTION, 2)
    result = reformulate("anything", spec, backend)
    assert len(result) == 2  # never fewer than n_variants
    assert result == ["dup", "dup"]


def test_a_rewrite_echoing_a_choice_questions_stem_is_regenerated():
    # The original is kept whole, choices block included; a rewrite of its
    # stem that echoes the stem is a duplicate of it all the same.
    text = "How many legs has a cat?\nAnswer Choices: (A) 2 (B) 4"
    backend = ScriptedBackend({
        QUESTION_INSTRUCTION: ["How many legs has a cat?", "A cat has how many legs?"],
    })
    spec = ReformulationSpec(ReformulationTarget.QUESTION, 2, include_original=True)
    result = reformulate(text, spec, backend)
    assert result == [text, "A cat has how many legs?\nAnswer Choices: (A) 2 (B) 4"]
    assert len(backend.calls) == 2


def test_blank_variants_are_regenerated():
    backend = ScriptedBackend({
        QUESTION_INSTRUCTION: ["", "   ", "Usable rewording"],
    })
    spec = ReformulationSpec(ReformulationTarget.QUESTION, 1)
    assert reformulate("anything", spec, backend) == ["Usable rewording"]


def test_a_variant_blank_after_every_retry_is_the_stem_with_its_choices():
    # Three blank rewrites use the whole retry budget of one variant.
    text = "How many legs has a cat?\nAnswer Choices: (A) 2 (B) 4"
    backend = ScriptedBackend({QUESTION_INSTRUCTION: ["", " ", "\n"]})
    spec = ReformulationSpec(ReformulationTarget.QUESTION, 1)
    assert reformulate(text, spec, backend) == [text]
    assert len(backend.calls) == 3


def test_a_retry_logs_at_info_and_a_variant_kept_after_its_retries_warns(caplog):
    backend = ScriptedBackend({PROMPT_INSTRUCTION: [CANONICAL_COT_PROMPT, "Go slowly.",
                                                    "", " ", "go  SLOWLY."]})
    spec = ReformulationSpec(ReformulationTarget.PROMPT, 3, include_original=True)
    with caplog.at_level("INFO", logger="breadth.reformulate"):
        result = reformulate(CANONICAL_COT_PROMPT, spec, backend)
    assert result == [CANONICAL_COT_PROMPT, "Go slowly.", "go  SLOWLY."]
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("INFO", "duplicate reformulation for variant 0, regenerating"),
        ("INFO", "blank reformulation for variant 1, regenerating"),
        ("INFO", "blank reformulation for variant 1, regenerating"),
        ("WARNING", "variant 1 still a duplicate after retries, keeping it"),
    ]


def test_choice_block_is_never_rewritten():
    text = ("How many toys? Answer Choices: (A) 15 (B) 16 (C) 17")
    stem, block = split_choice_block(text)
    assert stem == "How many toys? "
    assert block == "Answer Choices: (A) 15 (B) 16 (C) 17"

    backend = ScriptedBackend()
    backend.add_rule(QUESTION_INSTRUCTION, ["What is the toy count?"])
    spec = ReformulationSpec(ReformulationTarget.QUESTION, 1)
    result = reformulate(text, spec, backend)
    assert result == ["What is the toy count?\nAnswer Choices: (A) 15 (B) 16 (C) 17"]
    # the rewrite request carried only the stem
    assert backend.calls[0].user_text == f"{QUESTION_INSTRUCTION}\nHow many toys? "


def test_deterministic_under_scripted_backend():
    def build():
        return ScriptedBackend({PROMPT_INSTRUCTION: ["One.", "Two."]})

    spec = ReformulationSpec(ReformulationTarget.PROMPT, 2)
    first = reformulate("Prompt text.", spec, build())
    second = reformulate("Prompt text.", spec, build())
    assert first == second


def test_rewrite_requests_use_distinct_batch_ids():
    backend = ScriptedBackend({PROMPT_INSTRUCTION: ["One.", "Two.", "Three."]})
    spec = ReformulationSpec(ReformulationTarget.PROMPT, 3)
    reformulate("Prompt text.", spec, backend)
    batch_ids = [c.sample_batch_id for c in backend.calls]
    assert len(set(batch_ids)) == 3  # replay-safe: identical texts, distinct keys


def test_empty_text_rejected():
    with pytest.raises(ValueError):
        reformulate("", ReformulationSpec(ReformulationTarget.PROMPT, 1),
                    ScriptedBackend())
