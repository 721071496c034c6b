import math
import random

import pytest

from breadth.core import Answer, AnswerFormat, canonical_answer
from breadth.diversity import (
    Factor,
    check_study,
    prediction_entropy,
    report_to_csv,
    run_factor_study,
)
from breadth.llmio import ScriptedBackend
from breadth.reformulate import QUESTION_INSTRUCTION
from conftest import MC_TRIGGER, mc_question, paper_reference_table

MC = AnswerFormat.MULTIPLE_CHOICE


def mc(label):
    return Answer(MC, label)


# ---------------------------------------------------------------- entropy


def test_entropy_degenerate_distribution_is_zero():
    assert prediction_entropy([mc("A")] * 10) == pytest.approx(0.0, abs=1e-12)


def test_entropy_uniform_ten_is_ln_ten():
    answers = [Answer(AnswerFormat.FREE_FORM, f"distinct {i}") for i in range(10)]
    assert prediction_entropy(answers) == pytest.approx(math.log(10), abs=1e-9)


def test_entropy_five_three_two_matches_hand_value():
    answers = [mc("A")] * 5 + [mc("B")] * 3 + [mc("C")] * 2
    assert prediction_entropy(answers) == pytest.approx(1.02965, abs=1e-5)


def test_entropy_empty_input():
    with pytest.raises(ValueError, match="^prediction_entropy needs at least one answer$"):
        prediction_entropy([])


def test_abstentions_form_one_outcome_class():
    answers = [Answer.abstained(MC), Answer.abstained(MC), mc("A"), mc("A")]
    # two classes, 50/50
    assert prediction_entropy(answers) == pytest.approx(math.log(2), abs=1e-12)


def test_answers_of_a_plain_string_kind_are_counted_like_any_other():
    answers = [canonical_answer("yes", "yes_no"), canonical_answer("no", "yes_no")]
    assert prediction_entropy(answers) == pytest.approx(math.log(2), abs=1e-12)
    # Equal answers are one class, whatever type their kind is given as.
    assert prediction_entropy([canonical_answer("yes", "yes_no"),
                               Answer(AnswerFormat.YES_NO, "yes")]) == 0.0


def test_entropy_bounded_and_permutation_invariant():
    rng = random.Random(31)
    for _ in range(200):
        k = rng.randint(1, 12)
        answers = [mc(rng.choice("ABCDE")) for _ in range(k)]
        value = prediction_entropy(answers)
        assert 0.0 <= value <= math.log(k) + 1e-12
        shuffled = answers[:]
        rng.shuffle(shuffled)
        assert prediction_entropy(shuffled) == pytest.approx(value, abs=1e-12)


def test_merging_two_classes_never_increases_entropy():
    rng = random.Random(37)
    for _ in range(200):
        labels = [rng.choice("ABCD") for _ in range(rng.randint(2, 12))]
        before = prediction_entropy([mc(l) for l in labels])
        merged = [mc("A" if l == "B" else l) for l in labels]
        after = prediction_entropy(merged)
        assert after <= before + 1e-12


# ---------------------------------------------------------------- factors


def test_factor_parse_aliases():
    assert Factor.parse("question") == Factor.QUESTION_REWORDING
    assert Factor.parse("model-perturbation") == Factor.MODEL_PERTURBATION
    spellings = {
        "question": Factor.QUESTION_REWORDING, "question_rewording": Factor.QUESTION_REWORDING,
        "prompt": Factor.PROMPT_REWORDING, "prompt_rewording": Factor.PROMPT_REWORDING,
        "llms": Factor.MODEL_PERTURBATION, "model": Factor.MODEL_PERTURBATION,
        "model_perturbation": Factor.MODEL_PERTURBATION, "sampling": Factor.SAMPLING,
    }
    for name, factor in spellings.items():
        assert Factor.parse(name) == Factor.parse(f" {name.upper().replace('_', '-')} ") == factor
    with pytest.raises(ValueError):
        Factor.parse("nonsense")


def test_model_perturbation_constructible_but_not_runnable():
    q = mc_question("q0", "Pick. Answer Choices: (A) x (B) y", "A")
    backend = ScriptedBackend()  # no rules: any call would fail
    results = run_factor_study([q], [Factor.MODEL_PERTURBATION], 10, backend)
    assert results == {} and backend.calls == []


def _uniform_backend(answer_texts):
    """Answers every reasoning call generically and prediction calls per list."""
    backend = ScriptedBackend()
    backend.add_rule(QUESTION_INSTRUCTION, [f"Variant wording {i}?" for i in range(40)])
    backend.add_rule("", ["reasoning text"] * 200)
    backend.add_rule(MC_TRIGGER, list(answer_texts))
    return backend


def test_all_identical_answers_give_zero_entropy_per_factor():
    q = mc_question("q0", "Pick. Answer Choices: (A) x (B) y", "A")
    factors = [Factor.QUESTION_REWORDING, Factor.PROMPT_REWORDING, Factor.SAMPLING]
    backend = _uniform_backend(["the answer is (A)"] * 30)
    results = run_factor_study([q], factors, 10, backend)
    for factor in factors:
        assert results[factor].entropy_nats == pytest.approx(0.0, abs=1e-12)
        assert len(results[factor].per_question["q0"]) == 10


def test_ten_distinct_answers_give_ln_ten_per_factor():
    from breadth.core import Question

    q = Question(id="q0", text="How many?", answer_format=AnswerFormat.NUMERIC,
                 gold=Answer(AnswerFormat.NUMERIC, "1"))
    factors = [Factor.QUESTION_REWORDING, Factor.PROMPT_REWORDING, Factor.SAMPLING]
    backend = ScriptedBackend()
    backend.add_rule(QUESTION_INSTRUCTION, [f"Variant wording {i}?" for i in range(40)])
    backend.add_rule("", ["reasoning text"] * 200)
    backend.add_rule("Therefore, the answer (arabic numerals) is",
                     [f"the answer is {i}" for i in range(1, 11)] * 3)
    results = run_factor_study([q], factors, 10, backend)
    for factor in factors:
        assert results[factor].entropy_nats == pytest.approx(math.log(10), abs=1e-9)


def test_a_factor_of_zero_entropy_prints_an_unsigned_zero():
    questions = [mc_question(f"q{i}", "Pick. Answer Choices: (A) x (B) y", "A")
                 for i in range(3)]
    results = run_factor_study(questions, [Factor.SAMPLING], 4,
                               _uniform_backend(["the answer is (B)"] * 12))
    assert math.copysign(1.0, results[Factor.SAMPLING].entropy_nats) == 1.0
    assert report_to_csv("toy", results, [Factor.SAMPLING]).splitlines()[1] == "toy,0.0000"


def test_sampling_factor_samples_at_low_temperature():
    q = mc_question("q0", "Pick. Answer Choices: (A) x (B) y", "A")
    backend = _uniform_backend(["the answer is (A)"] * 10)
    run_factor_study([q], [Factor.SAMPLING], 10, backend)
    sampling_calls = [c for c in backend.calls if c.n_samples == 10]
    assert sampling_calls and all(c.temperature == 0.8 for c in sampling_calls)


def test_question_factor_includes_original_as_first_context():
    q = mc_question("q0", "Pick. Answer Choices: (A) x (B) y", "A")
    backend = _uniform_backend(["the answer is (A)"] * 10)
    results = run_factor_study([q], [Factor.QUESTION_REWORDING], 10, backend)
    reasoning_calls = [c.user_text for c in backend.calls
                       if c.user_text.endswith("Let's think step by step.")]
    assert reasoning_calls[0].startswith("Pick. ")
    assert len(results[Factor.QUESTION_REWORDING].per_question["q0"]) == 10


def test_mean_per_question_entropy_and_pooled_reported():
    q1 = mc_question("q1", "One. Answer Choices: (A) x (B) y", "A")
    q2 = mc_question("q2", "Two. Answer Choices: (A) x (B) y", "A")
    backend = ScriptedBackend()
    backend.add_rule("", ["reasoning"] * 50)
    backend.add_rule(MC_TRIGGER,
                     ["the answer is (A)"] * 10 + ["the answer is (B)"] * 10)
    result = run_factor_study([q1, q2], [Factor.SAMPLING], 10, backend)[Factor.SAMPLING]
    assert result.entropy_nats == pytest.approx(0.0, abs=1e-12)  # each question pure


# ---------------------------------------------------------------- reporting


def test_prompt_factor_k_is_capped_by_the_bank():
    # k is checked before any factor runs, so no factor makes a call.
    q = mc_question("q0", "Pick. Answer Choices: (A) x (B) y", "A")
    backend = _uniform_backend(["the answer is (A)"] * 30)
    with pytest.raises(ValueError, match="at most 10 paths, got 11"):
        run_factor_study([q], [Factor.SAMPLING, Factor.PROMPT_REWORDING], 11, backend)
    with pytest.raises(ValueError, match="k must be >= 1"):
        run_factor_study([q], [Factor.SAMPLING], 0, backend)
    assert backend.calls == []
    results = run_factor_study([q], [Factor.PROMPT_REWORDING], 10, backend)
    assert len(results[Factor.PROMPT_REWORDING].per_question["q0"]) == 10
    results = run_factor_study([q], [Factor.SAMPLING], 11, backend)
    assert len(results[Factor.SAMPLING].per_question["q0"]) == 11


def test_factor_with_every_question_failed_renders_an_empty_cell():
    q = mc_question("q0", "Pick. Answer Choices: (A) x (B) y", "A")
    backend = ScriptedBackend()  # no rules: the rewrite call fails
    results = run_factor_study([q], [Factor.QUESTION_REWORDING], 3, backend)
    result = results[Factor.QUESTION_REWORDING]
    assert result.failed == ("q0",) and result.per_question == {}
    assert result.entropy_nats is None
    lines = report_to_csv("toy", results, factors=[Factor.QUESTION_REWORDING]).splitlines()
    assert lines[1] == "toy,"
    assert lines[-1] == "# question: 1 of 1 questions failed"


def test_reference_table_is_consistent_with_ten_paths():
    table = paper_reference_table()
    assert set(table) == {"AQuA", "AddSub", "Avg."}
    for row in table.values():
        for value in row.values():
            assert 0.0 <= value <= math.log(10)
    assert table["AQuA"]["question"] == pytest.approx(1.61)
    assert table["AQuA"]["prompt"] == pytest.approx(2.06)
    assert table["AQuA"]["sampling"] == pytest.approx(1.52)


def test_csv_layout_rows_datasets_columns_factors():
    q = mc_question("q0", "Pick. Answer Choices: (A) x (B) y", "A")
    backend = _uniform_backend(["the answer is (A)"] * 10)
    results = run_factor_study([q], [Factor.SAMPLING], 10, backend)
    csv_text = report_to_csv("aqua-subset", results,
                             factors=[Factor.SAMPLING, Factor.MODEL_PERTURBATION])
    lines = csv_text.strip().splitlines()
    assert lines[0] == "dataset,sampling,llms"
    assert lines[1].startswith("aqua-subset,0.0000,unsupported")
    assert lines[-1].startswith("#")  # unsupported-factor footnote
    assert "0.010-0.020" in lines[-1]


def test_a_study_of_no_questions_is_refused():
    with pytest.raises(ValueError, match="^factor study needs at least one question$"):
        check_study([], [Factor.SAMPLING], 3)
