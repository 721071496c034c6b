import itertools
import json
import random
import time
from importlib import resources

import pytest

from breadth.core import Answer, AnswerFormat, canonical_answer
from breadth.extract import EmptyInputError, _raw_answer, extract_answer, majority_vote
from conftest import evaluate_corpus, load_corpus

MC = AnswerFormat.MULTIPLE_CHOICE


def mc(label):
    return Answer(MC, label)


# ---------------------------------------------------------------- extraction


def test_demo_corpus_is_parsed_exactly_and_fast():
    entries = load_corpus()
    assert len(entries) >= 12
    started = time.monotonic()
    failures = evaluate_corpus(entries)
    elapsed = time.monotonic() - started
    assert failures == []
    assert elapsed < 1.0


def test_trigger_parse_examples():
    assert extract_answer(
        "Therefore, among A through E, the answer is (B) 15.8113.", MC).value == "B"
    assert extract_answer(
        "The correct answer choice is (D) 65,000.", MC).value == "D"
    text = ("Number of bags = 120\n"
            "Therefore, the grocer sold **120 bags**")
    assert extract_answer(text, AnswerFormat.NUMERIC).value == "120"
    assert extract_answer("", MC).abstain
    assert extract_answer("   \n ", MC).abstain


def test_last_trigger_occurrence_wins():
    text = ("the answer is (C).\nWait, on reflection "
            "the answer is (A).")
    assert extract_answer(text, MC).value == "A"


def test_labels_preferred_over_values():
    choices = (("A", "15"), ("B", "16"))
    assert extract_answer("the answer is (A) 15", MC, choices).value == "A"


def test_choices_restrict_label_space():
    choices = (("A", "x"), ("B", "y"))
    assert extract_answer("the answer is (C)", MC, choices).abstain
    assert extract_answer("the answer is (B)", MC, choices).value == "B"


def test_multiple_choice_fallback_last_paren_label():
    text = "Possibilities include (A) and (B), but mostly (D) appeals."
    assert extract_answer(text, MC).value == "D"


def test_numeric_fallback_uses_final_sentence():
    text = "We compute 10 * 12 = 120.\nSo there are 120 apples in 4 boxes."
    assert extract_answer(text, AnswerFormat.NUMERIC).value == "4"
    assert extract_answer("All apples. None counted.", AnswerFormat.NUMERIC).abstain


def test_numeric_accepts_separators_and_approx():
    assert extract_answer("the answer is $3,000", AnswerFormat.NUMERIC).value == "3000"
    assert extract_answer("the answer is approximately 15.8114",
                          AnswerFormat.NUMERIC).value == "15.8114"


def test_yes_no_last_token():
    text = "No wait. Considering the flips, the coin is heads up. So yes."
    assert extract_answer(text, AnswerFormat.YES_NO).value == "yes"
    assert extract_answer("Therefore, the answer (Yes or No) is No.",
                          AnswerFormat.YES_NO).value == "no"


def test_free_form_quoted_bold_then_last_line():
    assert extract_answer('the answer is "nkls".', AnswerFormat.FREE_FORM).value == "nkls"
    assert extract_answer("Concatenating gives **nkls** overall.",
                          AnswerFormat.FREE_FORM).value == "nkls"
    assert extract_answer("Some reasoning.\nnkls", AnswerFormat.FREE_FORM).value == "nkls"


def test_trigger_lists_ship_as_data():
    shipped = resources.files("breadth").joinpath("data/answer_triggers.json")
    phrases = json.loads(shipped.read_text(encoding="utf-8"))[MC.value]
    assert "the answer is" in phrases
    assert all(p == p.lower() for p in phrases)


# ---------------------------------------------------------------- memo

# Every case the tests above parse: (text, format, choices).
EXTRACTION_CASES = [
    ("Therefore, among A through E, the answer is (B) 15.8113.", MC, None),
    ("The correct answer choice is (D) 65,000.", MC, None),
    ("Number of bags = 120\nTherefore, the grocer sold **120 bags**", AnswerFormat.NUMERIC, None),
    ("the answer is (C).\nWait, on reflection the answer is (A).", MC, None),
    ("the answer is (A) 15", MC, (("A", "15"), ("B", "16"))),
    ("the answer is (C)", MC, (("A", "x"), ("B", "y"))),
    ("the answer is (B)", MC, (("A", "x"), ("B", "y"))),
    ("Possibilities include (A) and (B), but mostly (D) appeals.", MC, None),
    ("We compute 10 * 12 = 120.\nSo there are 120 apples in 4 boxes.",
     AnswerFormat.NUMERIC, None),
    ("All apples. None counted.", AnswerFormat.NUMERIC, None),
    ("the answer is $3,000", AnswerFormat.NUMERIC, None),
    ("the answer is approximately 15.8114", AnswerFormat.NUMERIC, None),
    ("No wait. Considering the flips, the coin is heads up. So yes.", AnswerFormat.YES_NO, None),
    ("Therefore, the answer (Yes or No) is No.", AnswerFormat.YES_NO, None),
    ('the answer is "nkls".', AnswerFormat.FREE_FORM, None),
    ("Concatenating gives **nkls** overall.", AnswerFormat.FREE_FORM, None),
    ("Some reasoning.\nnkls", AnswerFormat.FREE_FORM, None),
]
OTHER_LABELS = (None, (("A", "x"), ("B", "y")), (("C", "x"), ("D", "y")))


def _clear_memos():
    _raw_answer.cache_clear()
    canonical_answer.cache_clear()


def test_a_text_parses_the_same_cold_warm_and_after_other_formats_and_labels():
    cases = EXTRACTION_CASES + [(entry["text"], AnswerFormat(entry["format"]), None)
                                for entry in load_corpus()]
    for text, fmt, choices in cases:
        _clear_memos()
        cold = extract_answer(text, fmt, choices)
        warm = extract_answer(text, fmt, choices)
        for other_fmt, other_choices in itertools.product(AnswerFormat, OTHER_LABELS):
            extract_answer(text, other_fmt, other_choices)
        assert cold == warm == extract_answer(text, fmt, choices), (text, fmt, choices)
        assert warm.kind is fmt
    assert evaluate_corpus(load_corpus()) == []


def test_a_text_parses_by_its_own_format_and_labels_whatever_came_before():
    _clear_memos()
    text = "So yes, the answer is (A) 3 apples."
    expected = {AnswerFormat.NUMERIC: "3", MC: "A", AnswerFormat.YES_NO: "yes",
                AnswerFormat.FREE_FORM: "(a) 3 apples"}
    for _ in range(2):
        for fmt, value in expected.items():
            assert extract_answer(text, fmt) == Answer(fmt, value)
    for _ in range(2):
        assert extract_answer("the answer is (C)", MC) == mc("C")
        assert extract_answer("the answer is (C)", MC, OTHER_LABELS[1]).abstain
        assert extract_answer("the answer is (C)", MC, OTHER_LABELS[2]) == mc("C")


def test_choices_given_as_lists_parse():
    choices = [["A", "x"], ["B", "y"]]
    assert extract_answer("the answer is (B)", MC, choices) == mc("B")
    assert extract_answer("the answer is (C)", MC, choices).abstain


def test_equal_answers_share_one_answer_and_the_memos_are_bounded():
    text = "Therefore, among A through E, the answer is (B) 15.8113."
    assert extract_answer(text, MC) is extract_answer(text, MC)
    for i in range(300):
        extract_answer(f"the answer is {i}", AnswerFormat.NUMERIC)
    assert _raw_answer.cache_info().currsize <= 256
    assert canonical_answer.cache_info().currsize <= 256


def test_a_plain_string_format_never_shares_a_memo_entry_with_its_member():
    for order in ("yes_no", AnswerFormat.YES_NO), (AnswerFormat.YES_NO, "yes_no"):
        canonical_answer.cache_clear()
        answers = {type(fmt): canonical_answer("yes", fmt) for fmt in order}
        assert type(answers[str].kind) is str
        assert answers[AnswerFormat].kind is AnswerFormat.YES_NO
        assert answers[AnswerFormat].to_dict() == {"kind": "yes_no", "value": "yes",
                                                   "abstain": False}


# ---------------------------------------------------------------- voting


def test_majority_vote_simple_and_tie():
    result = majority_vote([mc("A"), mc("A"), mc("B")])
    assert result.winner == mc("A")
    assert not result.tie

    tie = majority_vote([mc("A"), mc("B")])
    assert tie.winner == mc("A")  # first occurrence
    assert tie.tie


def test_majority_vote_breadth_demo_counts():
    result = majority_vote([mc("C"), mc("A"), mc("A"), mc("A")])
    assert result.winner == mc("A")
    assert dict((a.value, c) for a, c in result.counts) == {"A": 3, "C": 1}
    assert result.total_paths == 4
    assert result.abstained == 0


def test_majority_vote_excludes_abstentions():
    result = majority_vote([Answer.abstained(MC), mc("B"), Answer.abstained(MC)])
    assert result.winner == mc("B")
    assert result.abstained == 2
    all_abstain = majority_vote([Answer.abstained(MC), Answer.abstained(MC)])
    assert all_abstain.winner.abstain
    assert all_abstain.counts == ()


def test_majority_vote_empty_input():
    with pytest.raises(EmptyInputError):
        majority_vote([])


def _oracle_vote(labels):
    """Brute-force max count with first-occurrence tie-break."""
    seen = []
    for label in labels:
        if label not in seen:
            seen.append(label)
    best = max(seen, key=lambda l: (labels.count(l), -seen.index(l)))
    tie = sum(1 for l in set(labels) if labels.count(l) == labels.count(best)) >= 2
    return best, labels.count(best), tie


def test_vote_matches_exhaustive_oracle_over_363_cases():
    cases = 0
    for size in range(1, 6):
        for combo in itertools.product("ABC", repeat=size):
            answers = [mc(l) for l in combo]
            result = majority_vote(answers)
            expect_label, expect_count, expect_tie = _oracle_vote(list(combo))
            assert result.winner == mc(expect_label), combo
            assert dict((a.value, c) for a, c in result.counts)[expect_label] == expect_count
            assert result.tie == expect_tie, combo
            cases += 1
    assert cases == 363


def test_winner_count_is_permutation_invariant():
    rng = random.Random(17)
    for _ in range(100):
        labels = [rng.choice("ABC") for _ in range(rng.randint(1, 8))]
        answers = [mc(l) for l in labels]
        base = majority_vote(answers)
        shuffled = answers[:]
        rng.shuffle(shuffled)
        permuted = majority_vote(shuffled)
        base_max = max(c for _, c in base.counts)
        permuted_max = max(c for _, c in permuted.counts)
        assert base_max == permuted_max
        if not base.tie:
            assert permuted.winner == base.winner


def test_adding_abstention_never_changes_winner():
    rng = random.Random(23)
    for _ in range(100):
        labels = [rng.choice("ABC") for _ in range(rng.randint(1, 8))]
        answers = [mc(l) for l in labels]
        base = majority_vote(answers)
        position = rng.randint(0, len(answers))
        padded = answers[:position] + [Answer.abstained(MC)] + answers[position:]
        assert majority_vote(padded).winner == base.winner


def test_canonicalized_equal_answers_pool_together():
    votes = [canonical_answer("15.0", AnswerFormat.NUMERIC),
             canonical_answer("15", AnswerFormat.NUMERIC),
             canonical_answer("16", AnswerFormat.NUMERIC)]
    result = majority_vote(votes)
    assert result.winner.value == "15"
    assert dict((a.value, c) for a, c in result.counts) == {"15": 2, "16": 1}
