import json
import os
import random
import string
import time

import pytest

from breadth.core import (
    AnswerFormat,
    StopRule,
    StrategyKind,
    default_config,
)
from breadth.llmio import ScriptedBackend
from breadth.reformulate import QUESTION_INSTRUCTION
from breadth.strategy import (
    answer_trigger,
    assemble_iteration_input,
    assemble_prediction_input,
    assemble_reasoning_input,
    assemble_zero_shot_input,
    expected_trace_count,
    plan_paths,
    run_breadth,
    run_strategy,
    vote_from_traces,
)
from conftest import MC_TRIGGER, mc_question

PROMPT = "Let's think step by step."
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


# ---------------------------------------------------------------- assembly


def test_reasoning_input_order_and_separator():
    assert assemble_reasoning_input("Q", "G") == "Q\nG"
    assert assemble_reasoning_input("", "G") == "\nG"


def test_prediction_input_order_and_trigger():
    trigger = answer_trigger(AnswerFormat.MULTIPLE_CHOICE)
    assert trigger == "Therefore, among A through E, the answer is"
    assert assemble_prediction_input("Q", "G", "R", trigger) == f"Q\nG\nR\n{trigger}"
    assert answer_trigger(AnswerFormat.NUMERIC) == "Therefore, the answer (arabic numerals) is"
    assert answer_trigger(AnswerFormat.NUMERIC, {AnswerFormat.NUMERIC: "Custom:"}) == "Custom:"


def test_iteration_input_five_parts_in_order():
    assert assemble_iteration_input("Q", "G", "R1", "P1", "G*") == "Q\nG\nR1\nP1\nG*"


def test_iteration_input_split_recovers_parts_property():
    rng = random.Random(5)

    def part():
        alphabet = string.ascii_letters + string.digits + " .,?"
        return "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 40)))

    for _ in range(200):
        parts = [part() for _ in range(5)]
        assembled = assemble_iteration_input(*parts)
        assert assembled.split("\n") == parts


def test_assembly_golden_file():
    with open(os.path.join(DATA_DIR, "assemble_golden.json"), encoding="utf-8") as fh:
        golden = json.load(fh)
    assembled = assemble_reasoning_input(golden["question_text"], golden["prompt_text"])
    assert assembled == golden["expected"]


# ---------------------------------------------------------------- plain CoT


def _cot_script(question, reasoning, prediction, cfg):
    backend = ScriptedBackend()
    trigger = answer_trigger(question.answer_format)
    backend.add_rule(assemble_reasoning_input(question.text, cfg.canonical_prompt.text),
                     [reasoning], exact=True)
    backend.add_rule(
        assemble_prediction_input(question.text, cfg.canonical_prompt.text,
                                  reasoning, trigger),
        [prediction], exact=True)
    return backend


def test_run_cot_two_calls_one_trace():
    q = mc_question("q1", "Pick one. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.COT)
    backend = _cot_script(q, "R", "the answer is (A)", cfg)
    outcome = run_strategy(q, cfg, backend)
    assert len(backend.calls) == 2
    assert len(outcome.traces) == 1
    assert outcome.traces[0].round == 1
    assert outcome.final.value == "A"
    assert outcome.vote.winner == outcome.final
    assert outcome.traces[0].assembled_input.startswith(q.text)


def test_zero_shot_single_call_without_prompt():
    q = mc_question("q1", "Pick one. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.ZERO_SHOT)
    backend = ScriptedBackend({"": ["the answer is (B)"]})
    outcome = run_strategy(q, cfg, backend)
    assert len(backend.calls) == 1
    assert PROMPT not in backend.calls[0].user_text
    assert backend.calls[0].user_text == assemble_zero_shot_input(
        q.text, answer_trigger(q.answer_format))
    assert outcome.final.value == "B"
    assert outcome.traces[0].reasoning_text == ""


# ---------------------------------------------------------------- depth


def _deep_script(question, cfg, rounds):
    """rounds: list of (reasoning, prediction) per iteration."""
    backend = ScriptedBackend()
    prompt = cfg.canonical_prompt.text
    guide = cfg.iteration_guide or prompt
    trigger = answer_trigger(question.answer_format)
    backend.add_rule(assemble_reasoning_input(question.text, prompt), [rounds[0][0]], exact=True)
    for (reasoning, prediction), nxt in zip(rounds, rounds[1:] + [None]):
        backend.add_rule(
            assemble_prediction_input(question.text, prompt, reasoning, trigger),
            [prediction], exact=True)
        if nxt is not None:
            backend.add_rule(
                assemble_iteration_input(question.text, prompt, reasoning,
                                         prediction, guide),
                [nxt[0]], exact=True)
    return backend


def test_deep_fixed_t_runs_exactly_three_rounds():
    q = mc_question("q1", "Pick. Answer Choices: (A) x (B) y (C) z", "C")
    cfg = default_config(StrategyKind.DEEP_COT, max_iterations=3)
    backend = _deep_script(q, cfg, [
        ("R1", "the answer is (A)"),
        ("R2", "the answer is (B)"),
        ("R3", "the answer is (C)"),
    ])
    outcome = run_strategy(q, cfg, backend)
    assert outcome.rounds_executed == 3
    assert len(outcome.traces) == 3
    assert len(backend.calls) == 6
    assert outcome.final.value == "C"
    assert [t.round for t in outcome.traces] == [1, 2, 3]


def test_deep_stable_stop_after_two_equal_predictions():
    q = mc_question("q1", "Pick. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.DEEP_COT, max_iterations=5,
                         stop_rule=StopRule.STABLE_STOP)
    backend = _deep_script(q, cfg, [
        ("R1", "the answer is (A)"),
        ("R2", "the answer is (A)"),
        ("R3", "the answer is (B)"),
    ])
    outcome = run_strategy(q, cfg, backend)
    assert outcome.rounds_executed == 2
    assert outcome.final.value == "A"


def test_deep_abstain_rounds_count_and_continue():
    q = mc_question("q1", "Pick. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.DEEP_COT, max_iterations=3,
                         stop_rule=StopRule.STABLE_STOP)
    backend = _deep_script(q, cfg, [
        ("R1", "no label here"),
        ("R2", "still nothing"),
        ("R3", "the answer is (A)"),
    ])
    outcome = run_strategy(q, cfg, backend)
    # two consecutive abstentions are not a stable answer
    assert outcome.rounds_executed == 3
    assert outcome.traces[0].parsed.abstain
    assert outcome.final.value == "A"


def test_deep_iteration_guide_defaults_to_canonical_prompt():
    q = mc_question("q1", "Pick. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.DEEP_COT, max_iterations=2)
    backend = _deep_script(q, cfg, [
        ("R1", "the answer is (A)"),
        ("R2", "the answer is (A)"),
    ])
    run_strategy(q, cfg, backend)
    iteration_call = backend.calls[2].user_text
    assert iteration_call.split("\n")[-1] == PROMPT  # guide suffix reuses the prompt


def test_deep_discards_earlier_rounds_from_prediction_inputs():
    q = mc_question("q1", "Pick. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.DEEP_COT, max_iterations=3)
    backend = _deep_script(q, cfg, [
        ("R1SENTINEL", "P1SENTINEL the answer is (A)"),
        ("R2SENTINEL", "P2SENTINEL the answer is (B)"),
        ("R3SENTINEL", "P3SENTINEL the answer is (A)"),
    ])
    run_strategy(q, cfg, backend)
    trigger = answer_trigger(q.answer_format)
    prediction_inputs = [c.user_text for c in backend.calls
                         if c.user_text.endswith(trigger)]
    assert len(prediction_inputs) == 3
    for round_index, text in enumerate(prediction_inputs, start=1):
        assert f"R{round_index}SENTINEL" in text
        for earlier in range(1, round_index):
            assert f"R{earlier}SENTINEL" not in text
            assert f"P{earlier}SENTINEL" not in text


def test_depth_demo_sphere_terminates_with_b(sphere_question):
    q = sphere_question
    cfg = default_config(StrategyKind.DEEP_COT, max_iterations=2)
    backend = _deep_script(q, cfg, [
        ("Step 1: the diagonal is sqrt(250) = 5 sqrt(10), so the diameter is "
         "10 sqrt(10), approximately 31.6228. Among the answer choices provided, "
         "the closest value is (E) 20.8888.",
         "Therefore, among A through E, the answer is (E) 20.8888."),
        ("First, the diagonal of the rectangular solid is sqrt(9 + 16 + 225) = "
         "sqrt(250), approximately 15.8114, and it equals the diameter of the "
         "sphere. The closest value to 15.8114 is (B) 15.8113.",
         "Therefore, among A through E, the answer is (B) 15.8113."),
    ])
    outcome = run_strategy(q, cfg, backend)
    assert outcome.rounds_executed == 2
    assert outcome.traces[0].parsed.value == "E"
    assert outcome.final.value == "B"


# ---------------------------------------------------------------- breadth


def list_reformulator(variants_by_text):
    """Deterministic stand-in for the LLM reformulator."""

    def _reformulate(text, spec, backend, **kwargs):
        out = [text] if spec.include_original else []
        pool = variants_by_text.get(text, [])
        i = 0
        while len(out) < spec.n_variants:
            out.append(pool[i] if i < len(pool) else f"{text} (rewrite {i})")
            i += 1
        return out[: spec.n_variants]

    return _reformulate


def test_breadth_demo_votes_a_from_c_a_a_a(toy_shop_question):
    q = toy_shop_question
    cfg = default_config(StrategyKind.QUESTION_C_SC, n_reformulations=2, m_samples=2)
    variant = "Reworded toy shop question.\nAnswer Choices: (A) 15 (B) 16 (C) 17 (D) 18 (E) 19"
    reformulator = list_reformulator({q.text: [variant]})

    backend = ScriptedBackend()
    trigger = answer_trigger(q.answer_format)
    backend.add_rule(assemble_reasoning_input(q.text, PROMPT), ["RC", "RA1"], exact=True)
    backend.add_rule(assemble_reasoning_input(variant, PROMPT), ["RA2", "RA3"], exact=True)
    backend.add_rule(assemble_prediction_input(q.text, PROMPT, "RC", trigger),
                     ["Therefore, among A through E, the answer is (C) 17."], exact=True)
    backend.add_rule(assemble_prediction_input(q.text, PROMPT, "RA1", trigger),
                     ["The correct answer choice is (A) 15."], exact=True)
    backend.add_rule(assemble_prediction_input(variant, PROMPT, "RA2", trigger),
                     ["Therefore, among A through E, the answer is (A) 15."], exact=True)
    backend.add_rule(assemble_prediction_input(variant, PROMPT, "RA3", trigger),
                     ["Therefore, the correct answer is (A) 15."], exact=True)

    outcome = run_breadth(q, cfg, backend, reformulator=reformulator)
    assert [t.parsed.value for t in outcome.traces] == ["C", "A", "A", "A"]
    assert outcome.final.value == "A"
    counts = {a.value: c for a, c in outcome.vote.counts}
    assert counts == {"A": 3, "C": 1}
    assert not outcome.vote.tie


def test_hybrid_three_by_two_yields_six_traces():
    q = mc_question("q1", "Pick. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.QUESTION_C_SC, n_reformulations=3, m_samples=2)
    backend = ScriptedBackend({"": ["the answer is (A)"] * 100})
    outcome = run_breadth(q, cfg, backend, reformulator=list_reformulator({}))
    assert len(outcome.traces) == 6
    keys = {(t.reformulation_index, t.sample_index) for t in outcome.traces}
    assert keys == {(i, j) for i in range(3) for j in range(2)}


def test_sc_with_m1_reduces_to_cot(toy_shop_question):
    q = toy_shop_question
    cot_cfg = default_config(StrategyKind.COT, temperature=0.8)
    sc_cfg = default_config(StrategyKind.SC, m_samples=1)

    def build():
        backend = ScriptedBackend()
        trigger = answer_trigger(q.answer_format)
        backend.add_rule(assemble_reasoning_input(q.text, PROMPT), ["R"], exact=True)
        backend.add_rule(assemble_prediction_input(q.text, PROMPT, "R", trigger),
                         ["the answer is (A) 15"], exact=True)
        return backend

    cot_outcome = run_strategy(q, cot_cfg, build())
    sc_outcome = run_breadth(q, sc_cfg, build())
    assert sc_outcome.final == cot_outcome.final
    assert len(sc_outcome.traces) == len(cot_outcome.traces) == 1


def test_prompt_rewriting_strategy_uses_prompt_variants(toy_shop_question):
    q = toy_shop_question
    cfg = default_config(StrategyKind.PROMPT_C, n_reformulations=3)
    prompts = ["Let's approach this systematically, one step at a time.",
               "Let's break it down systematically."]
    reformulator = list_reformulator({PROMPT: prompts})
    backend = ScriptedBackend()
    trigger = answer_trigger(q.answer_format)
    for i, prompt in enumerate([PROMPT] + prompts):
        backend.add_rule(assemble_reasoning_input(q.text, prompt), [f"R{i}"], exact=True)
        backend.add_rule(assemble_prediction_input(q.text, prompt, f"R{i}", trigger),
                         [f"the answer is ({'CAB'[i]})"], exact=True)
    outcome = run_breadth(q, cfg, backend, reformulator=reformulator)
    assert len(outcome.traces) == 3  # m forced to 1
    assert [t.parsed.value for t in outcome.traces] == ["C", "A", "B"]


def test_failed_path_becomes_abstention_and_vote_proceeds(toy_shop_question):
    q = toy_shop_question
    cfg = default_config(StrategyKind.SC, m_samples=2)
    backend = ScriptedBackend()
    trigger = answer_trigger(q.answer_format)
    backend.add_rule(assemble_reasoning_input(q.text, PROMPT), ["R0", "R1"], exact=True)
    # Only one prediction rule: the other path's call fails once, unretried,
    # and the path abstains.
    backend.add_rule(assemble_prediction_input(q.text, PROMPT, "R0", trigger),
                     ["the answer is (B) 16"], exact=True)
    outcome = run_breadth(q, cfg, backend)
    assert len(outcome.traces) == 2
    assert outcome.traces[0].parsed.value == "B"
    assert outcome.traces[1].parsed.abstain
    assert outcome.final.value == "B"
    assert outcome.vote.abstained == 1
    assert len(backend.calls) == 3  # one reasoning call, two predictions


def test_backend_error_carries_question_id():
    from breadth.strategy import StrategyError

    q = mc_question("q-broken", "Pick. Answer Choices: (A) x (B) y", "A")
    with pytest.raises(StrategyError) as err:
        run_strategy(q, default_config(StrategyKind.COT), ScriptedBackend())
    assert "q-broken" in str(err.value)


# -------------------------------------------------------- path-count law


def _catch_all_backend():
    return ScriptedBackend({"": ["the answer is (A)"] * 3000})


def test_path_count_law_over_random_configs():
    rng = random.Random(42)
    kinds = list(StrategyKind)
    q = mc_question("law", "Probe. Answer Choices: (A) x (B) y", "A")
    for _ in range(200):
        kind = rng.choice(kinds)
        cfg = default_config(
            kind,
            n_reformulations=rng.randint(1, 5),
            m_samples=rng.randint(1, 5),
            max_iterations=rng.randint(1, 3),
        )
        outcome = run_strategy(q, cfg, _catch_all_backend())
        assert len(outcome.traces) == expected_trace_count(cfg), cfg
        unique = {t.path_key() for t in outcome.traces}
        assert len(unique) == len(outcome.traces)


def test_breadth_vote_is_arrival_order_invariant(toy_shop_question):
    q = toy_shop_question
    cfg = default_config(StrategyKind.QUESTION_C_SC, n_reformulations=3, m_samples=2)
    backend = ScriptedBackend({
        "": ["the answer is (A)"] * 6 + ["the answer is (B)"] * 20,
    })
    outcome = run_breadth(q, cfg, backend, reformulator=list_reformulator({}))
    rng = random.Random(9)
    for _ in range(20):
        shuffled = list(outcome.traces)
        rng.shuffle(shuffled)
        assert vote_from_traces(shuffled) == outcome.vote


def test_sc_budget_matches_hybrid_budget():
    q = mc_question("budget", "Probe. Answer Choices: (A) x (B) y", "A")
    for n, m in [(2, 2), (3, 2), (3, 3), (5, 1)]:
        hybrid = run_strategy(
            q, default_config(StrategyKind.QUESTION_C_SC, n_reformulations=n, m_samples=m),
            _catch_all_backend(), reformulator=list_reformulator({}))
        matched_sc = run_strategy(
            q, default_config(StrategyKind.SC, m_samples=n * m), _catch_all_backend())
        assert len(hybrid.traces) == len(matched_sc.traces) == n * m


def test_question_rewriting_goes_through_backend(toy_shop_question):
    # Without an injected reformulator the strategy drives the real one.
    q = toy_shop_question
    cfg = default_config(StrategyKind.QUESTION_C, n_reformulations=2)
    backend = ScriptedBackend()
    backend.add_rule(QUESTION_INSTRUCTION, ["Fresh wording of the toy question?"])
    backend.add_rule("step by step", ["R"] * 2)
    backend.add_rule(MC_TRIGGER, ["the answer is (A)", "the answer is (A)"])
    outcome = run_breadth(q, cfg, backend)
    assert len(outcome.traces) == 2
    rewritten = outcome.traces[1].assembled_input
    assert rewritten.startswith("Fresh wording of the toy question?")
    assert "Answer Choices: (A) 15" in rewritten  # choice block re-appended


# ---------------------------------------------------------------- planning


def test_batched_reasoning_latency_is_carried_by_sample_zero():
    class SleepingBackend(ScriptedBackend):
        deterministic = False

        def complete(self, req):
            time.sleep(0.02)
            return super().complete(req)

    q = mc_question("q1", "Pick. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.SC, m_samples=2)
    backend = SleepingBackend({PROMPT: ["R1", "R2"], MC_TRIGGER: ["the answer is (A)"] * 2})
    outcome = run_strategy(q, cfg, backend)
    latencies = [t.latency_ms for t in outcome.traces]
    assert len(backend.calls) == 3
    # One reasoning call for both samples, then one prediction call each.
    assert sum(latencies) >= 60
    assert latencies[0] >= 40


def test_blank_question_text_warns_upstream(caplog):
    from breadth.core import Answer, Question

    q = Question(id="blank", text="  ", answer_format=AnswerFormat.NUMERIC,
                 gold=Answer(AnswerFormat.NUMERIC, "1"))
    backend = ScriptedBackend({"": ["the answer is 1"] * 4})
    with caplog.at_level("WARNING"):
        run_strategy(q, default_config(StrategyKind.COT), backend)
    assert any("empty text" in r.message for r in caplog.records)


def test_plan_paths_counts_match_the_law():
    q = mc_question("plan", "Probe. Answer Choices: (A) x (B) y", "A")
    for kind, n, m, expect in [
        (StrategyKind.QUESTION_C_SC, 3, 2, 6),
        (StrategyKind.SC, 1, 4, 4),
        (StrategyKind.PROMPT_C, 3, 5, 3),
        (StrategyKind.COT, 1, 1, 1),
    ]:
        cfg = default_config(kind, n_reformulations=n, m_samples=m)
        plans = plan_paths(q, cfg)
        assert len(plans) == expect == expected_trace_count(cfg)
        assert all(p["input"] for p in plans)
