"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -v -s`` to see them)."""

import itertools
import json
import math
import random
import time

import pytest

from breadth.bench import (
    dataset_spec,
    generate_synthetic,
    load_dataset,
    run_experiment,
)
from breadth.core import Answer, AnswerFormat, StrategyKind, default_config
from breadth.diversity import paper_reference_table, prediction_entropy
from breadth.extract import evaluate_corpus, load_corpus, majority_vote
from breadth.llmio import RecordingBackend, ReplayBackend, ReplayStore, ScriptedBackend
from breadth.strategy import (
    answer_trigger,
    assemble_iteration_input,
    assemble_prediction_input,
    assemble_reasoning_input,
    expected_trace_count,
    run_breadth,
    run_strategy,
)
from breadth.votemodel import (
    PlaneModel,
    analytic_majority,
    closed_form_depth,
    simulate_depth,
    simulate_plane,
)
from conftest import SPHERE_TEXT, TOY_SHOP_TEXT, mc_question

PROMPT = "Let's think step by step."


def _gate(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:>2} {name}: {status}{suffix}")
    assert ok, f"criterion {number} {name} failed{suffix}"


def test_criterion_01_extraction_corpus():
    entries = load_corpus()
    started = time.monotonic()
    failures = evaluate_corpus(entries)
    elapsed = time.monotonic() - started
    _gate(1, "extraction corpus exact match",
          len(entries) >= 12 and failures == [] and elapsed < 1.0,
          f"{len(entries)} snippets in {elapsed * 1000:.0f} ms, "
          f"{len(failures)} failures")


def test_criterion_02_voting_oracle():
    def oracle(labels):
        seen = []
        for label in labels:
            if label not in seen:
                seen.append(label)
        best = max(seen, key=lambda l: (labels.count(l), -seen.index(l)))
        tie = sum(1 for l in seen if labels.count(l) == labels.count(best)) >= 2
        return best, tie

    cases = 0
    ok = True
    for size in range(1, 6):
        for combo in itertools.product("ABC", repeat=size):
            answers = [Answer(AnswerFormat.MULTIPLE_CHOICE, l) for l in combo]
            result = majority_vote(answers)
            expect_label, expect_tie = oracle(list(combo))
            ok = ok and result.winner.value == expect_label and result.tie == expect_tie
            cases += 1
    _gate(2, "majority vote matches exhaustive oracle", ok and cases == 363,
          f"{cases} cases")


def test_criterion_03_entropy_identities():
    mc = lambda l: Answer(AnswerFormat.MULTIPLE_CHOICE, l)
    degenerate = prediction_entropy([mc("A")] * 10)
    uniform = prediction_entropy(
        [Answer(AnswerFormat.FREE_FORM, f"v{i}") for i in range(10)])
    skewed = prediction_entropy([mc("A")] * 5 + [mc("B")] * 3 + [mc("C")] * 2)
    reference_ok = all(
        0.0 <= value <= math.log(10)
        for row in paper_reference_table().values() for value in row.values())
    ok = (abs(degenerate) < 1e-12
          and abs(uniform - math.log(10)) < 1e-9
          and abs(skewed - 1.02965) < 1e-5
          and reference_ok)
    _gate(3, "entropy identities and reference consistency", ok,
          f"degenerate={degenerate:.2e}, uniform={uniform:.9f}, skewed={skewed:.6f}")


def test_criterion_04_path_count_law():
    rng = random.Random(1234)
    q = mc_question("law", "Probe. Answer Choices: (A) x (B) y", "A")
    ok = True
    for _ in range(200):
        cfg = default_config(
            rng.choice(list(StrategyKind)),
            n_reformulations=rng.randint(1, 5),
            m_samples=rng.randint(1, 5),
            max_iterations=rng.randint(1, 3),
        )
        backend = ScriptedBackend({"": ["the answer is (A)"] * 3000})
        outcome = run_strategy(q, cfg, backend)
        ok = ok and len(outcome.traces) == expected_trace_count(cfg)
    hybrid = default_config(StrategyKind.QUESTION_C_SC, n_reformulations=3, m_samples=2)
    six = run_strategy(q, hybrid, ScriptedBackend({"": ["the answer is (A)"] * 100}))
    ok = ok and len(six.traces) == 6
    _gate(4, "path-count law over 200 random configs", ok, "3x2=6 case included")


def test_criterion_05_assembly_and_discard_rule():
    five_part = assemble_iteration_input("Q", "G", "R1", "P1", "G*")
    order_ok = five_part == "Q\nG\nR1\nP1\nG*" and \
        five_part.split("\n") == ["Q", "G", "R1", "P1", "G*"]

    q = mc_question("sentinel", "Pick. Answer Choices: (A) x (B) y", "A")
    cfg = default_config(StrategyKind.DEEP_COT, max_iterations=3)
    trigger = answer_trigger(q.answer_format)
    backend = ScriptedBackend()
    rounds = [("R1SENTINEL", "P1SENTINEL the answer is (A)"),
              ("R2SENTINEL", "P2SENTINEL the answer is (B)"),
              ("R3SENTINEL", "P3SENTINEL the answer is (A)")]
    backend.add_rule(assemble_reasoning_input(q.text, PROMPT), [rounds[0][0]], exact=True)
    for (reasoning, prediction), nxt in zip(rounds, rounds[1:] + [None]):
        backend.add_rule(
            assemble_prediction_input(q.text, PROMPT, reasoning, trigger), [prediction],
            exact=True)
        if nxt:
            backend.add_rule(
                assemble_iteration_input(q.text, PROMPT, reasoning, prediction, PROMPT),
                [nxt[0]], exact=True)
    run_strategy(q, cfg, backend)
    prediction_inputs = [c.user_text for c in backend.calls
                         if c.user_text.endswith(trigger)]
    discard_ok = len(prediction_inputs) == 3 and all(
        f"R{earlier}SENTINEL" not in text and f"P{earlier}SENTINEL" not in text
        for round_index, text in enumerate(prediction_inputs, start=1)
        for earlier in range(1, round_index))
    _gate(5, "assembly order and iteration discard rule", order_ok and discard_ok)


def test_criterion_06_scripted_demos():
    sphere = mc_question("sphere", SPHERE_TEXT, "B",
                         choices=(("A", "13.3542"), ("B", "15.8113"),
                                  ("C", "18.3451"), ("D", "19.5667"),
                                  ("E", "20.8888")))
    cfg = default_config(StrategyKind.DEEP_COT, max_iterations=2)
    trigger = answer_trigger(sphere.answer_format)
    backend = ScriptedBackend()
    r1 = ("The diagonal is sqrt(250) = 5 sqrt(10); doubling gives about 31.6228, "
          "closest to (E) 20.8888.")
    p1 = "Therefore, among A through E, the answer is (E) 20.8888."
    r2 = ("The diagonal sqrt(250) is approximately 15.8114 and equals the "
          "sphere's diameter; closest is (B) 15.8113.")
    p2 = "Therefore, among A through E, the answer is (B) 15.8113."
    backend.add_rule(assemble_reasoning_input(sphere.text, PROMPT), [r1], exact=True)
    backend.add_rule(assemble_prediction_input(sphere.text, PROMPT, r1, trigger), [p1], exact=True)
    backend.add_rule(assemble_iteration_input(sphere.text, PROMPT, r1, p1, PROMPT), [r2],
                     exact=True)
    backend.add_rule(assemble_prediction_input(sphere.text, PROMPT, r2, trigger), [p2], exact=True)
    depth = run_strategy(sphere, cfg, backend)
    depth_ok = (depth.rounds_executed == 2 and depth.final.value == "B"
                and depth.traces[0].parsed.value == "E")

    toy = mc_question("toy-shop", TOY_SHOP_TEXT, "A",
                      choices=(("A", "15"), ("B", "16"), ("C", "17"),
                               ("D", "18"), ("E", "19")))
    bcfg = default_config(StrategyKind.PROMPT_C_SC, n_reformulations=2, m_samples=2)
    prompts = [PROMPT, "Let's break it down systematically."]

    def reformulator(text, spec, backend_, **kwargs):
        return prompts[: spec.n_variants]

    votes = ["Therefore, among A through E, the answer is (C) 17.",
             "The correct answer choice is (A) 15.",
             "Therefore, among A through E, the answer is (A) 15.",
             "Therefore, the correct answer is (A) 15."]
    breadth_backend = ScriptedBackend()
    breadth_backend.add_rule(assemble_reasoning_input(toy.text, prompts[0]),
                             ["T1", "T2"], exact=True)
    breadth_backend.add_rule(assemble_reasoning_input(toy.text, prompts[1]),
                             ["T3", "T4"], exact=True)
    for i, reasoning in enumerate(["T1", "T2", "T3", "T4"]):
        prompt = prompts[0] if i < 2 else prompts[1]
        breadth_backend.add_rule(
            assemble_prediction_input(toy.text, prompt, reasoning, trigger),
            [votes[i]], exact=True)
    breadth = run_breadth(toy, bcfg, breadth_backend, reformulator=reformulator)
    counts = {a.value: c for a, c in breadth.vote.counts}
    breadth_ok = ([t.parsed.value for t in breadth.traces] == ["C", "A", "A", "A"]
                  and breadth.final.value == "A" and counts == {"A": 3, "C": 1})
    _gate(6, "worked depth and breadth demos", depth_ok and breadth_ok,
          f"depth final={depth.final.value}, breadth final={breadth.final.value}")


def test_criterion_07_vote_model():
    analytic_ok = analytic_majority(0.6, 3) == pytest.approx(0.648, abs=1e-12)

    started = time.monotonic()
    sim = simulate_plane(PlaneModel(p_correct=0.6, n_contexts=3, m_per_context=1),
                         trials=1_000_000, seed=7)
    sim_elapsed = time.monotonic() - started
    sim_ok = (abs(sim.breadth_acc - 0.648) <= 3 * sim.breadth_se
              and sim_elapsed < 10.0)

    depth_points = simulate_depth(PlaneModel(p_correct=0.4, q_advance=0.5),
                                  t_max=3, trials=1_000_000, seed=13)
    closed = closed_form_depth(0.4, 0.5, 3)
    depth_ok = (closed == pytest.approx(0.85, abs=1e-12)
                and abs(depth_points[-1].accuracy - closed)
                <= 3 * depth_points[-1].std_err)

    mono_ok = True
    for p in (0.55, 0.7, 0.9):
        values = [analytic_majority(p, k) for k in (1, 3, 5, 7)]
        mono_ok = mono_ok and all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    rho_ok = True
    for p in (0.55, 0.7, 0.9):
        accs, errs = [], []
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            result = simulate_plane(
                PlaneModel(p_correct=p, rho=rho, n_contexts=3, m_per_context=2),
                trials=300_000, seed=303)
            accs.append(result.breadth_acc)
            errs.append(result.breadth_se)
        for i in range(len(accs) - 1):
            rho_ok = rho_ok and accs[i + 1] <= accs[i] + 3 * math.hypot(errs[i], errs[i + 1])

    _gate(7, "analytic and Monte-Carlo vote model",
          analytic_ok and sim_ok and depth_ok and mono_ok and rho_ok,
          f"sim acc={sim.breadth_acc:.4f} in {sim_elapsed:.1f}s, "
          f"depth acc={depth_points[-1].accuracy:.4f}")


def test_criterion_08_replay_determinism(tmp_path):
    questions = generate_synthetic("coinflip", 20, seed=2)
    cfg = default_config(StrategyKind.COT)
    trigger = answer_trigger(AnswerFormat.YES_NO)
    live = ScriptedBackend()
    for q in questions:
        reasoning = f"thinking about {q.id}"
        live.add_rule(assemble_reasoning_input(q.text, PROMPT), [reasoning], exact=True)
        live.add_rule(assemble_prediction_input(q.text, PROMPT, reasoning, trigger),
                      [f"the answer is {q.gold.value}"], exact=True)
    cache = str(tmp_path / "cache.jsonl")
    run_experiment("coinflip", questions, cfg,
                   RecordingBackend(live, ReplayStore(cache)),
                   runs_dir=str(tmp_path / "record"), run_id="seed")

    blobs = []
    for attempt in ("a", "b"):
        run_dir = tmp_path / f"replay-{attempt}"
        run_experiment("coinflip", questions, cfg,
                       ReplayBackend(ReplayStore(cache)),
                       runs_dir=str(run_dir), run_id="rerun")
        blobs.append((
            (run_dir / "rerun" / "traces.jsonl").read_bytes(),
            (run_dir / "rerun" / "summary.json").read_bytes(),
        ))
    _gate(8, "replay runs byte-identical",
          blobs[0][0] == blobs[1][0] and blobs[0][1] == blobs[1][1],
          f"{len(blobs[0][0])} trace bytes")


def test_criterion_09_loaders_and_generators(tmp_path):
    files = {
        "singleeq": ("questions.json", 508, "json_solutions"),
        "addsub": ("AddSub.json", 395, "json_solutions"),
        "multiarith": ("MultiArith.json", 600, "json_solutions"),
        "gsm8k": ("test.jsonl", 1319, "gsm8k"),
        "aqua": ("test.jsonl", 254, "aqua"),
        "svamp": ("SVAMP.json", 1000, "svamp"),
        "commonsenseqa": ("dev_rand_split.jsonl", 1221, "csqa"),
        "strategyqa": ("task.json", 2290, "sqa"),
    }
    ok = True
    detail = []
    for name, (filename, count, style) in files.items():
        directory = tmp_path / name
        directory.mkdir()
        path = directory / filename
        if style == "json_solutions":
            payload = [{"iIndex": i, "sQuestion": f"Count {i} apples?",
                        "lSolutions": [float(i)]} for i in range(count)]
            path.write_text(json.dumps(payload), encoding="utf-8")
        elif style == "gsm8k":
            path.write_text("\n".join(
                json.dumps({"question": f"q{i}?", "answer": f"w\n#### {i}"})
                for i in range(count)), encoding="utf-8")
        elif style == "aqua":
            path.write_text("\n".join(
                json.dumps({"question": f"q{i}?",
                            "options": ["A)1", "B)2", "C)3", "D)4", "E)5"],
                            "correct": "ABCDE"[i % 5]})
                for i in range(count)), encoding="utf-8")
        elif style == "svamp":
            payload = [{"ID": i, "Body": f"Body {i}.", "Question": "How many?",
                        "Answer": float(i)} for i in range(count)]
            path.write_text(json.dumps(payload), encoding="utf-8")
        elif style == "csqa":
            path.write_text("\n".join(
                json.dumps({"answerKey": "ABCDE"[i % 5],
                            "question": {"stem": f"q{i}?",
                                         "choices": [{"label": l, "text": f"t{l}"}
                                                     for l in "ABCDE"]}})
                for i in range(count)), encoding="utf-8")
        else:
            payload = {"examples": [
                {"input": f"q{i}?", "target_scores": ({"Yes": 1, "No": 0} if i % 2
                                                      else {"Yes": 0, "No": 1})}
                for i in range(count)]}
            path.write_text(json.dumps(payload), encoding="utf-8")
        loaded = load_dataset(dataset_spec(name, path=str(path)))
        ok = ok and len(loaded) == count
        detail.append(f"{name}={len(loaded)}")

    for kind in ("coinflip", "lastletters"):
        first = generate_synthetic(kind, 500, seed=11)
        second = generate_synthetic(kind, 500, seed=11)
        ok = ok and len(first) == 500 and first == second
        detail.append(f"{kind}=500")
    _gate(9, "loader and generator counts", ok, ", ".join(detail))


def test_criterion_10_pilot_plateau(tmp_path):
    questions = [mc_question(f"q{i}", f"Pilot {i}. Answer Choices: (A) x (B) y", "A")
                 for i in range(4)]
    answer_plan = {
        "q0": lambda j: "A",
        "q1": lambda j: "A",
        "q2": lambda j: "B" if j == 0 else "A",
        "q3": lambda j: "B",
    }
    trigger = answer_trigger(AnswerFormat.MULTIPLE_CHOICE)
    accuracies = []
    for m in range(1, 7):
        backend = ScriptedBackend()
        for q in questions:
            plan = answer_plan[q.id]
            reasonings = [f"path {j} for {q.id}" for j in range(m)]
            backend.add_rule(assemble_reasoning_input(q.text, PROMPT), reasonings, exact=True)
            for j, reasoning in enumerate(reasonings):
                backend.add_rule(
                    assemble_prediction_input(q.text, PROMPT, reasoning, trigger),
                    [f"the answer is ({plan(j)})"], exact=True)
        record = run_experiment(
            "pilot", questions, default_config(StrategyKind.SC, m_samples=m),
            backend, runs_dir=str(tmp_path), run_id=f"sc-m{m}")
        accuracies.append(record.accuracy)
    half_at_one = accuracies[0] == pytest.approx(0.5)
    nondecreasing = all(a <= b + 1e-9 for a, b in zip(accuracies, accuracies[1:]))
    flat_tail = accuracies[-1] == accuracies[-2] == accuracies[-3]
    _gate(10, "pilot subset rise-then-plateau",
          half_at_one and nondecreasing and flat_tail,
          "curve=" + ",".join(f"{a:.2f}" for a in accuracies))
