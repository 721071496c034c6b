import gc
import json
import os
import random
import re
import sys
import threading
import time
from collections import Counter
from dataclasses import fields, replace

import pytest

import breadth.store as store_module
from breadth import bench
from breadth.cli import main
from breadth.core import (
    KIND_KNOBS,
    Answer,
    AnswerFormat,
    StrategyConfig,
    StrategyKind,
    Usage,
    default_config,
)
from breadth.bench import (
    QuestionOutcome,
    RunRecord,
    UnknownBaselineError,
    dataset_spec,
    emit_report,
    generate_synthetic,
    last_letters_gold,
    load_dataset,
    load_run_record,
    pilot_subset,
    run_experiment,
    summary_json,
)
from breadth.llmio import (
    MAX_IN_FLIGHT,
    Backend,
    NetworkError,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
)
from breadth.reformulate import (
    QUESTION_INSTRUCTION,
    ReformulationSpec,
    ReformulationTarget,
    reformulate,
)
from breadth.store import ReplayStore
from breadth.strategy import (
    answer_trigger,
    assemble_prediction_input,
    assemble_reasoning_input,
    run_strategy,
)
from conftest import ADVERSARIAL_ALPHABET, DiskFills, descriptors_linked_to, mc_question

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

from fakebackend import CountingBackend, FakeBackend, FakeParams  # noqa: E402

PROMPT = "Let's think step by step."


# ---------------------------------------------------------------- fixtures


def _write_jsonl(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for record in records:
            fh.write(json.dumps(record) + "\n")


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


@pytest.fixture(scope="session")
def dataset_dir(tmp_path_factory):
    """Schema-faithful stand-in files with the documented per-dataset counts."""
    root = tmp_path_factory.mktemp("datasets")

    def solutions_file(name, count):
        path = root / name
        _write_json(path, [
            {"iIndex": i, "sQuestion": f"If a basket holds {i + 2} apples, how many in total?",
             "lSolutions": [float(i + 2)]}
            for i in range(count)
        ])

    solutions_file("questions.json", 508)    # singleeq
    solutions_file("AddSub.json", 395)
    solutions_file("MultiArith.json", 600)

    _write_jsonl(root / "gsm8k.jsonl", [
        {"question": f"Sam buys {i} pens. How many pens?",
         "answer": f"He buys them.\n#### {i}"}
        for i in range(1319)
    ])
    _write_jsonl(root / "aqua.jsonl", [
        {"question": f"Pick the number closest to {i}.",
         "options": ["A)1", "B)2", "C)3", "D)4", "E)5"],
         "correct": "ABCDE"[i % 5]}
        for i in range(254)
    ])
    _write_json(root / "SVAMP.json", [
        {"ID": f"svamp-{i}", "Body": f"There are {i + 1} birds.",
         "Question": "How many birds are there?", "Answer": float(i + 1)}
        for i in range(1000)
    ])
    _write_jsonl(root / "commonsenseqa.jsonl", [
        {"answerKey": "ABCDE"[i % 5],
         "question": {"stem": f"Where would you find item {i}?",
                      "choices": [{"label": l, "text": f"place {l}{i}"}
                                  for l in "ABCDE"]}}
        for i in range(1221)
    ])
    _write_json(root / "task.json", {
        "examples": [
            {"input": f"Is statement {i} true in practice?",
             "target_scores": {"Yes": 1, "No": 0} if i % 2 else {"Yes": 0, "No": 1}}
            for i in range(2290)
        ]
    })
    return root


# ---------------------------------------------------------------- loaders


LOADER_CASES = [
    ("singleeq", "questions.json", 508, AnswerFormat.NUMERIC),
    ("addsub", "AddSub.json", 395, AnswerFormat.NUMERIC),
    ("multiarith", "MultiArith.json", 600, AnswerFormat.NUMERIC),
    ("gsm8k", "gsm8k.jsonl", 1319, AnswerFormat.NUMERIC),
    ("aqua", "aqua.jsonl", 254, AnswerFormat.MULTIPLE_CHOICE),
    ("svamp", "SVAMP.json", 1000, AnswerFormat.NUMERIC),
    ("commonsenseqa", "commonsenseqa.jsonl", 1221, AnswerFormat.MULTIPLE_CHOICE),
    ("strategyqa", "task.json", 2290, AnswerFormat.YES_NO),
]


@pytest.mark.parametrize("name,filename,expected,fmt", LOADER_CASES)
def test_loader_counts_match_table(dataset_dir, name, filename, expected, fmt):
    spec = dataset_spec(name, path=str(dataset_dir / filename))
    questions = load_dataset(spec)
    assert len(questions) == expected == bench.DATASETS[name].expected_count
    assert all(q.answer_format == fmt for q in questions)
    assert all(not q.gold.abstain for q in questions)


def test_aqua_golds_are_labels_and_choices_parsed(dataset_dir):
    questions = load_dataset(dataset_spec("aqua", path=str(dataset_dir / "aqua.jsonl")))
    q = questions[0]
    assert q.gold.value == "A"
    assert [label for label, _ in q.choices] == ["A", "B", "C", "D", "E"]
    assert "Answer Choices: (A) 1" in q.text


def test_gsm8k_gold_is_hash_value(dataset_dir):
    questions = load_dataset(dataset_spec("gsm8k", path=str(dataset_dir / "gsm8k.jsonl")))
    assert questions[5].gold == Answer(AnswerFormat.NUMERIC, "5")


def test_strategyqa_golds_are_yes_no(dataset_dir):
    questions = load_dataset(dataset_spec("strategyqa", path=str(dataset_dir / "task.json")))
    assert {q.gold.value for q in questions} == {"yes", "no"}


def test_count_mismatch_warns_but_loads(dataset_dir, tmp_path, caplog):
    short = tmp_path / "short.jsonl"
    _write_jsonl(short, [{"question": "q?", "answer": "#### 3"}])
    with caplog.at_level("WARNING"):
        questions = load_dataset(dataset_spec("gsm8k", path=str(short)))
    assert len(questions) == 1
    assert any("expected 1319" in r.message for r in caplog.records)


def test_missing_file_and_schema_errors(tmp_path):
    missing = tmp_path / "nope.jsonl"
    with pytest.raises(FileNotFoundError,
                       match=f"^dataset file not found: {re.escape(str(missing))}$"):
        load_dataset(dataset_spec("gsm8k", path=str(missing)))
    bad = tmp_path / "bad.jsonl"
    _write_jsonl(bad, [{"question": "q?", "answer": "no marker"}])
    with pytest.raises(ValueError, match=r"^gsm8k\[0\]: missing #### answer marker$"):
        load_dataset(dataset_spec("gsm8k", path=str(bad)))


# Each reader's refusal: a file whose second record (or, for a file that is
# not of its dataset's shape, the file itself) breaks the dataset's layout.
SOLUTION = {"sQuestion": "How many?", "lSolutions": [3]}
AQUA = {"question": "Which?", "options": ["A)1", "B)2"], "correct": "A"}
CSQA = {"question": {"stem": "Where?", "choices": [{"label": "A", "text": "here"},
                                                   {"label": "B", "text": "there"}]},
        "answerKey": "A"}
STRATEGY = {"input": "Is it?", "target_scores": {"Yes": 1, "No": 0}}
SVAMP = {"Body": "Two birds.", "Question": "How many?", "Answer": 2}


@pytest.mark.parametrize("name, filename, payload, where, message", [
    ("singleeq", "questions.json", [SOLUTION, {**SOLUTION, "lSolutions": []}],
     "singleeq[1]", "empty solution list"),
    ("strategyqa", "task.json", {"examples": [STRATEGY, {**STRATEGY, "target_scores": "Yes"}]},
     "strategyqa[1]", "target_scores must be a mapping"),
    ("strategyqa", "task.json", {"examples": [STRATEGY, {**STRATEGY, "target_scores": {}}]},
     "strategyqa[1]", "target_scores is empty"),
    ("strategyqa", "task.json",
     {"examples": [STRATEGY, {**STRATEGY, "target_scores": {"Yes": 1, "No": 1}}]},
     "strategyqa[1]", "target_scores ties its top score between ['Yes', 'No']"),
    ("aqua", "test.jsonl", [AQUA, {**AQUA, "options": ["A)1", ")2"]}],
     "aqua[1]", "unparseable option ')2'"),
    ("svamp", "SVAMP.json", [SVAMP, {**SVAMP, "Answer": "many"}],
     "svamp[1]", "gold value 'many' unparseable as numeric"),
    ("commonsenseqa", "dev_rand_split.jsonl", [CSQA, {**CSQA, "answerKey": "?"}],
     "commonsenseqa[1]", "gold value '?' unparseable as multiple_choice"),
    ("commonsenseqa", "dev_rand_split.jsonl",
     [CSQA, {**CSQA, "question": {**CSQA["question"], "choices": [
         {"label": "A", "text": "here"}, {"label": "CD", "text": "there"}]}}],
     "commonsenseqa[1]", "question commonsenseqa-1: a choice label must be one letter A-Z, "
     "got ['A', 'CD']"),
    ("strategyqa", "task.json", [STRATEGY],
     "strategyqa[0]", "expected an object with an 'examples' list"),
    ("addsub", "AddSub.json", {"examples": [SOLUTION]},
     "addsub[0]", "expected a list of records"),
], ids=["empty-solutions", "target-scores-not-object", "target-scores-empty",
        "target-scores-tied", "aqua-option-without-label",
        "numeric-gold-unparseable", "label-gold-unparseable", "multi-letter-label",
        "strategyqa-not-object",
        "list-dataset-given-object"])
def test_each_reader_refuses_a_record_off_its_layout(tmp_path, name, filename, payload,
                                                     where, message):
    path = tmp_path / filename
    if filename.endswith(".jsonl"):
        _write_jsonl(path, payload)
    else:
        _write_json(path, payload)
    with pytest.raises(ValueError, match=f"^{re.escape(f'{where}: {message}')}$"):
        load_dataset(dataset_spec(name, path=str(path)))


@pytest.mark.parametrize("name, filename, record, field", [
    ("gsm8k", "test.jsonl", {"question": "q?"}, "answer"),
    ("commonsenseqa", "dev_rand_split.jsonl",
     {**CSQA, "question": {"choices": CSQA["question"]["choices"]}}, "question.stem"),
    ("commonsenseqa", "dev_rand_split.jsonl", {**CSQA, "question": "Where?"}, "question.stem"),
    ("commonsenseqa", "dev_rand_split.jsonl",
     {**CSQA, "question": {**CSQA["question"], "choices": [{"label": "A"}]}}, "text"),
], ids=["top-level", "nested", "parent-not-an-object", "choice-without-text"])
def test_a_record_without_a_field_is_refused_naming_the_field(tmp_path, name, filename,
                                                             record, field):
    path = tmp_path / filename
    _write_jsonl(path, [record])
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name}[0]: no field {field!r}')}$"):
        load_dataset(dataset_spec(name, path=str(path)))


def test_a_file_dataset_with_no_path_names_its_default_file():
    with pytest.raises(FileNotFoundError, match=r"^dataset gsm8k needs a source file "
                                                r"\(default name 'test.jsonl'\); pass --data-path$"):
        dataset_spec("gsm8k")


@pytest.mark.parametrize("name, filename, text, line", [
    ("gsm8k", "test.jsonl", '{"question": "q?", "answer": "#### 3"}\n\n{bad\n', 3),
    ("strategyqa", "task.json", '{"examples": [\n{bad}\n]}\n', 2),
], ids=["jsonl", "json"])
def test_invalid_json_dataset_names_the_file_and_line(tmp_path, name, filename, text, line):
    path = tmp_path / filename
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        load_dataset(dataset_spec(name, path=str(path)))
    assert str(err.value) == (f"{path}: invalid JSON at line {line} column 2: "
                              "Expecting property name enclosed in double quotes")


def test_directory_path_uses_default_filename(dataset_dir, tmp_path):
    target = tmp_path / "gsm8k"
    target.mkdir()
    os.link(dataset_dir / "gsm8k.jsonl", target / "test.jsonl")
    questions = load_dataset(dataset_spec("gsm8k", path=str(target)))
    assert len(questions) == 1319


def test_a_dataset_file_is_read_by_its_own_suffix(tmp_path):
    # The row's default file chose the layout: a gsm8k JSON list was read as
    # JSON lines, and a singleeq .jsonl file as one JSON document.
    items = (("1 + 1?", 2), ("2 + 2?", 4))
    gsm = tmp_path / "gsm.json"
    gsm.write_text(json.dumps([{"question": q, "answer": f"#### {a}"} for q, a in items]),
                   encoding="utf-8")
    singleeq = tmp_path / "sq.jsonl"
    singleeq.write_text("".join(json.dumps({"sQuestion": q, "lSolutions": [a]}) + "\n"
                                for q, a in items), encoding="utf-8")
    for name, path in (("gsm8k", gsm), ("singleeq", singleeq)):
        questions = load_dataset(dataset_spec(name, path=str(path)))
        assert [(q.text, q.gold.value) for q in questions] == [("1 + 1?", "2"), ("2 + 2?", "4")]


def test_unknown_dataset_rejected():
    with pytest.raises(KeyError):
        dataset_spec("mystery")


# ---------------------------------------------------------------- generators


def test_generators_emit_exactly_500_each():
    assert len(generate_synthetic("coinflip", 500, seed=1)) == 500
    assert len(generate_synthetic("lastletters", 500, seed=1)) == 500
    spec = dataset_spec("coinflip", seed=1)
    assert len(load_dataset(spec)) == bench.DATASETS["coinflip"].expected_count == 500


def test_generator_determinism():
    first = generate_synthetic("coinflip", 50, seed=9)
    second = generate_synthetic("coinflip", 50, seed=9)
    assert first == second
    different = generate_synthetic("coinflip", 50, seed=10)
    assert first != different


def test_coinflip_parity_rule():
    for q in generate_synthetic("coinflip", 200, seed=4):
        flips = q.text.count(" flips the coin.")
        assert q.text.startswith("A coin is heads up.")
        assert q.text.count("the coin.") == 4
        assert q.gold.value == ("yes" if flips % 2 == 0 else "no")


def test_last_letters_gold_rule():
    # brute-force check of the gold construction, plus the worked example
    assert last_letters_gold("Elon Musk Bill Gates") == "nkls"
    for q in generate_synthetic("lastletters", 100, seed=4):
        words = q.text.split('"')[1]
        assert len(words.split()) == 4
        expected = "".join(w[-1].lower() for w in words.split())
        assert q.gold.value == expected


def test_generator_rejects_bad_n():
    with pytest.raises(ValueError):
        generate_synthetic("coinflip", 0, seed=1)
    with pytest.raises(ValueError):
        generate_synthetic("telepathy", 5, seed=1)


# ---------------------------------------------------------------- runner


def _four_questions():
    return [mc_question(f"q{i}", f"Probe {i}. Answer Choices: (A) x (B) y", "A")
            for i in range(4)]


def _scripted_for(questions, answers):
    """One CoT path per question with the given answer labels."""
    backend = ScriptedBackend()
    trigger = answer_trigger(AnswerFormat.MULTIPLE_CHOICE)
    for q, label in zip(questions, answers):
        reasoning = f"reasoning for {q.id}"
        backend.add_rule(assemble_reasoning_input(q.text, PROMPT), [reasoning], exact=True)
        backend.add_rule(
            assemble_prediction_input(q.text, PROMPT, reasoning, trigger),
            [f"the answer is ({label})"], exact=True)
    return backend


def test_run_experiment_accuracy_and_persistence(tmp_path):
    questions = _four_questions()
    backend = _scripted_for(questions, ["A", "A", "A", "B"])
    cfg = default_config(StrategyKind.COT)
    record = run_experiment("toy", questions, cfg, backend,
                            runs_dir=str(tmp_path), run_id="toy-run")
    assert record.accuracy == pytest.approx(0.75)
    assert not record.partial
    assert record.wall_time_s == 0.0  # deterministic backend

    traces_path = tmp_path / "toy-run" / "traces.jsonl"
    lines = traces_path.read_text().splitlines()
    assert len(lines) == 4
    summary = json.loads((tmp_path / "toy-run" / "summary.json").read_text())
    assert summary["accuracy"] == pytest.approx(0.75)
    assert RunRecord.from_dict(summary) == record


def test_summary_json_is_json_dumps_of_its_record(tmp_path):
    # The reference: the whole record through the encoder, as summary.json
    # was written before its outcomes had a fixed layout.
    rng = random.Random(13)

    def text():
        return "".join(rng.choice(ADVERSARIAL_ALPHABET) for _ in range(rng.randint(0, 6)))

    def count():
        return rng.choice([0, rng.randint(1, 999), rng.randint(2 ** 31, 2 ** 64)])

    def value():
        return rng.choice([text(), count(), rng.random(), True, None, {text(): text()}, []])

    def outcome():
        kind, abstain = rng.choice(list(AnswerFormat)), rng.random() < 0.3
        seen.add((kind, abstain))
        return QuestionOutcome(
            question_id=text(), final=Answer(kind, "" if abstain else text() or "v", abstain),
            correct=rng.random() < 0.5, rounds=count(), trace_count=count(),
            error=rng.choice([None, text()]))

    seen = set()
    for i in range(300):
        outcomes = tuple(outcome() for _ in range(rng.choice([0, 1, rng.randint(2, 8)])))
        record = RunRecord(
            run_id=text(), dataset=text(), config={text(): value() for _ in range(4)},
            outcomes=outcomes, accuracy=rng.choice([0.0, 1.0, rng.random()]),
            usage=Usage(count(), count()), wall_time_s=rng.choice([0.0, rng.random() * 99]),
            partial=rng.random() < 0.5)
        seen.update((("outcomes", len(outcomes)), ("partial", record.partial)))
        text_written = summary_json(record)
        assert text_written == json.dumps(record.to_dict(), sort_keys=True, indent=2) + "\n"
        run_dir = tmp_path / str(i)
        run_dir.mkdir()
        (run_dir / "summary.json").write_text(text_written, encoding="utf-8")
        assert load_run_record(str(run_dir)) == record
    assert {(kind, abstain) for kind in AnswerFormat for abstain in (False, True)} <= seen
    assert {("outcomes", 0), ("partial", False), ("partial", True)} <= seen


def test_rerun_of_finished_run_resumes_every_question(tmp_path):
    # Outcomes rebuilt from persisted traces must equal the fresh run's, for
    # one-path and voted strategies alike. The fake backend has no zero-shot
    # stage, so zero_shot is left out.
    questions = generate_synthetic("coinflip", 10, seed=3)
    for kind, stop in [("cot", "stable"), ("deep_cot", "stable"), ("deep_cot", "fixed_t"),
                       ("sc", "stable"), ("questionc", "stable"), ("questionc_sc", "stable"),
                       ("promptc", "stable"), ("promptc_sc", "stable")]:
        knobs = {"kind": kind, "n_reformulations": 3, "m_samples": 3, "max_iterations": 3,
                 "stop_rule": stop}
        cfg = StrategyConfig.from_dict({k: v for k, v in knobs.items()
                                        if k in ("kind", *KIND_KNOBS[StrategyKind(kind)])})
        first = run_experiment("coinflip", questions, cfg,
                               FakeBackend(questions, seed=1),
                               runs_dir=str(tmp_path), run_id=f"{kind}-{stop}")
        untouched = ScriptedBackend()  # no rules: any call would fail
        again = run_experiment("coinflip", questions, cfg, untouched,
                               runs_dir=str(tmp_path), run_id=f"{kind}-{stop}")
        assert untouched.calls == []
        assert again.outcomes == first.outcomes
        assert again.accuracy == first.accuracy
        assert again.usage == first.usage


def test_a_question_rewriting_run_records_every_token_the_backend_served(tmp_path):
    # Rewrite calls' tokens used to be dropped: this run recorded 2,708 of
    # the 4,039 tokens served. They now sit on sample 0 of context 0.
    questions = generate_synthetic("coinflip", 6, seed=3)
    cfg = default_config(StrategyKind.QUESTION_C, n_reformulations=3)
    backend = CountingBackend(FakeBackend(questions, seed=3))
    record = run_experiment("coinflip", questions, cfg, backend,
                            runs_dir=str(tmp_path), run_id="run")
    assert backend.tokens == 4039
    assert record.usage.total_tokens == backend.tokens
    summary = json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))
    assert summary["usage"] == record.usage.to_dict()


def _trace_tokens(run_dir) -> int:
    return sum(t["usage"]["prompt_tokens"] + t["usage"]["completion_tokens"]
               for t in _trace_lines(run_dir))


@pytest.mark.parametrize("kind", [k for k in StrategyKind if k != StrategyKind.ZERO_SHOT],
                         ids=lambda k: k.value)
def test_every_token_the_backend_returns_is_on_the_traces_and_in_the_summary(tmp_path, kind):
    # Prompt rewrites were charged nowhere: a promptc run's summary held
    # 13% fewer tokens than the backend returned.
    questions = generate_synthetic("coinflip", 8, seed=11)
    backend = CountingBackend(FakeBackend(questions, seed=11))
    run_experiment("coinflip", questions, default_config(kind), backend,
                   runs_dir=str(tmp_path), run_id="run")
    summary = json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))
    usage = summary["usage"]
    assert usage["prompt_tokens"] + usage["completion_tokens"] == backend.tokens > 0
    assert _trace_tokens(tmp_path / "run") == backend.tokens


def test_a_prompt_rewriting_run_starts_no_question_once_the_backend_reached_the_budget(
        tmp_path, monkeypatch):
    questions = generate_synthetic("coinflip", 8, seed=11)
    cfg = default_config(StrategyKind.PROMPT_C)
    started = []  # the backend's token count as each question starts

    def run(run_id, budget=None):
        backend = CountingBackend(FakeBackend(questions, seed=11))
        started.clear()

        def counting_start(q, cfg, backend_):
            started.append(backend.tokens)
            return run_strategy(q, cfg, backend_)

        monkeypatch.setattr(bench, "run_strategy", counting_start)
        return run_experiment("coinflip", questions, cfg, backend, max_total_tokens=budget,
                              runs_dir=str(tmp_path), run_id=run_id)

    run("full")
    budget = started[3]  # what the first three questions cost at the backend
    record = run("budget", budget)
    assert record.partial and len(record.outcomes) == 3
    assert max(started) < budget


class _Sleepy(CountingBackend):
    """Counts calls over a non-deterministic backend whose calls sleep 2 ms."""

    def __init__(self, inner):
        super().__init__(inner)
        self.deterministic = False

    def complete(self, req):
        time.sleep(0.002)
        return super().complete(req)


@pytest.mark.parametrize("kind", [StrategyKind.QUESTION_C, StrategyKind.PROMPT_C],
                         ids=lambda k: k.value)
def test_the_traces_hold_the_milliseconds_of_every_call_rewrites_included(tmp_path, kind):
    # Rewrite calls' milliseconds were charged nowhere.
    questions = generate_synthetic("coinflip", 4, seed=11)
    backend = _Sleepy(FakeBackend(questions, seed=11))
    run_experiment("coinflip", questions, default_config(kind), backend,
                   runs_dir=str(tmp_path), run_id="run")
    traces = (tmp_path / "run" / "traces.jsonl").read_text(encoding="utf-8").splitlines()
    assert sum(json.loads(line)["latency_ms"] for line in traces) >= 2 * backend.calls


def test_resume_under_a_foreign_config_is_refused_before_any_call(tmp_path):
    # A cot run's traces must not be reused as an sc run's paths.
    questions = generate_synthetic("coinflip", 6, seed=3)
    run_experiment("coinflip", questions, default_config(StrategyKind.COT),
                   FakeBackend(questions, seed=1), runs_dir=str(tmp_path), run_id="run")
    summary = (tmp_path / "run" / "summary.json").read_bytes()
    untouched = ScriptedBackend()
    with pytest.raises(ValueError, match="kind, m_samples, temperature differ"):
        run_experiment("coinflip", questions, default_config(StrategyKind.SC, m_samples=5),
                       untouched, runs_dir=str(tmp_path), run_id="run")
    assert untouched.calls == []
    assert (tmp_path / "run" / "summary.json").read_bytes() == summary
    config = json.loads((tmp_path / "run" / "config.json").read_text(encoding="utf-8"))
    assert config == default_config(StrategyKind.COT).to_dict()


def test_a_run_on_a_run_id_another_run_holds_is_refused_before_it_changes_anything(
        tmp_path):
    # Two runs that overlapped on one run id both wrote every question they
    # found unwritten, and the resume voted over the paths of both.
    questions = generate_synthetic("coinflip", 3, seed=3)
    cfg = default_config(StrategyKind.SC, m_samples=3)
    run_dir = tmp_path / "overlap" / "run"
    second = CountingBackend(FakeBackend(questions, seed=1))
    overlap = {}

    class Overlapping(FakeBackend):
        """Starts a second run on the run id once the first has written a
        question."""

        def complete(self, req):
            if not overlap and (run_dir / "traces.jsonl").stat().st_size:
                overlap["before"] = [(run_dir / name).read_bytes()
                                     for name in ("config.json", "traces.jsonl")]
                try:
                    run_experiment("coinflip", questions, cfg, second,
                                   runs_dir=str(tmp_path / "overlap"), run_id="run")
                except OSError as exc:
                    overlap["error"] = str(exc)
                overlap["after"] = [(run_dir / name).read_bytes()
                                    for name in ("config.json", "traces.jsonl")]
            return super().complete(req)

    run_experiment("coinflip", questions, cfg, Overlapping(questions, seed=1),
                   runs_dir=str(tmp_path / "overlap"), run_id="run")
    assert str(run_dir / "traces.jsonl") in overlap.get("error", "")
    assert second.calls == 0 and overlap["after"] == overlap["before"]
    untouched = ScriptedBackend()
    resumed = run_experiment("coinflip", questions, cfg, untouched,
                             runs_dir=str(tmp_path / "overlap"), run_id="run")
    assert untouched.calls == []
    assert [o.trace_count for o in resumed.outcomes] == [3, 3, 3]
    run_experiment("coinflip", questions, cfg, FakeBackend(questions, seed=1),
                   runs_dir=str(tmp_path / "plain"), run_id="run")
    assert ((run_dir / "summary.json").read_bytes()
            == (tmp_path / "plain" / "run" / "summary.json").read_bytes())


def test_resume_may_change_only_the_limit_and_the_backend_mode(tmp_path):
    questions = generate_synthetic("coinflip", 4, seed=3)
    cfg = default_config(StrategyKind.COT)
    effective = {**cfg.to_dict(), "backend_mode": "mock", "limit": 2, "model": "m"}
    run_experiment("coinflip", questions[:2], cfg, FakeBackend(questions, seed=1),
                   runs_dir=str(tmp_path), run_id="run", run_keys=effective)
    extended = {**effective, "backend_mode": "replay", "limit": 4}
    record = run_experiment("coinflip", questions, cfg, FakeBackend(questions, seed=1),
                            runs_dir=str(tmp_path), run_id="run", run_keys=extended)
    assert len(record.outcomes) == 4
    config = json.loads((tmp_path / "run" / "config.json").read_text(encoding="utf-8"))
    assert config == extended
    with pytest.raises(ValueError, match=r"\(.*config\.json\): model differ"):
        run_experiment("coinflip", questions, cfg, ScriptedBackend(), runs_dir=str(tmp_path),
                       run_id="run", run_keys={**extended, "model": "other"})


def test_a_resume_under_other_answer_triggers_is_refused_before_any_call(tmp_path):
    questions = generate_synthetic("coinflip", 2, seed=3)
    cfg = default_config(StrategyKind.COT, answer_triggers={AnswerFormat.YES_NO: "TRIGGER A"})
    script = ScriptedBackend({"step by step": ["reasoning"] * 2, "TRIGGER A": ["yes"] * 2})
    run_experiment("coinflip", questions, cfg, script, runs_dir=str(tmp_path), run_id="run")
    config = json.loads((tmp_path / "run" / "config.json").read_text(encoding="utf-8"))
    assert config["answer_triggers"] == {"yes_no": "TRIGGER A"}
    for other in ({AnswerFormat.YES_NO: "TRIGGER B"}, None):
        untouched = ScriptedBackend()
        with pytest.raises(ValueError, match=": answer_triggers differ"):
            run_experiment("coinflip", questions, replace(cfg, answer_triggers=other),
                           untouched, runs_dir=str(tmp_path), run_id="run")
        assert untouched.calls == []


def test_a_run_records_the_strategy_it_runs_beside_the_callers_keys(tmp_path):
    questions = generate_synthetic("coinflip", 3, seed=3)
    cfg = default_config(StrategyKind.SC, m_samples=3)
    record = run_experiment("coinflip", questions, cfg, FakeBackend(questions, seed=1),
                            runs_dir=str(tmp_path), run_id="run", run_keys={"model": "m"})
    config = json.loads((tmp_path / "run" / "config.json").read_text(encoding="utf-8"))
    assert config == record.config == {**cfg.to_dict(), "model": "m"}
    assert {f.name for f in fields(StrategyConfig)} - set(config) == {"answer_triggers"}
    report = emit_report([load_run_record(str(tmp_path / "run"))])
    assert report.splitlines()[1].split()[0] == "sc"


def test_resume_without_a_config_file_is_refused_before_any_call(tmp_path):
    # Traces whose config.json is gone were made under an unknown config.
    questions = generate_synthetic("coinflip", 3, seed=3)
    cfg = default_config(StrategyKind.COT)
    run_experiment("coinflip", questions, cfg, FakeBackend(questions, seed=1),
                   runs_dir=str(tmp_path), run_id="old")
    os.remove(tmp_path / "old" / "config.json")
    traces = (tmp_path / "old" / "traces.jsonl").read_bytes()
    untouched = ScriptedBackend()
    with pytest.raises(ValueError, match=r"run old has traces but no config\.json"):
        run_experiment("coinflip", questions, cfg, untouched,
                       runs_dir=str(tmp_path), run_id="old")
    assert untouched.calls == []
    assert sorted(os.listdir(tmp_path / "old")) == ["summary.json", "traces.jsonl"]
    assert (tmp_path / "old" / "traces.jsonl").read_bytes() == traces


def _crashing_open(name):
    """An ``open`` for ``store`` under which writing a file whose name starts
    with ``name`` writes half of its first chunk and then raises, as a crash
    would stop it."""
    def crashing_open(path, mode="r", *args, **kwargs):
        fh = open(path, mode, *args, **kwargs)
        if "w" in mode and os.path.basename(path).startswith(name):
            def write(data):
                type(fh).write(fh, data[:len(data) // 2])
                fh.flush()
                raise OSError(f"crash while writing {path}")
            fh.write = write
        return fh
    return crashing_open


def test_a_crash_while_writing_the_run_files_leaves_each_one_whole(tmp_path, monkeypatch):
    # config.json and summary.json used to be rewritten in place: a crash in
    # either write left it torn, and a torn config.json failed every later
    # start of the run id.
    questions = generate_synthetic("coinflip", 3, seed=3)
    cfg = default_config(StrategyKind.SC, m_samples=3)

    def start(runs, limit):
        return run_experiment("coinflip", questions[:limit], cfg, FakeBackend(questions, seed=1),
                              runs_dir=str(tmp_path / runs), run_id="run",
                              run_keys={**cfg.to_dict(), "limit": limit})

    start("whole", 3)
    whole = tmp_path / "whole" / "run"
    run_dir = tmp_path / "runs" / "run"
    start("runs", 2)
    config, summary = (run_dir / "config.json").read_bytes(), (run_dir / "summary.json").read_bytes()

    # A larger limit rewrites config.json at the start, before any call.
    monkeypatch.setattr(store_module, "open", _crashing_open("config.json"), raising=False)
    with pytest.raises(OSError, match="crash while writing"):
        start("runs", 3)
    assert (run_dir / "config.json").read_bytes() == config
    assert (run_dir / "summary.json").read_bytes() == summary

    monkeypatch.setattr(store_module, "open", _crashing_open("summary.json"), raising=False)
    with pytest.raises(OSError, match="crash while writing"):
        start("runs", 3)
    assert (run_dir / "config.json").read_bytes() == (whole / "config.json").read_bytes()
    assert (run_dir / "summary.json").read_bytes() == summary

    # config.json already holds these bytes, so this start does not write it
    # and never reaches the crash; it finishes the run from the traces.
    monkeypatch.setattr(store_module, "open", _crashing_open("config.json"), raising=False)
    start("runs", 3)
    assert (run_dir / "summary.json").read_bytes() == (whole / "summary.json").read_bytes()
    assert sorted(os.listdir(run_dir)) == ["config.json", "summary.json", "traces.jsonl"]


@pytest.mark.skipif(sys.platform != "linux", reason="lists descriptors in /proc/self/fd")
def test_a_trace_write_cut_short_resumes_to_the_uninterrupted_summary(tmp_path, monkeypatch):
    # The disk fills halfway through the second question's trace line. One
    # path per question: a resume takes a question with any whole trace line
    # as finished, so a cut inside a question's lines is another matter.
    questions = generate_synthetic("coinflip", 3, seed=3)
    cfg = default_config(StrategyKind.COT)
    backend = FakeBackend(questions, seed=1)

    def start(runs, count=3):
        return run_experiment("coinflip", questions[:count], cfg, backend,
                              runs_dir=str(tmp_path / runs), run_id="run")

    start("whole")
    run_dir = tmp_path / "runs" / "run"
    traces = run_dir / "traces.jsonl"
    start("runs", count=1)
    before = traces.read_bytes()
    monkeypatch.setattr(os, "write", DiskFills())
    with pytest.raises(OSError) as cut:
        start("runs")
    monkeypatch.undo()
    # The traceback keeps run_experiment's frame, and its log, alive.
    assert cut.traceback and descriptors_linked_to(traces) == 0
    assert traces.read_bytes() == before  # the half-written line was cut back at once
    start("runs")
    assert descriptors_linked_to(traces) == 0
    assert (run_dir / "summary.json").read_bytes() == (
        tmp_path / "whole" / "run" / "summary.json").read_bytes()
    assert traces.read_bytes() == (tmp_path / "whole" / "run" / "traces.jsonl").read_bytes()


def test_token_budget_stops_gracefully_with_partial_flag(tmp_path):
    questions = _four_questions()
    backend = _scripted_for(questions, ["A", "A", "A", "A"])
    cfg = default_config(StrategyKind.COT)
    record = run_experiment(
        "toy", questions, cfg, backend,
        max_total_tokens=25,
        runs_dir=str(tmp_path), run_id="budget")
    assert record.partial
    assert 0 < len(record.outcomes) < 4


def test_question_cap_is_not_partial(tmp_path):
    # The question cap is the CLI's --limit, a slice of the dataset; a run
    # that answers every question it was given is whole.
    script = tmp_path / "script.json"
    script.write_text(json.dumps({"": ["the answer is yes"] * 4}), encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "2", "--strategy", "cot",
                 "--mock-script", str(script), "--runs-dir", str(tmp_path),
                 "--run-id", "cap"])
    assert code == 0
    summary = json.loads((tmp_path / "cap" / "summary.json").read_text())
    assert len(summary["outcomes"]) == 2
    assert not summary["partial"]


def test_per_question_failure_recorded_not_fatal(tmp_path):
    questions = _four_questions()
    backend = _scripted_for(questions[:3], ["A", "A", "A"])  # q3 has no script
    record = run_experiment("toy", questions, default_config(StrategyKind.COT),
                            backend, runs_dir=str(tmp_path), run_id="failures")
    assert len(record.outcomes) == 4
    failed = [o for o in record.outcomes if o.error]
    assert len(failed) == 1 and failed[0].question_id == "q3"
    assert record.accuracy == pytest.approx(0.75)


def test_failed_rewrite_is_recorded_not_fatal(tmp_path):
    questions = _four_questions()
    # Reasoning and prediction are scripted; the rewrite request matches no rule.
    backend = _scripted_for(questions, ["A"] * 4)
    cfg = default_config(StrategyKind.QUESTION_C, n_reformulations=2)
    record = run_experiment("toy", questions, cfg, backend,
                            runs_dir=str(tmp_path), run_id="rewrite-failures")
    assert len(record.outcomes) == 4
    assert all(o.error for o in record.outcomes)
    assert all(o.question_id in o.error for o in record.outcomes)
    assert record.accuracy == 0.0


def test_a_failed_first_context_abstains_and_still_carries_the_rewrite_cost(tmp_path):
    # Context 0's reasoning call matches no rule and fails; context 1's succeeds.
    q = mc_question("q0", "Probe 0. Answer Choices: (A) x (B) y", "A")
    rewrite = {QUESTION_INSTRUCTION: ["Probe, restated."]}
    rewritten = "Probe, restated.\nAnswer Choices: (A) x (B) y"
    backend = ScriptedBackend(rewrite)
    backend.add_rule(assemble_reasoning_input(rewritten, PROMPT), ["R0", "R1"], exact=True)
    backend.add_rule(answer_trigger(AnswerFormat.MULTIPLE_CHOICE), ["the answer is (A)"] * 2)
    cfg = default_config(StrategyKind.QUESTION_C_SC, n_reformulations=2, m_samples=2)
    record = run_experiment("toy", [q], cfg, backend, runs_dir=str(tmp_path), run_id="run")
    rewrites = reformulate(q.text, ReformulationSpec(ReformulationTarget.QUESTION, 2,
                                                     include_original=True),
                           ScriptedBackend(rewrite)).usage
    assert rewrites.total_tokens > 0
    traces = _trace_lines(tmp_path / "run")
    assert [(t["reformulation_index"], t["sample_index"]) for t in traces] == [
        (0, 0), (0, 1), (1, 0), (1, 1)]
    assert [t["parsed"]["abstain"] for t in traces] == [True, True, False, False]
    assert [Usage.from_dict(t["usage"]) for t in traces[:2]] == [rewrites, Usage()]
    assert traces[2]["assembled_input"] == assemble_reasoning_input(rewritten, PROMPT)
    (outcome,) = record.outcomes
    assert outcome.error is None and outcome.correct and outcome.trace_count == 4
    summary = json.loads((tmp_path / "run" / "summary.json").read_text(encoding="utf-8"))
    spent = sum((Usage.from_dict(t["usage"]) for t in traces), Usage())
    assert summary["usage"] == spent.to_dict()
    assert spent.total_tokens > rewrites.total_tokens


def test_blank_question_under_rewriting_is_recorded_not_fatal(tmp_path):
    blank = mc_question("blank", "", "A")
    normal = mc_question("normal", "Probe. Answer Choices: (A) x (B) y", "A")
    backend = ScriptedBackend({
        QUESTION_INSTRUCTION: ["Probe, restated."],
        PROMPT: ["reasoning"] * 2,
        answer_trigger(AnswerFormat.MULTIPLE_CHOICE): ["the answer is (A)"] * 2,
    })
    cfg = default_config(StrategyKind.QUESTION_C, n_reformulations=2)
    record = run_experiment("toy", [blank, normal], cfg, backend,
                            runs_dir=str(tmp_path), run_id="blank-question")
    first, second = record.outcomes
    assert first.question_id == "blank" and "blank" in first.error
    assert second.error is None and second.correct and second.trace_count == 2
    assert record.accuracy == 0.5


def test_runs_resume_skipping_completed_questions(tmp_path):
    questions = _four_questions()
    first_backend = _scripted_for(questions[:2], ["A", "A"])
    cfg = default_config(StrategyKind.COT)
    run_experiment("toy", questions[:2], cfg, first_backend,
                   runs_dir=str(tmp_path), run_id="resume")
    # second backend only knows the remaining questions: resume must skip q0/q1
    second_backend = _scripted_for(questions[2:], ["A", "B"])
    record = run_experiment("toy", questions, cfg, second_backend,
                            runs_dir=str(tmp_path), run_id="resume")
    assert len(record.outcomes) == 4
    assert record.accuracy == pytest.approx(0.75)
    lines = (tmp_path / "resume" / "traces.jsonl").read_text().splitlines()
    assert len(lines) == 4  # no duplicates


@pytest.mark.parametrize("cut", [1, 40], ids=["unterminated", "torn"])
def test_resume_repairs_the_trace_file_tail(tmp_path, cut):
    # A crash cuts the last trace's newline, or the trace itself, short.
    questions = [mc_question(f"q{i}", f"Probe {i}. Answer Choices: (A) x (B) y", "A")
                 for i in range(5)]
    cfg = default_config(StrategyKind.COT)
    run_experiment("toy", questions[:4], cfg, _scripted_for(questions, ["A"] * 4),
                   runs_dir=str(tmp_path), run_id="crash")
    path = tmp_path / "crash" / "traces.jsonl"
    data = path.read_bytes()
    path.write_bytes(data[:-cut])
    record = run_experiment("toy", questions, cfg,
                            _scripted_for(questions[3:], ["A", "A"]),
                            runs_dir=str(tmp_path), run_id="crash")
    assert [o.question_id for o in record.outcomes] == [q.id for q in questions]
    assert record.accuracy == 1.0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert [json.loads(line)["question_id"] for line in lines] == [q.id for q in questions]


def test_replay_run_twice_is_byte_identical(tmp_path):
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
    recorder = RecordingBackend(live, ReplayStore(cache))
    run_experiment("coinflip", questions, cfg, recorder,
                   runs_dir=str(tmp_path / "record"), run_id="r0")

    outputs = []
    for attempt in ("a", "b"):
        replay = ReplayBackend(ReplayStore(cache))
        run_dir = tmp_path / f"replay-{attempt}"
        record = run_experiment("coinflip", questions, cfg, replay,
                                runs_dir=str(run_dir), run_id="rerun")
        assert record.accuracy == pytest.approx(1.0)
        outputs.append((
            (run_dir / "rerun" / "traces.jsonl").read_bytes(),
            (run_dir / "rerun" / "summary.json").read_bytes(),
        ))
    assert outputs[0][0] == outputs[1][0]
    assert outputs[0][1] == outputs[1][1]


@pytest.mark.skipif(sys.platform != "linux", reason="lists descriptors in /proc/self/fd")
def test_recording_a_recorded_run_again_is_all_hits_and_a_torn_cache_is_repaired(tmp_path):
    script = {"step by step": ["reasoning about coins"] * 9,
              "Therefore, the answer (Yes or No) is": ["the answer is yes"] * 9}
    questions = generate_synthetic("coinflip", 3, seed=0)
    cfg = default_config(StrategyKind.SC, m_samples=3)
    cache = tmp_path / "cache.jsonl"

    def record(inner, run_id):
        backend = RecordingBackend(inner, ReplayStore(str(cache), record=True))
        run_experiment("coinflip", questions, cfg, backend, runs_dir=str(tmp_path),
                       run_id=run_id)
        return (tmp_path / run_id / "traces.jsonl").read_bytes()

    recorded = record(ScriptedBackend(script), "recorded")
    written = cache.read_bytes()
    # An empty script fails any call that reaches it: every call is served
    # from the cache, which gains no line.
    empty = ScriptedBackend({})
    assert record(empty, "rerecorded") == recorded
    assert empty.calls == [] and cache.read_bytes() == written
    gc.collect()
    # Neither the dropped store nor the finished run holds a descriptor.
    assert descriptors_linked_to(cache) == 0
    assert descriptors_linked_to(tmp_path / "rerecorded" / "traces.jsonl") == 0
    # A crash tore the last record: the recording store cuts it off as it
    # locks the cache, asks for it again, and the cache still verifies.
    cache.write_bytes(written[:-7])
    assert record(ScriptedBackend(script), "recorded-after-tear") == recorded
    assert main(["cache", "--file", str(cache), "--verify"]) == 0
    assert cache.read_bytes().count(b"\n") == written.count(b"\n")


# ---------------------------------------------------------------- fan-out


class _SlowBackend(Backend):
    """Thread-safe and a pure function of the request (the benchmark's fake
    model), sleeping 3 ms per call. Counts the calls in flight at once, and
    fails every call whose text contains ``fail_text``."""

    def __init__(self, questions, deterministic, fail_text=None):
        self.inner = FakeBackend(questions, seed=1, params=FakeParams(base_latency_s=0.003))
        self.model = self.inner.model
        self.deterministic = deterministic
        self.fail_text = fail_text
        self._lock = threading.Lock()
        self.in_flight = 0
        self.peak = 0

    def complete(self, req):
        with self._lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        try:
            if self.fail_text is not None and self.fail_text in req.user_text:
                raise NetworkError("unreachable")
            return self.inner.complete(req)
        finally:
            with self._lock:
                self.in_flight -= 1


def _trace_lines(run_dir):
    """The run's traces in file order, without their latencies."""
    traces = [json.loads(line) for line in
              (run_dir / "traces.jsonl").read_text(encoding="utf-8").splitlines()]
    for trace in traces:
        trace.pop("latency_ms")
    return traces


def test_fan_out_matches_the_inline_run(tmp_path):
    questions = generate_synthetic("coinflip", 12, seed=5)
    cfg = default_config(StrategyKind.QUESTION_C_SC, n_reformulations=2, m_samples=2)
    records = {}
    for deterministic in (True, False):
        backend = _SlowBackend(questions, deterministic)
        run_id = "inline" if deterministic else "fan-out"
        records[run_id] = run_experiment("coinflip", questions, cfg, backend,
                                         runs_dir=str(tmp_path), run_id=run_id)
    inline, fan_out = records["inline"], records["fan-out"]
    assert _trace_lines(tmp_path / "fan-out") == _trace_lines(tmp_path / "inline")
    assert fan_out.outcomes == inline.outcomes
    assert [o.question_id for o in fan_out.outcomes] == [q.id for q in questions]
    assert fan_out.usage == inline.usage
    assert fan_out.accuracy == inline.accuracy
    assert fan_out.wall_time_s > 0 and inline.wall_time_s == 0.0


def test_fan_out_keeps_at_most_four_calls_in_flight(tmp_path):
    questions = generate_synthetic("coinflip", 12, seed=6)
    cfg = default_config(StrategyKind.SC, m_samples=2)
    inline = _SlowBackend(questions, deterministic=True)
    run_experiment("coinflip", questions, cfg, inline, runs_dir=str(tmp_path), run_id="a")
    fan_out = _SlowBackend(questions, deterministic=False)
    run_experiment("coinflip", questions, cfg, fan_out, runs_dir=str(tmp_path), run_id="b")
    assert inline.peak == 1
    assert 2 <= fan_out.peak <= MAX_IN_FLIGHT == 4


def test_failed_question_in_the_window_is_recorded_and_the_others_finish(tmp_path):
    questions = generate_synthetic("coinflip", 8, seed=7)
    backend = _SlowBackend(questions, deterministic=False, fail_text=questions[2].text)
    record = run_experiment("coinflip", questions, default_config(StrategyKind.COT),
                            backend, runs_dir=str(tmp_path), run_id="failure")
    assert [o.question_id for o in record.outcomes] == [q.id for q in questions]
    assert [o.question_id for o in record.outcomes if o.error] == [questions[2].id]
    assert all(o.trace_count == 1 for o in record.outcomes if not o.error)
    written = [t["question_id"] for t in _trace_lines(tmp_path / "failure")]
    assert written == [q.id for q in questions if q is not questions[2]]


def test_fan_out_resumes_over_a_torn_trace_file(tmp_path):
    questions = generate_synthetic("coinflip", 10, seed=8)
    cfg = default_config(StrategyKind.COT)
    fresh = run_experiment("coinflip", questions, cfg, _SlowBackend(questions, False),
                           runs_dir=str(tmp_path), run_id="fresh")
    # A crash left q0-q2, q5 and a torn q6. The resume starts q3 and q4, and
    # must write both before it takes q5 from the file.
    done = [questions[i] for i in (0, 1, 2, 5, 6)]
    run_experiment("coinflip", done, cfg, _SlowBackend(questions, False),
                   runs_dir=str(tmp_path), run_id="crash")
    path = tmp_path / "crash" / "traces.jsonl"
    path.write_bytes(path.read_bytes()[:-40])
    resumed = run_experiment("coinflip", questions, cfg, _SlowBackend(questions, False),
                             runs_dir=str(tmp_path), run_id="crash")
    assert resumed.outcomes == fresh.outcomes
    assert resumed.usage == fresh.usage
    written = Counter(t["question_id"] for t in _trace_lines(tmp_path / "crash"))
    assert written == Counter(q.id for q in questions)


def test_fan_out_token_budget_overshoots_by_at_most_the_questions_in_flight(tmp_path):
    questions = generate_synthetic("coinflip", 16, seed=9)
    cfg = default_config(StrategyKind.SC, m_samples=2)
    full = run_experiment("coinflip", questions, cfg, _SlowBackend(questions, False),
                          runs_dir=str(tmp_path), run_id="full")
    costs = Counter()
    for trace in _trace_lines(tmp_path / "full"):
        costs[trace["question_id"]] += (trace["usage"]["prompt_tokens"]
                                        + trace["usage"]["completion_tokens"])
    assert sum(costs.values()) == full.usage.total_tokens
    budget = full.usage.total_tokens // 4
    record = run_experiment("coinflip", questions, cfg, _SlowBackend(questions, False),
                            max_total_tokens=budget, runs_dir=str(tmp_path), run_id="budget")
    assert record.partial
    assert len(record.outcomes) < len(questions)
    in_flight = sum(sorted(costs.values())[-MAX_IN_FLIGHT:])
    assert budget <= record.usage.total_tokens < budget + in_flight


# ---------------------------------------------------------------- pilot


def _record_with(outcomes_by_id, run_id="run", dataset="toy"):
    from breadth.bench import QuestionOutcome
    from breadth.core import Usage

    outcomes = tuple(
        QuestionOutcome(question_id=qid,
                        final=Answer(AnswerFormat.MULTIPLE_CHOICE, "A"),
                        correct=correct, trace_count=1)
        for qid, correct in outcomes_by_id.items()
    )
    correct_n = sum(1 for o in outcomes if o.correct)
    return RunRecord(run_id=run_id, dataset=dataset, config={"kind": "cot"},
                     outcomes=outcomes,
                     accuracy=correct_n / len(outcomes) if outcomes else 0.0,
                     usage=Usage(), wall_time_s=0.0)


def test_pilot_subset_selects_cot_wrong_deep_right():
    cot = _record_with({"q0": False, "q1": True})
    deep = _record_with({"q0": True, "q1": True})
    assert pilot_subset(cot, deep) == ["q0"]


def test_pilot_subset_empty_when_cot_all_correct():
    cot = _record_with({"q0": True, "q1": True})
    deep = _record_with({"q0": True, "q1": True})
    assert pilot_subset(cot, deep) == []


def test_pilot_subset_rejects_mismatched_sets():
    cot = _record_with({"q0": True})
    deep = _record_with({"q0": True, "q1": True})
    with pytest.raises(ValueError, match=r"^runs cover different questions: only the CoT run "
                                         r"has \[\]; only the deep run has \['q1'\]$"):
        pilot_subset(cot, deep)


def test_pilot_subset_mismatch_names_the_ids_of_one_run_only():
    # Equal counts used to read "2 vs 2".
    cot = _record_with({"q0": True, "q1": True})
    deep = _record_with({"q0": True, "q2": True})
    with pytest.raises(ValueError,
                       match=r"only the CoT run has \['q1'\]; only the deep run has \['q2'\]"):
        pilot_subset(cot, deep)


def _sc_backend_for_plateau(questions, answer_plan, m):
    """answer_plan: per question, a function from sample index to label."""
    backend = ScriptedBackend()
    trigger = answer_trigger(AnswerFormat.MULTIPLE_CHOICE)
    for q in questions:
        plan = answer_plan[q.id]
        reasonings = [f"path {j} for {q.id}" for j in range(m)]
        backend.add_rule(assemble_reasoning_input(q.text, PROMPT), reasonings, exact=True)
        for j, reasoning in enumerate(reasonings):
            backend.add_rule(
                assemble_prediction_input(q.text, PROMPT, reasoning, trigger),
                [f"the answer is ({plan(j)})"], exact=True)
    return backend


def test_pilot_plateau_half_recovered_then_rise_and_flat(tmp_path):
    """Self-consistency over a subset where one path fixes half the questions:
    accuracy over growing sample budgets rises then plateaus."""
    questions = _four_questions()  # gold A everywhere
    answer_plan = {
        "q0": lambda j: "A",                      # recovered at m=1
        "q1": lambda j: "A",                      # recovered at m=1
        "q2": lambda j: "B" if j == 0 else "A",   # recovered once majority flips
        "q3": lambda j: "B",                      # never recovered
    }
    accuracies = []
    for m in range(1, 7):
        backend = _sc_backend_for_plateau(questions, answer_plan, m)
        cfg = default_config(StrategyKind.SC, m_samples=m)
        record = run_experiment("subset", questions, cfg, backend,
                                runs_dir=str(tmp_path), run_id=f"sc-m{m}")
        accuracies.append(record.accuracy)
    assert accuracies[0] == pytest.approx(0.5)  # half at one path
    assert all(a <= b + 1e-9 for a, b in zip(accuracies, accuracies[1:]))
    assert accuracies[-1] == accuracies[-2] == accuracies[-3]  # plateau
    assert accuracies[-1] > accuracies[0]


def test_run_experiment_over_a_grid_of_sample_counts(tmp_path):
    questions = _four_questions()[:1]
    records = [
        run_experiment("toy", questions, default_config(StrategyKind.SC, m_samples=m),
                       ScriptedBackend({"": ["the answer is (A)"] * 200}),
                       runs_dir=str(tmp_path), run_id=f"toy-sc-n1-m{m}")
        for m in (1, 2, 3)
    ]
    assert [r.config["m_samples"] for r in records] == [1, 2, 3]
    assert all(r.accuracy == 1.0 for r in records)


# ---------------------------------------------------------------- reports


def test_emit_report_table_rows_methods_columns_datasets():
    records = [
        _record_with({"q0": True, "q1": True}, run_id="a", dataset="aqua"),
        _record_with({"q0": False, "q1": True}, run_id="b", dataset="gsm8k"),
    ]
    table = emit_report(records, fmt="table")
    lines = table.strip().splitlines()
    assert lines[0].split() == ["method", "aqua", "gsm8k", "avg"]
    assert len(lines) == 2  # one method row
    assert "100.0" in lines[1] and "50.0" in lines[1] and "75.0" in lines[1]


def test_emit_report_two_methods_two_datasets_is_two_by_three():
    def with_kind(record, kind):
        return RunRecord(**{**record.to_dict(), "outcomes": record.outcomes,
                            "usage": record.usage, "config": {"kind": kind}})

    records = [
        with_kind(_record_with({"q0": True}, run_id="a1", dataset="aqua"), "sc"),
        with_kind(_record_with({"q0": False}, run_id="a2", dataset="gsm8k"), "sc"),
        with_kind(_record_with({"q0": True}, run_id="b1", dataset="aqua"), "cot"),
        with_kind(_record_with({"q0": True}, run_id="b2", dataset="gsm8k"), "cot"),
    ]
    lines = emit_report(records, fmt="csv").strip().splitlines()
    assert lines[0] == "method,aqua,gsm8k,avg"
    assert len(lines) == 3  # header + one row per method
    assert lines[1] == "sc,100.0,0.0,50.0"
    assert lines[2] == "cot,100.0,100.0,100.0"


def test_emit_report_delta_rows_against_baseline():
    sc = _record_with({"q0": False, "q1": True}, run_id="sc", dataset="aqua")
    sc = RunRecord(**{**sc.to_dict(), "outcomes": sc.outcomes,
                      "usage": sc.usage, "config": {"kind": "sc"}})
    ours = _record_with({"q0": True, "q1": True}, run_id="ours", dataset="aqua")
    ours = RunRecord(**{**ours.to_dict(), "outcomes": ours.outcomes,
                        "usage": ours.usage, "config": {"kind": "promptc_sc"}})
    csv_text = emit_report([sc, ours], fmt="csv", baselines=["sc"])
    lines = csv_text.strip().splitlines()
    assert lines[0] == "method,aqua,avg"
    delta = [l for l in lines if "vs sc" in l]
    assert len(delta) == 1
    assert "(+50.0)" in delta[0]


def test_emit_report_refuses_two_runs_of_one_method_on_one_dataset():
    records = [_record_with({"q0": False, "q1": True}, run_id="sc-m3", dataset="coinflip"),
               _record_with({"q0": True, "q1": True}, run_id="sc-m10", dataset="coinflip")]
    with pytest.raises(ValueError, match="runs sc-m3 and sc-m10 both give method cot "
                                         "on dataset coinflip"):
        emit_report(records, fmt="table")
    # JSON lists every run, so nothing would be lost there.
    assert len(json.loads(emit_report(records, fmt="json"))["records"]) == 2


def test_emit_report_refuses_a_baseline_that_is_no_runs_method():
    record = _record_with({"q0": True}, run_id="a", dataset="aqua")
    for fmt in ("table", "csv", "json"):
        with pytest.raises(UnknownBaselineError,
                           match="no run has method nope; the runs have cot"):
            emit_report([record], fmt=fmt, baselines=["cot", "nope"])


def test_emit_report_json_round_trips():
    record = _record_with({"q0": True, "q1": False}, run_id="x", dataset="aqua")
    payload = json.loads(emit_report([record], fmt="json"))
    assert RunRecord.from_dict(payload["records"][0]) == record


def test_load_run_record_of_a_directory_without_a_summary_names_the_path(tmp_path):
    path = tmp_path / "summary.json"
    with pytest.raises(FileNotFoundError, match=f"^no summary at {re.escape(str(path))}$"):
        load_run_record(str(tmp_path))


def test_load_run_record_of_a_summary_that_is_not_json_names_the_place(tmp_path):
    # It read as json's own message, with no word that the file was not JSON.
    path = tmp_path / "summary.json"
    path.write_text("{bad", encoding="utf-8")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: invalid JSON at line 1 "
                                         "column 2: Expecting property name"):
        load_run_record(str(tmp_path))


def test_load_run_record_round_trip(tmp_path):
    questions = _four_questions()[:2]
    backend = _scripted_for(questions, ["A", "B"])
    record = run_experiment("toy", questions, default_config(StrategyKind.COT),
                            backend, runs_dir=str(tmp_path), run_id="io")
    assert load_run_record(str(tmp_path / "io")) == record
