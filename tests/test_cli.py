import json
import os
import shlex
import subprocess
import sys

import pytest

from breadth import cli
from breadth.bench import generate_synthetic, run_experiment
from breadth.cli import build_parser, main
from breadth.core import AnswerFormat, StrategyKind, default_config
from breadth.llmio import (
    API_KEY_ENV,
    CompletionRequest,
    RecordingBackend,
    ReplayStore,
    ScriptedBackend,
)
from breadth.strategy import (
    answer_trigger,
    assemble_prediction_input,
    assemble_reasoning_input,
)
from conftest import IGNORED_KNOBS, NON_DEFAULT_KNOBS, knob_id, mc_question, request_dict

PROMPT = "Let's think step by step."
YES_TRIGGER = "Therefore, the answer (Yes or No) is"


@pytest.fixture(autouse=True)
def no_api_key(monkeypatch):
    monkeypatch.delenv(API_KEY_ENV, raising=False)


def _mock_script_file(tmp_path, script, name="script.json"):
    path = tmp_path / name
    path.write_text(json.dumps(script), encoding="utf-8")
    return str(path)


def test_help_exits_zero(capsys):
    assert main(["run", "--help"]) == 0
    out = capsys.readouterr().out
    assert "--strategy" in out and "--dry-run" in out


def test_no_command_prints_help(capsys):
    assert main([]) == 0
    assert "command" in capsys.readouterr().out


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--dataset", "coinflip", "--strategy", "cot",
                 "--no-such-flag"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_conflicting_backend_flags_rejected(tmp_path, capsys):
    cache = tmp_path / "c.jsonl"
    cache.write_text("", encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--strategy", "cot",
                 "--replay", str(cache), "--record", str(cache)])
    assert code == 1
    assert "one of" in capsys.readouterr().err


def test_missing_api_key_in_live_mode_is_actionable(capsys):
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--strategy", "cot"])
    assert code == 2
    assert API_KEY_ENV in capsys.readouterr().err


def test_dry_run_prints_six_planned_paths(capsys):
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--strategy", "questionc-sc", "--n", "3", "--m", "2",
                 "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out
    assert "6 planned paths" in out
    assert out.count("--- round=") == 6


def test_run_with_mock_script(tmp_path, capsys):
    script = {
        "step by step": ["reasoning about coins"] * 8,
        YES_TRIGGER: ["the answer is yes"] * 4,
    }
    code = main([
        "run", "--dataset", "coinflip", "--limit", "2", "--strategy", "cot",
        "--mock-script", _mock_script_file(tmp_path, script),
        "--runs-dir", str(tmp_path / "runs"), "--run-id", "cli-run", "--seed", "3",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "cli-run" in out
    summary = json.loads((tmp_path / "runs" / "cli-run" / "summary.json").read_text())
    assert summary["config"]["backend_mode"] == "mock"
    assert len(summary["outcomes"]) == 2


def test_run_config_file_with_flag_precedence(tmp_path):
    config = {"kind": "sc", "m_samples": 4, "temperature": 0.2}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    script = {
        "step by step": ["r"] * 12,
        YES_TRIGGER: ["the answer is no"] * 12,
    }
    code = main([
        "run", "--dataset", "coinflip", "--limit", "1",
        "--config", str(config_path), "--m", "2",
        "--mock-script", _mock_script_file(tmp_path, script),
        "--runs-dir", str(tmp_path / "runs"), "--run-id", "cfg-run",
    ])
    assert code == 0
    summary = json.loads((tmp_path / "runs" / "cfg-run" / "summary.json").read_text())
    assert summary["config"]["kind"] == "sc"
    assert summary["config"]["m_samples"] == 2  # flag beats file
    assert summary["config"]["temperature"] == 0.2  # file beats default


def test_answer_trigger_override_via_config_file(tmp_path):
    custom_trigger = "State only yes or no now:"
    config = {"kind": "cot", "answer_triggers": {"yes_no": custom_trigger}}
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    script = {
        "step by step": ["reasoning"] * 2,
        custom_trigger: ["the answer is yes"] * 2,
    }
    code = main([
        "run", "--dataset", "coinflip", "--limit", "1", "--seed", "2",
        "--config", str(config_path),
        "--mock-script", _mock_script_file(tmp_path, script),
        "--runs-dir", str(tmp_path / "runs"), "--run-id", "trig-run",
    ])
    assert code == 0
    summary = json.loads((tmp_path / "runs" / "trig-run" / "summary.json").read_text())
    assert summary["config"]["answer_triggers"]["yes_no"] == custom_trigger
    traces = (tmp_path / "runs" / "trig-run" / "traces.jsonl").read_text()
    assert custom_trigger not in traces.split("raw_prediction_text")[0]


def test_dry_run_shows_the_answer_trigger_from_the_config_file(tmp_path, capsys):
    custom_trigger = "So the verdict is"
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"answer_triggers": {"yes_no": custom_trigger}}),
                           encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--strategy", "zero-shot", "--config", str(config_path), "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.rstrip("\n").endswith(custom_trigger)
    assert YES_TRIGGER not in out


def test_reformulate_subcommand(tmp_path, capsys):
    script = {"Rephrase the following sentence": ["One rewrite.", "Another rewrite."]}
    code = main([
        "reformulate", "--target", "prompt", "--n", "3", "--include-original",
        "--text", "Let's think step by step.",
        "--mock-script", _mock_script_file(tmp_path, script),
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["Let's think step by step.", "One rewrite.", "Another rewrite."]


def test_reformulate_reads_stdin(tmp_path, capsys, monkeypatch):
    import io

    script = {"Rephrase the following sentence": ["Reworded once."]}
    monkeypatch.setattr("sys.stdin", io.StringIO("Take it slowly.\n"))
    code = main(["reformulate", "--target", "prompt", "--n", "1",
                 "--mock-script", _mock_script_file(tmp_path, script)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Reworded once."


def test_cache_missing_file_is_runtime_error(tmp_path, capsys):
    assert main(["cache", "--file", str(tmp_path / "absent.jsonl")]) == 2
    assert "no cache file" in capsys.readouterr().err


def test_entropy_subcommand(tmp_path, capsys):
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps(q.to_dict()) + "\n", encoding="utf-8")
    script = {
        "step by step": ["r"] * 10,
        "Therefore, among A through E, the answer is": ["the answer is (A)"] * 10,
    }
    code = main([
        "entropy", "--factors", "sampling", "--subset", str(subset),
        "--dataset", "toy", "--mock-script", _mock_script_file(tmp_path, script),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "dataset,sampling"
    assert out.splitlines()[1] == "toy,0.0000"


def test_entropy_reports_model_perturbation_as_unsupported(tmp_path, capsys):
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps(q.to_dict()) + "\n", encoding="utf-8")
    script = {
        "step by step": ["r"] * 10,
        "Therefore, among A through E, the answer is": ["the answer is (A)"] * 10,
    }
    code = main([
        "entropy", "--factors", "sampling,llms", "--subset", str(subset),
        "--dataset", "toy", "--mock-script", _mock_script_file(tmp_path, script),
    ])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["dataset,sampling,llms", "toy,0.0000,unsupported"]


def test_entropy_prompt_k_above_the_bank_exits_2_before_any_call(tmp_path, capsys,
                                                                monkeypatch):
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps(q.to_dict()) + "\n", encoding="utf-8")
    backend = ScriptedBackend({"": [f"text {i}" for i in range(500)]})
    monkeypatch.setattr(cli, "_build_backend", lambda args: backend)
    code = main(["entropy", "--factors", "question,prompt", "--k", "11",
                 "--subset", str(subset)])
    assert code == 2
    assert "prompt factor supports at most 10 paths" in capsys.readouterr().err
    assert backend.calls == []


def test_entropy_leaves_a_failed_question_out_and_goes_on(tmp_path, capsys):
    questions = [mc_question(f"s{i}", f"Pick {i}. Answer Choices: (A) x (B) y", "A")
                 for i in range(2)]
    subset = tmp_path / "subset.jsonl"
    subset.write_text("".join(json.dumps(q.to_dict()) + "\n" for q in questions),
                      encoding="utf-8")
    # Rewrites for the first question only: the second one's rewrite fails.
    script = {
        "rephrase the following question": ["Pick, reworded?", "Pick, again?"],
        "step by step": ["r"] * 20,
        "Therefore, among A through E, the answer is": ["the answer is (A)"] * 20,
    }
    code = main(["entropy", "--factors", "question,sampling", "--k", "3",
                 "--subset", str(subset), "--dataset", "toy",
                 "--mock-script", _mock_script_file(tmp_path, script)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["dataset,question,sampling", "toy,0.0000,0.0000"]
    assert lines[-1] == "# question: 1 of 2 questions failed"
    assert not any(line.startswith("# sampling:") for line in lines)


def test_votemodel_subcommand(tmp_path, capsys):
    out_path = tmp_path / "curve.csv"
    code = main(["votemodel", "--p", "0.6", "--rho", "0.8", "--n", "3", "--m", "2",
                 "--trials", "20000", "--seed", "7", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "k,accuracy,std_err,analytic_iid"
    assert len(lines) == 7  # header + k=1..6


def test_report_and_pilot_subset_subcommands(tmp_path, capsys):
    questions = [mc_question(f"q{i}", f"Probe {i}. Answer Choices: (A) x (B) y", "A")
                 for i in range(2)]
    trigger = answer_trigger(AnswerFormat.MULTIPLE_CHOICE)

    def backend_with(labels):
        backend = ScriptedBackend()
        for q, label in zip(questions, labels):
            reasoning = f"r-{q.id}"
            backend.add_rule(assemble_reasoning_input(q.text, PROMPT), [reasoning], exact=True)
            backend.add_rule(
                assemble_prediction_input(q.text, PROMPT, reasoning, trigger),
                [f"the answer is ({label})"], exact=True)
        return backend

    runs = tmp_path / "runs"
    run_experiment("toy", questions, default_config(StrategyKind.COT),
                   backend_with(["B", "A"]), runs_dir=str(runs), run_id="cot")
    run_experiment("toy", questions,
                   default_config(StrategyKind.DEEP_COT, max_iterations=1),
                   backend_with(["A", "A"]), runs_dir=str(runs), run_id="deep")

    code = main(["pilot-subset", "--cot", str(runs / "cot"), "--deep", str(runs / "deep")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "q0"

    code = main(["report", "--runs", str(runs / "cot"), str(runs / "deep"),
                 "--format", "csv", "--baseline", "cot"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "method,toy,avg"
    assert any("vs cot" in line and "(+50.0)" in line for line in out.splitlines())


def test_cache_subcommand_counts_and_verifies(tmp_path, capsys):
    cache_path = str(tmp_path / "cache.jsonl")
    inner = ScriptedBackend({"q": ["resp1", "resp2"]})
    recorder = RecordingBackend(inner, ReplayStore(cache_path))
    recorder.complete(CompletionRequest(model="m", user_text="q", n_samples=2))

    assert main(["cache", "--file", cache_path, "--verify"]) == 0
    out = capsys.readouterr().out
    assert "2 recorded responses" in out
    assert "all keys verified" in out

    # corrupt a record's key: verify must fail with a runtime error
    with open(cache_path) as fh:
        lines = fh.read().splitlines()
    record = json.loads(lines[0])
    record["key"] = "0" * 64
    with open(cache_path, "w") as fh:
        fh.write(json.dumps(record) + "\n" + lines[1] + "\n")
    assert main(["cache", "--file", cache_path, "--verify"]) == 2


def test_cache_counts_and_verifies_the_last_record_of_a_duplicate_key(tmp_path, capsys):
    cache_path = tmp_path / "cache.jsonl"
    RecordingBackend(ScriptedBackend({"q": ["resp1", "resp2"]}), ReplayStore(str(cache_path))
                     ).complete(CompletionRequest(model="m", user_text="q", n_samples=2))
    good = cache_path.read_text(encoding="utf-8")
    first = json.loads(good.splitlines()[0])
    stale = {**first, "request": {**first["request"], "user_text": "other"}}

    # A bad record replaced by a later good one under the same key verifies.
    cache_path.write_text(json.dumps(stale) + "\n" + good, encoding="utf-8")
    assert main(["cache", "--file", str(cache_path), "--verify"]) == 0
    assert capsys.readouterr().out == (f"2 recorded responses in {cache_path}\n"
                                       "all keys verified\n")

    # A good record replaced by a later bad one does not.
    cache_path.write_text(good + json.dumps(stale) + "\n", encoding="utf-8")
    assert main(["cache", "--file", str(cache_path)]) == 0
    assert capsys.readouterr().out == f"2 recorded responses in {cache_path}\n"
    assert main(["cache", "--file", str(cache_path), "--verify"]) == 2
    captured = capsys.readouterr()
    assert captured.out == (f"2 recorded responses in {cache_path}\n"
                            f"key mismatch: {first['key']}\n")
    assert captured.err == "error: 1 corrupt cache records\n"


@pytest.mark.parametrize("request_fields", [
    {"model": "m", "user_text": "q", "bogus": 1},
    {"model": "m"},
    "not a request",
    # A stored request's max_tokens, system_text and top_k slots must be null.
    {**request_dict(CompletionRequest(model="m", user_text="q")), "system_text": "sys"},
    {**request_dict(CompletionRequest(model="m", user_text="q")), "top_k": 10},
    {**request_dict(CompletionRequest(model="m", user_text="q")), "max_tokens": 64},
])
def test_cache_verify_counts_a_request_that_does_not_parse(tmp_path, capsys, request_fields):
    cache_path = tmp_path / "cache.jsonl"
    RecordingBackend(ScriptedBackend({"q": ["resp1", "resp2"]}), ReplayStore(str(cache_path))
                     ).complete(CompletionRequest(model="m", user_text="q", n_samples=2))
    with open(cache_path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"key": "k3", "request": request_fields,
                             "texts": ["t"], "usage": {}}) + "\n")
    assert main(["cache", "--file", str(cache_path), "--verify"]) == 2
    captured = capsys.readouterr()
    assert "bad request: k3" in captured.out
    assert "error: 1 corrupt cache records" in captured.err


@pytest.mark.parametrize("edit", [
    lambda record: {**record, "texts": ["a", "b"]},
    lambda record: {**record, "usage": {**record["usage"], "prompt_tokens": None}},
    lambda record: {**record, "usage": {**record["usage"], "completion_tokens": "12"}},
    lambda record: {**record, "usage": {**record["usage"], "prompt_tokens": -5}},
    lambda record: {**record, "usage": 5},
    lambda record: {k: v for k, v in record.items() if k != "texts"},
], ids=["two-texts", "null-count", "string-count", "negative-count", "usage-5", "no-texts"])
def test_cache_verify_counts_a_record_that_replay_cannot_serve(tmp_path, capsys, edit):
    cache_path = tmp_path / "cache.jsonl"
    RecordingBackend(ScriptedBackend({"q": ["resp1", "resp2"]}), ReplayStore(str(cache_path))
                     ).complete(CompletionRequest(model="m", user_text="q", n_samples=2))
    first, second = cache_path.read_text(encoding="utf-8").splitlines()
    record = json.loads(first)
    cache_path.write_text(f"{first}\n{second}\n{json.dumps(edit(record))}\n", encoding="utf-8")
    assert main(["cache", "--file", str(cache_path), "--verify"]) == 2
    captured = capsys.readouterr()
    assert f"cannot serve: record {record['key']} has no usable" in captured.out
    assert captured.err == "error: 1 corrupt cache records\n"
    with pytest.raises(ValueError, match=f"record {record['key']} has no usable"):
        ReplayStore(str(cache_path)).response([record["key"]])


@pytest.mark.parametrize("line, reason", [
    ("[1,2]", "is not a JSON object"),
    ('{"request": {}, "texts": ["t"], "usage": {}}', "has no string 'key'"),
])
def test_cache_and_replay_reject_a_record_without_a_key(tmp_path, capsys, line, reason):
    cache_path = tmp_path / "cache.jsonl"
    cache_path.write_text(line + "\n" + json.dumps({"key": "k", "texts": ["t"]}) + "\n",
                          encoding="utf-8")
    expected = f"error: {cache_path}: record at line 1 {reason}"
    assert main(["cache", "--file", str(cache_path)]) == 2
    assert capsys.readouterr().err.strip() == expected
    assert main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                 "--replay", str(cache_path), "--runs-dir", str(tmp_path / "runs")]) == 2
    assert capsys.readouterr().err.strip() == expected


def test_replay_of_a_missing_cache_exits_2_before_the_run_starts(tmp_path, capsys):
    # It used to run, fail every question as a cache miss and exit 0.
    missing = tmp_path / "nope.jsonl"
    runs = tmp_path / "runs"
    code = main(["run", "--dataset", "coinflip", "--limit", "2", "--strategy", "cot",
                 "--replay", str(missing), "--runs-dir", str(runs), "--run-id", "r"])
    assert code == 2
    assert str(missing) in capsys.readouterr().err
    assert not runs.exists() and not missing.exists()


def test_replay_flag_round_trip(tmp_path, capsys):
    # Seeded generator questions are reproducible, so a cache recorded through
    # the library replays through the CLI over the same dataset slice.
    questions = generate_synthetic("coinflip", 2, seed=5)
    trigger = answer_trigger(AnswerFormat.YES_NO)
    live = ScriptedBackend()
    for q in questions:
        reasoning = f"r-{q.id}"
        live.add_rule(assemble_reasoning_input(q.text, PROMPT), [reasoning], exact=True)
        live.add_rule(assemble_prediction_input(q.text, PROMPT, reasoning, trigger),
                      [f"the answer is {q.gold.value}"], exact=True)
    cache = str(tmp_path / "cache.jsonl")
    run_experiment("coinflip", questions, default_config(StrategyKind.COT),
                   RecordingBackend(live, ReplayStore(cache)),
                   runs_dir=str(tmp_path / "r0"), run_id="seed-run")

    code = main(["run", "--dataset", "coinflip", "--seed", "5", "--limit", "2",
                 "--strategy", "cot", "--replay", cache,
                 "--runs-dir", str(tmp_path / "r1"), "--run-id", "replayed"])
    assert code == 0
    assert "accuracy 1.000" in capsys.readouterr().out
    summary = json.loads((tmp_path / "r1" / "replayed" / "summary.json").read_text())
    assert summary["config"]["backend_mode"] == "replay"


def test_record_flag_opens_a_store_that_writes_no_index(tmp_path, monkeypatch):
    # Its first append would leave an index stale. No request is sent: the
    # backend is only built.
    cache = tmp_path / "cache.jsonl"
    RecordingBackend(ScriptedBackend({"q": ["a"]}), ReplayStore(str(cache))).complete(
        CompletionRequest(model="m", user_text="q", temperature=0.0))
    monkeypatch.setenv(API_KEY_ENV, "k")
    args = build_parser().parse_args(["run", "--dataset", "coinflip", "--strategy", "cot",
                                      "--record", str(cache)])
    backend = cli._build_backend(args)
    assert isinstance(backend, RecordingBackend) and len(backend.store) == 1
    assert os.listdir(tmp_path) == ["cache.jsonl"]


# ---------------------------------------------------------------- README


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _readme_blocks(language):
    """The fenced blocks of README.md tagged with ``language``."""
    blocks, current = [], None
    with open(README, encoding="utf-8") as fh:
        lines = fh.readlines()
    for line in lines:
        if line.startswith("```"):
            if current is None:
                current = [line[3:].strip()]
            else:
                blocks.append(current)
                current = None
        elif current is not None:
            current.append(line)
    return ["".join(lines) for tag, *lines in blocks if tag == language]


def test_readme_commands_parse():
    # A flag removed or renamed without a README update fails here.
    commands = []
    for block in _readme_blocks(""):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line.split("|")[-1], comments=True)
            if words[:1] == ["breadth"]:
                commands.append(words[1:])
    assert len(commands) >= 8
    parser = build_parser()
    for words in commands:
        parser.parse_args(words)


def test_readme_mock_script_examples_load():
    # The mapping answers by substring; the rule list's exact rule wins.
    request = CompletionRequest(model="m", user_text="Is it raining?\n" + PROMPT)
    scripts = [json.loads(b) for b in _readme_blocks("json") if '"kind"' not in b]
    answers = [ScriptedBackend(script).complete(request).texts for script in scripts]
    assert answers == [("reasoning one",), ("reasoning two",)]


def test_config_value_of_wrong_type_is_an_error(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"kind": "sc", "m_samples": "3"}), encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--config", str(config_path), "--dry-run"])
    assert code == 2
    assert "'m_samples' must be int" in capsys.readouterr().err


@pytest.mark.parametrize("temperature", ["nan", "inf"])
def test_non_finite_temperature_is_an_error(tmp_path, capsys, temperature):
    # JSON has no NaN or Infinity, so such a run could write no valid summary.
    script = {"step by step": ["reasoning about coins"], YES_TRIGGER: ["the answer is yes"]}
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                 "--temperature", temperature,
                 "--mock-script", _mock_script_file(tmp_path, script),
                 "--runs-dir", str(tmp_path / "runs"), "--run-id", "hot"])
    assert code == 2
    assert "temperature must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "runs" / "hot").exists()


def test_readme_config_example_loads(tmp_path, capsys):
    (example,) = [b for b in _readme_blocks("json") if '"kind"' in b]
    config_path = tmp_path / "config.json"
    config_path.write_text(example, encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--config", str(config_path), "--dry-run"])
    assert code == 0
    assert "3 planned paths" in capsys.readouterr().out


FLAGS = {"n_reformulations": "--n", "m_samples": "--m", "max_iterations": "--max-iter",
         "stop_rule": "--stop"}


@pytest.mark.parametrize("kind,knob", [p for p in IGNORED_KNOBS if p[1] in FLAGS], ids=knob_id)
def test_run_flag_of_a_knob_the_kind_ignores_exits_2(kind, knob, capsys):
    value = "stable" if knob == "stop_rule" else "2"
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", kind.value,
                 FLAGS[knob], value, "--dry-run"])
    assert code == 2
    assert f"{kind.value} ignores {knob}=" in capsys.readouterr().err


@pytest.mark.parametrize("kind,knob", IGNORED_KNOBS, ids=knob_id)
def test_config_key_of_a_knob_the_kind_ignores_exits_2(tmp_path, kind, knob, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"kind": kind.value, knob: NON_DEFAULT_KNOBS[knob]}),
                           encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--config", str(config_path), "--dry-run"])
    assert code == 2
    assert f"{kind.value} ignores {knob}=" in capsys.readouterr().err


def test_report_loads_a_summary_that_echoes_knobs_its_kind_ignores(tmp_path, capsys):
    # Summaries written before configs were checked echo every knob.
    run_experiment("coinflip", generate_synthetic("coinflip", 1, seed=5),
                   default_config(StrategyKind.COT),
                   ScriptedBackend({"": ["r", "the answer is yes"]}),
                   runs_dir=str(tmp_path), run_id="old")
    path = tmp_path / "old" / "summary.json"
    summary = json.loads(path.read_text(encoding="utf-8"))
    summary["config"].update(n_reformulations=3, m_samples=3, max_iterations=3)
    path.write_text(json.dumps(summary), encoding="utf-8")
    assert main(["report", "--runs", str(tmp_path / "old")]) == 0
    assert "cot" in capsys.readouterr().out


def test_data_path_for_a_generated_dataset_exits_2(tmp_path, capsys):
    code = main(["run", "--dataset", "coinflip", "--data-path", str(tmp_path / "x.json"),
                 "--strategy", "cot", "--dry-run"])
    assert code == 2
    assert "dataset coinflip is generated" in capsys.readouterr().err


def test_seed_for_a_file_dataset_exits_2(tmp_path, capsys):
    data_path = tmp_path / "test.jsonl"
    data_path.write_text(json.dumps({"question": "1 + 1?", "answer": "#### 2"}) + "\n",
                         encoding="utf-8")
    code = main(["run", "--dataset", "gsm8k", "--data-path", str(data_path), "--seed", "3",
                 "--strategy", "cot", "--dry-run"])
    assert code == 2
    assert "dataset gsm8k is read from a file; --seed 3" in capsys.readouterr().err


def test_config_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps([{"kind": "cot"}]), encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--config", str(config_path), "--dry-run"])
    assert code == 2
    assert str(config_path) in capsys.readouterr().err


def test_strategyqa_file_that_is_not_an_object_exits_2(tmp_path, capsys):
    data_path = tmp_path / "task.json"
    data_path.write_text("[1, 2]", encoding="utf-8")
    code = main(["run", "--dataset", "strategyqa", "--data-path", str(data_path),
                 "--strategy", "cot", "--dry-run"])
    assert code == 2
    assert "strategyqa[0]: expected an object with an 'examples' list" in capsys.readouterr().err


def test_answer_triggers_that_are_not_an_object_exit_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"kind": "cot", "answer_triggers": ["So"]}),
                           encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--config", str(config_path), "--dry-run"])
    assert code == 2
    assert "'answer_triggers' must be an object" in capsys.readouterr().err


def test_mock_script_rule_that_is_not_an_object_exits_2(tmp_path, capsys):
    script = _mock_script_file(tmp_path, [{"match": "step", "responses": ["r"]}, "step"])
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                 "--mock-script", script, "--runs-dir", str(tmp_path / "runs")])
    assert code == 2
    assert script in capsys.readouterr().err


_NOT_STRINGS = "script rule 'step by step': responses must be a string or a list of strings"


@pytest.mark.parametrize("script,message", [
    ({"step by step": 5}, _NOT_STRINGS),
    ([{"match": "step by step", "responses": 5}], _NOT_STRINGS),
    ([{"match": "step by step", "responses": ["r", 5]}], _NOT_STRINGS),
    ([{"match": 5, "responses": ["r"]}], "script rule 5: match must be a string"),
], ids=["object", "rule-list", "non-string-response", "non-string-match"])
def test_mock_script_rule_that_is_not_text_exits_2(tmp_path, capsys, script, message):
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                 "--mock-script", _mock_script_file(tmp_path, script),
                 "--runs-dir", str(tmp_path / "runs")])
    assert code == 2
    assert message in capsys.readouterr().err


def test_entropy_subset_line_that_is_not_an_object_exits_2(tmp_path, capsys):
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps(q.to_dict()) + "\n[1, 2]\n", encoding="utf-8")
    code = main(["entropy", "--factors", "sampling", "--subset", str(subset),
                 "--mock-script", _mock_script_file(tmp_path, {})])
    assert code == 2
    assert str(subset) in capsys.readouterr().err


def test_entropy_subset_line_that_is_not_json_names_the_line(tmp_path, capsys):
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps(q.to_dict()) + "\n{bad\n", encoding="utf-8")
    code = main(["entropy", "--factors", "sampling", "--subset", str(subset),
                 "--mock-script", _mock_script_file(tmp_path, {})])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        f"error: --subset {subset}: invalid JSON at line 2 column 2: "
        "Expecting property name enclosed in double quotes")


@pytest.mark.parametrize("choices", [5, [5], [["A"]]], ids=["not-a-list", "int", "one-item"])
def test_entropy_subset_line_with_malformed_choices_exits_2(tmp_path, capsys, choices):
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps({**q.to_dict(), "choices": choices}) + "\n", encoding="utf-8")
    code = main(["entropy", "--factors", "sampling", "--subset", str(subset),
                 "--mock-script", _mock_script_file(tmp_path, {})])
    assert code == 2
    assert str(subset) in capsys.readouterr().err


def _cot_run(tmp_path):
    """Run cot over one coinflip question; return the arguments that ran it."""
    script = {"step by step": ["reasoning about coins"], YES_TRIGGER: ["the answer is yes"]}
    argv = ["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
            "--mock-script", _mock_script_file(tmp_path, script),
            "--runs-dir", str(tmp_path / "runs"), "--run-id", "r"]
    assert main(argv) == 0
    return argv


@pytest.mark.parametrize("mistyped", ['"round":"1"', '"round":1.0'])
def test_resume_over_a_mistyped_trace_line_exits_2(tmp_path, capsys, mistyped):
    argv = _cot_run(tmp_path)
    traces = tmp_path / "runs" / "r" / "traces.jsonl"
    line = traces.read_text(encoding="utf-8")
    assert line.count('"round":1,') == 1
    traces.write_text(line.replace('"round":1,', mistyped + ","), encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{traces}: record at line 1" in err and "'round' must be int" in err


@pytest.mark.parametrize("edit", [
    lambda summary: {**summary, "outcomes": 5},
    lambda summary: {**summary, "outcomes": [{**summary["outcomes"][0], "final": "x"}]},
    lambda summary: {**summary, "usage": {**summary["usage"], "prompt_tokens": -5}},
], ids=["outcomes-not-a-list", "final-not-an-object", "negative-usage"])
def test_report_and_pilot_subset_over_a_malformed_summary_exit_2(tmp_path, capsys, edit):
    _cot_run(tmp_path)
    run_dir = tmp_path / "runs" / "r"
    summary_path = run_dir / "summary.json"
    summary_path.write_text(json.dumps(edit(json.loads(summary_path.read_text()))),
                            encoding="utf-8")
    capsys.readouterr()
    for argv in (["report", "--runs", str(run_dir)],
                 ["pilot-subset", "--cot", str(run_dir), "--deep", str(run_dir)]):
        assert main(argv) == 2
        assert f"error: {summary_path}: " in capsys.readouterr().err


@pytest.mark.parametrize("field", ["prompt_tokens", "completion_tokens"])
def test_resume_over_a_negative_token_count_exits_2(tmp_path, capsys, field):
    argv = _cot_run(tmp_path)
    traces = tmp_path / "runs" / "r" / "traces.jsonl"
    trace = json.loads(traces.read_text(encoding="utf-8"))
    traces.write_text(json.dumps({**trace, "usage": {**trace["usage"], field: -5}}) + "\n",
                      encoding="utf-8")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{traces}: record at line 1" in err and f"'{field}' must be int >= 0" in err


def test_resume_under_another_strategy_exits_2_and_a_larger_limit_extends(tmp_path, capsys):
    script = _mock_script_file(tmp_path, {"step by step": ["reasoning about coins"] * 9,
                                          YES_TRIGGER: ["the answer is yes"] * 9})
    run = ["run", "--dataset", "coinflip", "--mock-script", script,
           "--runs-dir", str(tmp_path / "runs"), "--run-id", "r"]
    assert main(run + ["--limit", "3", "--strategy", "cot"]) == 0
    capsys.readouterr()
    assert main(run + ["--limit", "3", "--strategy", "sc", "--m", "3"]) == 2
    assert "kind, m_samples, temperature differ" in capsys.readouterr().err
    assert main(run + ["--limit", "4", "--strategy", "cot"]) == 0
    summary = json.loads((tmp_path / "runs" / "r" / "summary.json").read_text())
    assert summary["config"]["kind"] == "cot" and len(summary["outcomes"]) == 4


@pytest.mark.parametrize("key", ["seed", "data_path"])
def test_resume_under_another_seed_or_data_path_exits_2(tmp_path, capsys, key):
    # Generated questions keep their ids across seeds, and read ones across
    # files, so the first run's traces would be scored against other golds.
    script = _mock_script_file(tmp_path, {"": ["reasoning", "the answer is 2"]})
    run = ["run", "--limit", "1", "--strategy", "cot", "--mock-script", script,
           "--runs-dir", str(tmp_path / "runs"), "--run-id", "r"]
    if key == "seed":
        first, second = (["--dataset", "coinflip", "--seed", seed] for seed in ("1", "2"))
    else:
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path, gold in zip(paths, ("2", "3")):
            path.write_text(json.dumps({"question": "1 + 1?", "answer": f"#### {gold}"}) + "\n",
                            encoding="utf-8")
        first, second = (["--dataset", "gsm8k", "--data-path", str(path)] for path in paths)
    assert main(run + first) == 0
    traces = tmp_path / "runs" / "r" / "traces.jsonl"
    written = traces.read_bytes()
    capsys.readouterr()
    assert main(run + second) == 2
    assert f"{key} differ" in capsys.readouterr().err
    assert traces.read_bytes() == written


def test_resume_names_a_data_file_by_its_absolute_path(tmp_path, monkeypatch, capsys):
    # One file named two ways is the same file; one relative name resumed
    # from another directory is another file.
    script = _mock_script_file(tmp_path, {"": ["reasoning", "the answer is 2"]})
    run = ["run", "--dataset", "gsm8k", "--limit", "1", "--strategy", "cot",
           "--mock-script", script, "--runs-dir", str(tmp_path / "runs"), "--run-id", "r"]
    other = tmp_path / "other"
    other.mkdir()
    for directory, gold in ((tmp_path, "2"), (other, "3")):
        (directory / "a.jsonl").write_text(
            json.dumps({"question": "1 + 1?", "answer": f"#### {gold}"}) + "\n",
            encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert main(run + ["--data-path", "a.jsonl"]) == 0
    traces = tmp_path / "runs" / "r" / "traces.jsonl"
    written = traces.read_bytes()
    for same in ("./a.jsonl", str(tmp_path / "a.jsonl")):
        assert main(run + ["--data-path", same]) == 0
    monkeypatch.chdir(other)
    capsys.readouterr()
    assert main(run + ["--data-path", "a.jsonl"]) == 2
    assert "data_path differ" in capsys.readouterr().err
    assert traces.read_bytes() == written


@pytest.mark.parametrize("limit", ["0", "-1"])
def test_limit_below_one_is_a_usage_error(limit, capsys):
    code = main(["run", "--dataset", "coinflip", "--limit", limit,
                 "--strategy", "cot", "--dry-run"])
    assert code == 1
    assert "--limit must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_token_budget_below_one_is_a_usage_error(tmp_path, budget, capsys):
    script = {"step by step": ["reasoning"], YES_TRIGGER: ["the answer is yes"]}
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                 "--token-budget", budget, "--mock-script", _mock_script_file(tmp_path, script),
                 "--runs-dir", str(tmp_path / "runs")])
    assert code == 1
    assert "--token-budget must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flag", ["--config", "--mock-script"])
def test_invalid_json_input_file_exits_2_naming_the_file(tmp_path, capsys, flag):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "cot",\n  bad\n}\n', encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                 flag, str(path), "--runs-dir", str(tmp_path / "runs")])
    assert code == 2
    assert capsys.readouterr().err.strip() == (
        f"error: {flag} {path}: invalid JSON at line 2 column 3: "
        "Expecting property name enclosed in double quotes")


# Run in a fresh interpreter, so no module this test process imported counts.
_OFFLINE_IMPORTS = """
import sys
from breadth.cli import main

def assert_not_loaded(step):
    loaded = [m for m in ("numpy", "requests") if m in sys.modules]
    assert not loaded, f"{step} loaded {loaded}"

mock_script, cache, runs = sys.argv[1:]
assert_not_loaded("import breadth.cli")
run = ["run", "--dataset", "coinflip", "--seed", "5", "--limit", "2", "--strategy", "sc",
       "--m", "3", "--runs-dir", runs]
assert main(run + ["--mock-script", mock_script, "--run-id", "mock"]) == 0
assert_not_loaded("a --mock-script run")
assert main(run + ["--replay", cache, "--run-id", "replay"]) == 0
assert_not_loaded("a --replay run")
assert main(["report", "--runs", runs + "/mock", runs + "/replay"]) == 0
assert_not_loaded("report")

assert main(["votemodel", "--p", "0.6", "--n", "2", "--m", "2", "--trials", "100"]) == 0
assert "numpy" in sys.modules

import requests
from breadth.llmio import CompletionRequest, LiveBackend, NetworkError

live = LiveBackend("https://example.test/v1", api_key="k")
assert isinstance(live.session, requests.Session)
def refuse(*args, **kwargs):
    raise requests.ConnectionError("refused")
live.session.post = refuse
try:
    live._post(CompletionRequest(model="m", user_text="q"))
except NetworkError as exc:
    assert "refused" in str(exc)
else:
    raise AssertionError("no NetworkError")
"""


def test_offline_commands_load_neither_numpy_nor_requests(tmp_path):
    script = {"step by step": ["thinking"] * 6, YES_TRIGGER: ["the answer is yes"] * 6}
    mock_script = _mock_script_file(tmp_path, script)
    cache = str(tmp_path / "cache.jsonl")
    run_experiment("coinflip", generate_synthetic("coinflip", 2, seed=5),
                   default_config(StrategyKind.SC, m_samples=3),
                   RecordingBackend(ScriptedBackend(script), ReplayStore(cache)),
                   runs_dir=str(tmp_path / "record"), run_id="r0")
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["breadth"].__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", _OFFLINE_IMPORTS, mock_script, cache, str(tmp_path / "runs")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    for run_id in ("mock", "replay"):
        summary = json.loads((tmp_path / "runs" / run_id / "summary.json").read_text())
        assert [o.get("error") for o in summary["outcomes"]] == [None, None]
