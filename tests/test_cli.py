import json
import os
import shlex

import pytest

from breadth.bench import run_experiment
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
from conftest import mc_question

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


def test_replay_flag_round_trip(tmp_path, capsys):
    # Seeded generator questions are reproducible, so a cache recorded through
    # the library replays through the CLI over the same dataset slice.
    from breadth.bench import generate_synthetic

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


def test_readme_config_example_loads(tmp_path, capsys):
    (example,) = [b for b in _readme_blocks("json") if '"kind"' in b]
    config_path = tmp_path / "config.json"
    config_path.write_text(example, encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--config", str(config_path), "--dry-run"])
    assert code == 0
    assert "3 planned paths" in capsys.readouterr().out
