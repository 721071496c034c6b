import errno
import functools
import hashlib
import itertools
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc

import pytest

import breadth.store
from breadth import bench, cli, llmio
from breadth.bench import generate_synthetic, run_experiment
from breadth.cli import build_parser, main
from breadth.core import AnswerFormat, StrategyKind, default_config
from breadth.llmio import (
    API_KEY_ENV,
    CompletionRequest,
    LiveBackend,
    LlmIoError,
    RecordingBackend,
    ScriptedBackend,
    replay_response,
)
from breadth.store import AppendLog, ReplayStore, read_json_lines
from breadth.strategy import (
    answer_trigger,
    assemble_prediction_input,
    assemble_reasoning_input,
)
from breadth.reformulate import PROMPT_BANK, QUESTION_INSTRUCTION
from conftest import (IGNORED_KNOBS, MC_TRIGGER, NON_DEFAULT_KNOBS, ChatServer, knob_id,
                      mc_question, request_dict)

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
    # 2 rewrites, a reasoning call per context and a prediction per path.
    assert out.startswith("11 planned calls over 6 paths for question coinflip-0:\n")
    assert out.count("\n--- call ") == 11
    assert "--- call 3: n_samples=2 temperature=0.8\n" in out


def test_strategy_help_lists_every_kind(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one help line per option
    assert main(["run", "--help"]) == 0
    (line,) = [line for line in capsys.readouterr().out.splitlines()
               if line.lstrip().startswith("--strategy")]
    assert line.split() == ["--strategy", "STRATEGY",
                            "zero-shot|cot|deep-cot|sc|questionc|promptc|questionc-sc|promptc-sc"]


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


def test_dry_run_of_cot_ends_in_the_answer_trigger_from_the_config_file(tmp_path, capsys):
    # The dry run lists the prediction request, so the override shows in
    # every kind, not only in zero-shot's one input.
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"answer_triggers": {"yes_no": "So the verdict is"}}),
                           encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--strategy", "cot", "--config", str(config_path), "--dry-run"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("2 planned calls over 1 paths")
    assert out.rstrip("\n").endswith("\nSo the verdict is")
    assert YES_TRIGGER not in out


def test_dry_run_plans_every_sample_when_the_trigger_ends_the_reasoning_input(
        tmp_path, capsys):
    # The canonical prompt ends in ".", so a placeholder that told a
    # prediction by its trigger answered the reasoning call as one.
    config_path = tmp_path / "cfg.json"
    config_path.write_text(json.dumps({"kind": "sc", "m_samples": 2,
                                       "answer_triggers": {"yes_no": "."}}), encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--config", str(config_path), "--dry-run"])
    assert code == 0
    assert capsys.readouterr().out.startswith("3 planned calls over 2 paths")


def test_a_trigger_override_is_recorded_in_the_bytes_config_json_always_had(tmp_path):
    def config_bytes(triggers, run_id):
        config_path = tmp_path / f"{run_id}.json"
        config_path.write_text(json.dumps({"kind": "cot", "answer_triggers": triggers}),
                               encoding="utf-8")
        script = {"step by step": ["reasoning"], "So the verdict is": ["yes"], YES_TRIGGER: ["yes"]}
        assert main(["run", "--dataset", "coinflip", "--limit", "1", "--config", str(config_path),
                     "--mock-script", _mock_script_file(tmp_path, script),
                     "--runs-dir", str(tmp_path / "runs"), "--run-id", run_id]) == 0
        return (tmp_path / "runs" / run_id / "config.json").read_bytes()

    pinned = config_bytes({"yes_no": "So the verdict is"}, "t")
    assert json.loads(pinned)["canonical_prompt"] == PROMPT
    assert (hashlib.sha256(pinned).hexdigest()
            == "524113df352bc2c0d93f6dcb2c4735999518de5d9cfe81a8f33dc6a9f51e8d8a")
    assert "answer_triggers" not in json.loads(config_bytes({}, "empty"))


@pytest.mark.parametrize("triggers", [{"yes_no": None}, {"yes_no": 3}, {"yes_no": ""},
                                      {"yesno": "So"}], ids=str)
@pytest.mark.parametrize("dry_run", [False, True], ids=["run", "dry-run"])
def test_malformed_answer_triggers_exit_2_before_any_call_or_run_directory(
        tmp_path, capsys, triggers, dry_run):
    # A null or number trigger used to run as the text "None" or "3", and an
    # empty one planned 1 path of sc's 2: every input ends in "".
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"kind": "sc", "m_samples": 2, "answer_triggers": triggers}),
                           encoding="utf-8")
    script = _mock_script_file(tmp_path, {"": ["the answer is yes"] * 4})
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--config", str(config_path),
                 "--mock-script", script, "--runs-dir", str(tmp_path / "runs")]
                + ["--dry-run"] * dry_run)
    assert code == 2
    captured = capsys.readouterr()
    assert "answer_triggers" in captured.err and captured.out == ""
    assert not (tmp_path / "runs").exists()


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
    monkeypatch.setattr(cli, "_build_backend", lambda args: lambda: backend)
    code = main(["entropy", "--factors", "question,prompt", "--k", "11",
                 "--subset", str(subset)])
    assert code == 2
    assert "prompt factor supports at most 10 paths" in capsys.readouterr().err
    assert backend.calls == []



@pytest.mark.parametrize("factors, named", [("sampling,sampling", "sampling"),
                                            ("question,question_rewording", "question")])
def test_entropy_refuses_a_factor_named_twice_before_any_call(tmp_path, capsys, monkeypatch,
                                                              factors, named):
    # A factor named twice used to run twice: its column twice, its calls doubled.
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps(q.to_dict()) + "\n", encoding="utf-8")
    backend = ScriptedBackend({"": [f"text {i}" for i in range(500)]})
    monkeypatch.setattr(cli, "_build_backend", lambda args: lambda: backend)
    entropy = ["entropy", "--k", "3", "--subset", str(subset), "--factors"]
    assert main(entropy + [factors]) == 1
    assert f"--factors names {named} more than once" in capsys.readouterr().err
    assert backend.calls == []
    assert main(entropy + ["sampling"]) == 0
    assert len(backend.calls) == 4


@pytest.mark.parametrize("label", ["a,b", 'a"b', "a\rb", "a\nb"],
                         ids=["comma", "quote", "cr", "lf"])
def test_entropy_refuses_a_label_that_would_break_its_csv_row(tmp_path, capsys, monkeypatch,
                                                              label):
    # Written as a raw cell, "a,b" made the row "a,b,0.5000" under "dataset,sampling".
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps(q.to_dict()) + "\n", encoding="utf-8")
    backend = ScriptedBackend({"": [f"text {i}" for i in range(500)]})
    monkeypatch.setattr(cli, "_build_backend", lambda args: lambda: backend)
    out = tmp_path / "study.csv"
    assert main(["entropy", "--factors", "sampling", "--k", "3", "--subset", str(subset),
                 "--dataset", label, "--out", str(out)]) == 1
    assert f"--dataset {label!r}: a label may not hold" in capsys.readouterr().err
    assert backend.calls == [] and not out.exists()


def test_entropy_refuses_a_subset_whose_question_ids_repeat_before_any_backend(
        tmp_path, capsys, monkeypatch):
    # Predictions are kept by question id: the second s0 replaced the first,
    # and the study exited 0 with the entropy of one question.
    subset = tmp_path / "subset.jsonl"
    subset.write_text("".join(
        json.dumps(mc_question("s0", f"Pick {i}. Answer Choices: (A) x (B) y", "A").to_dict())
        + "\n" for i in range(2)), encoding="utf-8")
    monkeypatch.setattr(cli, "_build_backend", lambda args: pytest.fail("a backend was built"))
    assert main(["entropy", "--factors", "sampling", "--k", "2", "--subset", str(subset)]) == 2
    assert capsys.readouterr().err == "error: question id s0 is given more than once\n"


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


def test_entropy_study_sends_the_pinned_requests_and_writes_the_pinned_csv(tmp_path, capsys,
                                                                           monkeypatch):
    # Pins the study end to end: each factor's requests, in order, as
    # (user_text, temperature, n_samples, sample_batch_id), and the CSV bytes.
    questions = [mc_question(f"s{i}", f"Pick {i}. Answer Choices: (A) x (B) y (C) z", "A")
                 for i in range(2)]
    subset = tmp_path / "subset.jsonl"
    subset.write_text("".join(json.dumps(q.to_dict()) + "\n" for q in questions),
                      encoding="utf-8")
    rewrites = ["Pick 0, reworded?", "Pick 0, again?", "Pick 1, reworded?", "Pick 1, again?"]
    labels = "ABC" "AAB" "AAA" "ABB" "ABA" "CCC"  # question, prompt, sampling; s0 then s1
    backend = ScriptedBackend({
        "rephrase the following question": rewrites,
        "": [f"reasoning {i}" for i in range(20)],
        MC_TRIGGER: [f"the answer is ({label})" for label in labels],
    })
    monkeypatch.setattr(cli, "_build_backend", lambda args: lambda: backend)
    out = tmp_path / "study.csv"
    code = main(["entropy", "--factors", "question,prompt,sampling", "--k", "3",
                 "--subset", str(subset), "--dataset", "toy", "--out", str(out)])
    assert code == 0

    reasonings = iter(f"reasoning {i}" for i in range(20))
    expected = []

    def paths(question, prompt, temperature, samples=1):
        reasoning_input = assemble_reasoning_input(question, prompt)
        expected.append((reasoning_input, temperature, samples, 0))
        for reasoning in [next(reasonings) for _ in range(samples)]:
            expected.append((assemble_prediction_input(question, prompt, reasoning, MC_TRIGGER),
                             temperature, 1, 0))

    for q, (first, second) in zip(questions, [rewrites[:2], rewrites[2:]]):
        stem = q.text[:len("Pick 0. ")]
        choices = q.text[len(stem):]
        for batch_id in (0, 3):
            expected.append((f"{QUESTION_INSTRUCTION}\n{stem}", 1.0, 1, batch_id))
        for text in (q.text, f"{first}\n{choices}", f"{second}\n{choices}"):
            paths(text, PROMPT, 1.0)
    for q in questions:
        for prompt in PROMPT_BANK[:3]:
            paths(q.text, prompt, 1.0)
    for q in questions:
        paths(q.text, PROMPT, 0.8, samples=3)
    sent = [(c.user_text, c.temperature, c.n_samples, c.sample_batch_id) for c in backend.calls]
    assert sent == expected
    assert out.read_bytes() == (
        b"dataset,question,prompt,sampling\n"
        b"toy,0.8676,0.3183,0.3183\n"
        b"# model_perturbation requires replacing the final linear layer with a noisy one "
        b"(std 0.010-0.020, step 0.001) on open weights; unsupported here\n")
    assert capsys.readouterr().out == f"{out}\n"
    # The CSV replaced its file whole, and left no temporary file beside it.
    assert sorted(os.listdir(tmp_path)) == ["study.csv", "subset.jsonl"]


def test_votemodel_subcommand(tmp_path, capsys, monkeypatch):
    out_path = tmp_path / "curve.csv"
    code = main(["votemodel", "--p", "0.6", "--rho", "0.8", "--n", "3", "--m", "2",
                 "--trials", "20000", "--seed", "7", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "k,accuracy,std_err,analytic_iid"
    assert len(lines) == 7  # header + k=1..6
    # The file is replaced whole: a write that fails keeps the old file and
    # leaves no temporary file beside it.
    before = out_path.read_bytes()

    def no_rename(src, dst):
        raise OSError(errno.EIO, "input/output error")

    monkeypatch.setattr(os, "replace", no_rename)
    code = main(["votemodel", "--p", "0.7", "--n", "2", "--trials", "100",
                 "--out", str(out_path)])
    assert code == 2 and "input/output error" in capsys.readouterr().err
    assert out_path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.csv"]


def test_votemodel_refuses_a_negative_seed(capsys):
    code = main(["votemodel", "--p", "0.6", "--trials", "10", "--seed", "-1"])
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


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


def test_report_refuses_two_runs_of_one_method_and_an_unknown_baseline(tmp_path, capsys):
    script = _mock_script_file(tmp_path, {"": ["the answer is yes"] * 40})
    runs = tmp_path / "runs"
    for run_id in ("sc-a", "sc-b"):
        assert main(["run", "--dataset", "coinflip", "--limit", "2", "--strategy", "sc",
                     "--m", "3", "--mock-script", script, "--runs-dir", str(runs),
                     "--run-id", run_id]) == 0
    capsys.readouterr()

    assert main(["report", "--runs", str(runs / "sc-a"), str(runs / "sc-b")]) == 2
    err = capsys.readouterr().err
    assert "runs sc-a and sc-b both give method sc m=3 on dataset coinflip" in err

    assert main(["report", "--runs", str(runs / "sc-a"), "--baseline", "nope"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --baseline: no run has method nope; the runs have sc m=3")


def test_report_gives_each_shape_of_one_kind_a_row_of_its_own(tmp_path, capsys):
    # Every sc run was labelled "sc", so two sample counts on one dataset
    # were refused as one method, and a sweep had no table.
    script = _mock_script_file(tmp_path, {"": ["the answer is yes"] * 80})
    runs = tmp_path / "runs"
    shapes = {"sc-m3": ["sc", "--m", "3"], "sc-m2": ["sc", "--m", "2"],
              "sc-m2-t05": ["sc", "--m", "2", "--temperature", "0.5"],
              "qcsc": ["questionc-sc", "--n", "3", "--m", "3"],
              "deep": ["deep-cot", "--stop", "stable"]}
    for run_id, flags in shapes.items():
        assert main(["run", "--dataset", "coinflip", "--limit", "2", "--strategy", *flags,
                     "--mock-script", script, "--runs-dir", str(runs), "--run-id", run_id]) == 0
    capsys.readouterr()
    assert main(["report", "--format", "csv", "--baseline", "sc m=3",
                 "--runs", *(str(runs / run_id) for run_id in shapes)]) == 0
    rows = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()]
    assert rows == ["method", "sc m=3", "sc m=2", "  vs sc m=3", "sc m=2 t=0.5", "  vs sc m=3",
                    "questionc_sc n=3 m=3", "  vs sc m=3", "deep_cot T=3 stable", "  vs sc m=3"]


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
    # No request the program builds sets max_tokens, system_text or top_k.
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
    # Whatever the request holds, "k3" is not its digest.
    assert main(["cache", "--file", str(cache_path), "--verify"]) == 2
    captured = capsys.readouterr()
    assert "key mismatch: k3" in captured.out
    assert "error: 1 corrupt cache records" in captured.err


def _record_calls(cache_path, calls, text="resp"):
    """Record each ``(user_text, temperature, n_samples)`` call into the cache."""
    recorder = RecordingBackend(ScriptedBackend({"": [text] * 10**4}),
                                ReplayStore(str(cache_path)))
    for user_text, temperature, n_samples in calls:
        llmio.call(recorder, user_text, temperature, n_samples)


def test_cache_verify_passes_every_request_the_program_records(tmp_path, capsys):
    # Non-ASCII and lone-surrogate texts are stored escaped, and a temperature
    # given as 1 or 0 is stored as 1.0 or 0.0: each request still digests to
    # its key when re-encoded.
    cache_path = tmp_path / "cache.jsonl"
    _record_calls(cache_path, [("café ☕ 日本", 1, 2), ("lone \ud800 \udfff", 0, 1),
                               ("tab\tquote\"back\\slash\u2028", 0.7, 1)])
    assert main(["cache", "--file", str(cache_path), "--verify"]) == 0
    assert capsys.readouterr().out == (f"4 recorded responses in {cache_path}\n"
                                       "all keys verified\n")


def test_cache_verify_holds_less_than_the_cache_file_in_memory(tmp_path, capsys):
    # It held every full record at once: about three times the file's size.
    cache_path = tmp_path / "cache.jsonl"
    _record_calls(cache_path, [(f"question {i}: " + "why? " * 100, 0.7, 1) for i in range(1000)],
                  text="because " * 50)
    size = cache_path.stat().st_size
    tracemalloc.start()
    try:
        assert main(["cache", "--file", str(cache_path), "--verify"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "1000 recorded responses" in capsys.readouterr().out
    assert peak < size, (peak, size)


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
    with pytest.raises(LlmIoError, match=f"^record {record['key']} has no usable"):
        replay_response(ReplayStore(str(cache_path)), [record["key"]])


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



def test_replay_of_a_record_it_cannot_serve_abstains_that_path_and_finishes(tmp_path,
                                                                           caplog):
    # Such a record's ValueError used to end the whole run: exit 2 and no
    # summary.json.
    script = {"step by step": ["reasoning about coins"] * 9,
              YES_TRIGGER: ["the answer is yes"] * 9}
    cache = tmp_path / "cache.jsonl"
    run_experiment("coinflip", generate_synthetic("coinflip", 3, seed=5),
                   default_config(StrategyKind.SC, m_samples=3),
                   RecordingBackend(ScriptedBackend(script), ReplayStore(str(cache))),
                   runs_dir=str(tmp_path / "recorded"), run_id="r")
    # The sixth line is a sample of the second question's reasoning call, so
    # that call fails and its three paths abstain; the other questions run.
    unservable = {**json.loads(cache.read_text(encoding="utf-8").splitlines()[5]), "usage": 5}
    with open(cache, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(unservable) + "\n")
    code = main(["run", "--dataset", "coinflip", "--seed", "5", "--limit", "3",
                 "--strategy", "sc", "--m", "3", "--replay", str(cache),
                 "--runs-dir", str(tmp_path / "replayed"), "--run-id", "r"])
    assert code == 0
    run_dir = tmp_path / "replayed" / "r"
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    assert [o["trace_count"] for o in summary["outcomes"]] == [3, 3, 3]
    traces = [json.loads(line) for line in
              (run_dir / "traces.jsonl").read_text(encoding="utf-8").splitlines()]
    assert [(t["question_id"], t["sample_index"]) for t in traces
            if t["parsed"]["abstain"]] == [("coinflip-1", sample) for sample in range(3)]
    assert f"record {unservable['key']} has no usable token counts" in caplog.text


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


def test_a_cache_recorded_at_int_temperature_0_replays_under_temperature_flag_0(tmp_path,
                                                                                capsys):
    # The library records under the int 0 and the flag parses the float 0.0:
    # one temperature, so every replayed call hits.
    script = {"step by step": ["reasoning about coins"] * 9,
              YES_TRIGGER: ["the answer is yes"] * 9}
    questions = generate_synthetic("coinflip", 3, seed=5)
    cache = str(tmp_path / "cache.jsonl")
    run_experiment("coinflip", questions,
                   default_config(StrategyKind.SC, m_samples=3, temperature=0),
                   RecordingBackend(ScriptedBackend(script), ReplayStore(cache)),
                   runs_dir=str(tmp_path / "runs"), run_id="recorded")
    code = main(["run", "--dataset", "coinflip", "--seed", "5", "--limit", "3",
                 "--strategy", "sc", "--m", "3", "--temperature", "0", "--replay", cache,
                 "--runs-dir", str(tmp_path / "runs"), "--run-id", "replayed"])
    assert code == 0, capsys.readouterr().err
    recorded, replayed = ((tmp_path / "runs" / run / "traces.jsonl").read_bytes()
                          for run in ("recorded", "replayed"))
    assert replayed == recorded
    traces = [json.loads(line) for line in replayed.splitlines()]
    assert len(traces) == 9 and not any(t["parsed"]["abstain"] for t in traces)


def test_a_replay_writes_the_cache_index_and_replays_byte_for_byte_from_it(tmp_path,
                                                                          monkeypatch):
    # The first replay parses the cache and writes its index; the second
    # reads the index; an index cut short is not trusted, so the third
    # parses the cache again.
    script = {"step by step": ["reasoning about coins"] * 9,
              YES_TRIGGER: ["the answer is yes"] * 9}
    cache = tmp_path / "cache.jsonl"
    run_experiment("coinflip", generate_synthetic("coinflip", 3, seed=5),
                   default_config(StrategyKind.SC, m_samples=3),
                   RecordingBackend(ScriptedBackend(script), ReplayStore(str(cache))),
                   runs_dir=str(tmp_path / "runs"), run_id="recorded")
    recorded = (tmp_path / "runs" / "recorded" / "traces.jsonl").read_bytes()
    index = tmp_path / "cache.jsonl.index"
    parses = []

    def counting(*args, **kwargs):
        parses.append(args[0])
        return read_json_lines(*args, **kwargs)

    monkeypatch.setattr(breadth.store, "read_json_lines", counting)
    replay = ["run", "--dataset", "coinflip", "--seed", "5", "--limit", "3", "--strategy", "sc",
              "--m", "3", "--replay", str(cache), "--runs-dir", str(tmp_path / "runs")]
    for run_id, parsed in (("parsed", 1), ("indexed", 0), ("cut", 1)):
        if run_id == "cut":
            index.write_bytes(index.read_bytes()[:-1])
        parses.clear()
        assert main(replay + ["--run-id", run_id]) == 0
        assert parses.count(str(cache)) == parsed, run_id
        assert index.stat().st_size > 0
        assert (tmp_path / "runs" / run_id / "traces.jsonl").read_bytes() == recorded


def test_a_live_run_records_its_12_posts_and_replays_them_byte_for_byte(tmp_path, monkeypatch):
    # Over the loopback and the standard library's HTTP: sc m=3 sends per
    # question one reasoning call of n=3 and 3 prediction calls. Each
    # reasoning text is new, so no prediction request repeats.
    paths = itertools.count()

    def answer(request):
        if request["messages"][-1]["content"].endswith(YES_TRIGGER):
            return ["the answer is yes"] * request["n"]
        return [f"Reasoning path {next(paths)} about the coin." for _ in range(request["n"])]

    monkeypatch.setenv(API_KEY_ENV, "k")
    cache = str(tmp_path / "live.jsonl")
    run = ["run", "--dataset", "coinflip", "--limit", "3", "--strategy", "sc", "--m", "3",
           "--runs-dir", str(tmp_path / "runs")]
    with ChatServer(answer=answer) as server:
        assert main(run + ["--base-url", server.base_url, "--record", cache,
                           "--run-id", "live"]) == 0
    assert [path for path, _, _ in server.posts] == ["/v1/chat/completions"] * 12
    assert main(run + ["--replay", cache, "--run-id", "live-replayed"]) == 0
    assert main(["cache", "--file", cache, "--verify"]) == 0
    live, replayed = ((tmp_path / "runs" / run_id / "traces.jsonl").read_bytes()
                      for run_id in ("live", "live-replayed"))
    # Replay writes latency_ms 0 where the live run timed its calls.
    assert re.sub(rb'"latency_ms":[0-9]+,', b'"latency_ms":0,', live) == replayed
    assert replayed.count(b"\n") == 9


def test_record_flag_opens_a_store_that_writes_no_index(tmp_path, monkeypatch):
    # Its first append would leave an index stale. No request is sent: the
    # backend is only built.
    cache = tmp_path / "cache.jsonl"
    RecordingBackend(ScriptedBackend({"q": ["a"]}), ReplayStore(str(cache))).complete(
        CompletionRequest(model="m", user_text="q", temperature=0.0))
    monkeypatch.setenv(API_KEY_ENV, "k")
    args = build_parser().parse_args(["run", "--dataset", "coinflip", "--strategy", "cot",
                                      "--record", str(cache)])
    backend = cli._build_backend(args)()
    assert isinstance(backend, RecordingBackend) and len(backend.store) == 1
    assert os.listdir(tmp_path) == ["cache.jsonl"]



def _transport_that_fails(url, body, headers, timeout):
    pytest.fail("a refused run sent a request")


def test_record_onto_a_cache_another_writer_holds_exits_2_before_any_call(
        tmp_path, monkeypatch, capsys):
    cache = tmp_path / "cache.jsonl"
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr(cli, "LiveBackend",
                        functools.partial(LiveBackend, transport=_transport_that_fails))
    with AppendLog(str(cache)):
        code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                     "--record", str(cache), "--runs-dir", str(tmp_path / "runs")])
    assert code == 2
    assert f"held by another writer: '{cache}'" in capsys.readouterr().err
    assert cache.read_bytes() == b"" and not (tmp_path / "runs").exists()


def test_a_base_url_with_no_scheme_exits_2_before_any_call(tmp_path, monkeypatch, capsys):
    # Each call once failed 4 times, waiting 3.5 s, and the run exited 0.
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr(cli, "LiveBackend",
                        functools.partial(LiveBackend, transport=_transport_that_fails))
    code = main(["run", "--dataset", "coinflip", "--limit", "2", "--strategy", "cot",
                 "--base-url", "example.test/v1", "--runs-dir", str(tmp_path / "runs")])
    assert code == 2
    assert ("base URL 'example.test/v1' is not an http:// or https:// URL naming a host"
            in capsys.readouterr().err)
    assert not (tmp_path / "runs").exists()


def test_an_api_key_no_header_can_carry_exits_2_before_any_call(tmp_path, monkeypatch,
                                                                capsys):
    # Its first call raised http.client's ValueError, echoing the key, after
    # the run directory was written.
    monkeypatch.setenv(API_KEY_ENV, "sk-secret\n")
    monkeypatch.setattr(cli, "LiveBackend",
                        functools.partial(LiveBackend, transport=_transport_that_fails))
    code = main(["run", "--dataset", "coinflip", "--limit", "2", "--strategy", "cot",
                 "--base-url", "http://127.0.0.1:9/v1", "--runs-dir", str(tmp_path / "runs")])
    assert code == 2
    err = capsys.readouterr().err
    assert API_KEY_ENV in err and "secret" not in err
    assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("refused, message", [
    (["reformulate", "--target", "question", "--text", "Is it?", "--n", "0"],
     "n_variants must be >= 1"),
    (["entropy", "--factors", "question", "--k", "0"], "k must be >= 1, got 0"),
    (["entropy", "--factors", "prompt", "--k", "11"], "prompt factor supports at most 10"),
], ids=["reformulate-n0", "entropy-k0", "entropy-prompt-k11"])
def test_a_refused_command_opens_no_record_cache(tmp_path, monkeypatch, capsys, refused,
                                                 message):
    # Each one created the cache, and cut the torn tail off an existing one,
    # before it checked its arguments and exited 2.
    q = mc_question("s0", "Pick one. Answer Choices: (A) x (B) y", "A")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps(q.to_dict()) + "\n", encoding="utf-8")
    if refused[0] == "entropy":
        refused = refused + ["--subset", str(subset)]
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr(cli, "LiveBackend",
                        functools.partial(LiveBackend, transport=_transport_that_fails))
    fresh = tmp_path / "fresh.jsonl"
    assert main(refused + ["--record", str(fresh)]) == 2
    assert message in capsys.readouterr().err
    assert not fresh.exists()
    torn = tmp_path / "torn.jsonl"
    RecordingBackend(ScriptedBackend({"q": ["a"]}), ReplayStore(str(torn))).complete(
        CompletionRequest(model="m", user_text="q"))
    with open(torn, "ab") as fh:
        fh.write(b'{"key": "ab')
    before = torn.read_bytes()
    assert main(refused + ["--record", str(torn)]) == 2
    assert torn.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == ["subset.jsonl", "torn.jsonl"]


def test_run_on_a_run_id_another_writer_holds_exits_2_before_any_call(tmp_path, capsys):
    traces = tmp_path / "runs" / "held" / "traces.jsonl"
    traces.parent.mkdir(parents=True)
    script = _mock_script_file(tmp_path, {"step by step": ["r"],
                                          YES_TRIGGER: ["the answer is yes"]})
    run = ["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
           "--mock-script", script, "--runs-dir", str(tmp_path / "runs"), "--run-id", "held"]
    with AppendLog(str(traces)):
        assert main(run) == 2
    assert f"held by another writer: '{traces}'" in capsys.readouterr().err
    assert os.listdir(traces.parent) == ["traces.jsonl"] and traces.read_bytes() == b""
    assert main(run) == 0  # the log closed, so the run id is free


@pytest.mark.parametrize("flag", ["--replay", "--record"])
def test_a_resumed_run_holds_its_trace_log_while_it_opens_its_cache(tmp_path, monkeypatch,
                                                                   capsys, flag):
    # The run took and let go of the trace log's lock before it opened the
    # cache, so another writer could take the run id in between.
    argv = _cot_run(tmp_path)
    argv = argv[:argv.index("--mock-script")] + argv[argv.index("--runs-dir"):]
    traces = tmp_path / "runs" / "r" / "traces.jsonl"
    cache = tmp_path / "cache.jsonl"
    RecordingBackend(ScriptedBackend({"q": ["a"]}), ReplayStore(str(cache))).complete(
        CompletionRequest(model="m", user_text="q"))
    refusals = []

    def opening(path, **kwargs):
        try:
            with AppendLog(str(traces)):
                refusals.append(None)
        except OSError as exc:
            refusals.append(str(exc))
        return ReplayStore(path, **kwargs)

    monkeypatch.setattr(cli, "ReplayStore", opening)
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr(cli, "LiveBackend",
                        functools.partial(LiveBackend, transport=_transport_that_fails))
    assert main(argv + [flag, str(cache)]) == 0
    assert refusals == [f"[Errno {errno.EAGAIN}] held by another writer: '{traces}'"]


def test_a_new_run_id_whose_cache_cannot_open_is_started_fresh_next_time(tmp_path, monkeypatch,
                                                                       capsys):
    # The run id is claimed before the cache opens: the refused start leaves
    # an empty trace log and no config.json, which the next start takes as new.
    cache = tmp_path / "cache.jsonl"
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr(cli, "LiveBackend",
                        functools.partial(LiveBackend, transport=_transport_that_fails))
    run = ["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
           "--runs-dir", str(tmp_path / "runs"), "--run-id", "new"]
    with AppendLog(str(cache)):
        assert main(run + ["--record", str(cache)]) == 2
    assert f"held by another writer: '{cache}'" in capsys.readouterr().err
    run_dir = tmp_path / "runs" / "new"
    assert os.listdir(run_dir) == ["traces.jsonl"]
    assert (run_dir / "traces.jsonl").read_bytes() == cache.read_bytes() == b""
    script = _mock_script_file(tmp_path, {"step by step": ["r"],
                                          YES_TRIGGER: ["the answer is yes"]})
    assert main(run + ["--mock-script", script]) == 0
    assert sorted(os.listdir(run_dir)) == ["config.json", "summary.json", "traces.jsonl"]


def test_runs_with_no_run_id_started_in_one_second_each_make_their_own(
        tmp_path, capsys, monkeypatch):
    # Each run would take the id coinflip-cot-<second>; a later one used to
    # resume the first (or be refused by it under another config).
    monkeypatch.setattr(bench.time, "time", lambda: 1792488703.25)
    runs = tmp_path / "runs"
    gold = bench.load_dataset(bench.dataset_spec("coinflip"))[0].gold.value
    wrong = "no" if gold == "yes" else "yes"
    for answer, flags in ((wrong, []), (gold, []), (gold, ["--temperature", "0.5"])):
        script = _mock_script_file(tmp_path, {"step by step": ["r"],
                                              YES_TRIGGER: [f"the answer is {answer}"]})
        assert main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                     "--mock-script", script, "--runs-dir", str(runs), *flags]) == 0
    ids = ["coinflip-cot-1792488703", "coinflip-cot-1792488703-1", "coinflip-cot-1792488703-2"]
    assert sorted(os.listdir(runs)) == ids
    summaries = [json.loads((runs / run_id / "summary.json").read_text()) for run_id in ids]
    assert [s["accuracy"] for s in summaries] == [0.0, 1.0, 1.0]
    assert [s["config"]["temperature"] for s in summaries] == [1.0, 1.0, 0.5]
    out = capsys.readouterr().out
    assert all(f"run {run_id}: accuracy" in out for run_id in ids)


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
    # 2 prompt rewrites, 3 reasoning calls and 3 predictions.
    assert "8 planned calls over 3 paths" in capsys.readouterr().out


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


def test_file_datasets_run_through_the_cli_and_one_with_no_file_exits_2(tmp_path, capsys):
    # A two-record gsm8k JSONL and a strategyqa task.json, each read through
    # its dataset's row of bench.DATASETS.
    gsm8k, strategyqa = tmp_path / "test.jsonl", tmp_path / "task.json"
    gsm8k.write_text("".join(json.dumps({"question": f"Sam buys {i} pens. How many pens?",
                                         "answer": f"He buys them.\n#### {i}"}) + "\n"
                             for i in (1, 2)), encoding="utf-8")
    strategyqa.write_text(json.dumps({"examples": [{"input": "Is water wet?",
                                                    "target_scores": {"Yes": 1, "No": 0}}]}),
                          encoding="utf-8")
    for dataset, path in (("gsm8k", gsm8k), ("strategyqa", strategyqa)):
        assert main(["run", "--dataset", dataset, "--data-path", str(path), "--strategy", "cot",
                     "--limit", "1", "--dry-run"]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first == f"2 planned calls over 1 paths for question {dataset}-0:"
    assert main(["run", "--dataset", "gsm8k", "--strategy", "cot", "--limit", "1",
                 "--dry-run"]) == 2
    assert "dataset gsm8k needs a source file" in capsys.readouterr().err


def test_a_numeric_answer_is_read_across_a_currency_sign_against_a_negative_gold(tmp_path,
                                                                                 capsys):
    svamp = tmp_path / "SVAMP.json"
    svamp.write_text(json.dumps([{"Body": "Her balance was 20 dollars. She spent 25 dollars.",
                                  "Question": "What is her balance now?", "Answer": -5}]),
                     encoding="utf-8")
    script = {"step by step": ["She spent 5 dollars more than she had."],
              "Therefore, the answer (arabic numerals) is": ["Her balance is -$5."]}
    assert main(["run", "--dataset", "svamp", "--data-path", str(svamp), "--strategy", "cot",
                 "--mock-script", _mock_script_file(tmp_path, script),
                 "--runs-dir", str(tmp_path / "runs"), "--run-id", "neg"]) == 0
    assert "accuracy 1.000" in capsys.readouterr().out


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
    assert "'answer_triggers' must be dict or null" in capsys.readouterr().err


def test_mock_script_rule_that_is_not_an_object_exits_2(tmp_path, capsys):
    script = _mock_script_file(tmp_path, [{"match": "step", "responses": ["r"]}, "step"])
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                 "--mock-script", script, "--runs-dir", str(tmp_path / "runs")])
    assert code == 2
    assert script in capsys.readouterr().err


@pytest.mark.parametrize("rule", [
    {"responses": ["r"]},
    {"match": "step by step"},
    {"match": "step by step", "responses": ["r"], "exact": "no"},
    {"match": "step by step", "responses": ["r"], "exact": False, "weight": 2},
], ids=["no-match", "no-responses", "non-boolean-exact", "unknown-key"])
def test_mock_script_rule_of_the_wrong_shape_exits_2_naming_the_file_and_rule(tmp_path, capsys,
                                                                              rule):
    # A rule with no match used to print "error: 'match'"; "exact": "no" made an exact rule.
    script = _mock_script_file(tmp_path, [{"match": "step", "responses": ["r"]}, rule])
    code = main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "cot",
                 "--mock-script", script, "--runs-dir", str(tmp_path / "runs")])
    assert code == 2
    assert f"error: --mock-script {script}: rule 1: " in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()


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


# How run records wrote the prompt, and a stable-stop run's prose note, before
# a config was written as its own fields.
OLD_PROMPT = {"text": PROMPT, "origin": {"kind": "canonical"}}
OLD_STOP_NOTE = ("stability stop (two consecutive equal predictions); a stand-in "
                 "for adaptive iteration stopping")


def test_a_run_directory_with_the_old_prompt_object_is_refused_and_still_reported(
        tmp_path, capsys):
    script = _mock_script_file(tmp_path, {"": ["reasoning", "the answer is yes"] * 4})
    run = ["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "deep-cot",
           "--stop", "stable", "--mock-script", script,
           "--runs-dir", str(tmp_path / "runs"), "--run-id", "old"]
    assert main(run) == 0
    run_dir = tmp_path / "runs" / "old"
    config = json.loads((run_dir / "config.json").read_text(encoding="utf-8"))
    assert config["canonical_prompt"] == PROMPT and "stop_rule_note" not in config
    old = {**config, "canonical_prompt": OLD_PROMPT, "stop_rule_note": OLD_STOP_NOTE}
    (run_dir / "config.json").write_text(json.dumps(old, sort_keys=True, indent=2) + "\n",
                                         encoding="utf-8")
    summary = json.loads((run_dir / "summary.json").read_text(encoding="utf-8"))
    summary["config"].update(canonical_prompt=OLD_PROMPT, stop_rule_note=OLD_STOP_NOTE)
    (run_dir / "summary.json").write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n",
                                          encoding="utf-8")
    capsys.readouterr()
    assert main(run + ["--limit", "2"]) == 2
    assert "canonical_prompt, stop_rule_note differ" in capsys.readouterr().err
    assert main(["report", "--runs", str(run_dir)]) == 0
    assert "deep_cot" in capsys.readouterr().out


def test_a_config_file_with_the_old_prompt_object_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"kind": "cot", "canonical_prompt": OLD_PROMPT}),
                           encoding="utf-8")
    code = main(["run", "--dataset", "coinflip", "--limit", "1",
                 "--config", str(config_path), "--dry-run"])
    assert code == 2
    assert "'canonical_prompt' must be str" in capsys.readouterr().err


@pytest.mark.parametrize("cause", ["another-config", "no-config-json", "held"])
def test_a_refused_run_opens_no_record_cache_and_writes_no_replay_index(
        tmp_path, monkeypatch, capsys, cause):
    # The resume is refused before the backend is built, so a --record cache
    # is neither created nor has its torn tail cut, and a --replay cache is
    # not parsed into an index.
    _cot_run(tmp_path)
    traces = tmp_path / "runs" / "r" / "traces.jsonl"
    held = AppendLog(str(traces))
    if cause == "another-config":
        strategy, message = ["sc", "--m", "3"], "made under another config"
    elif cause == "no-config-json":
        os.remove(tmp_path / "runs" / "r" / "config.json")
        strategy, message = ["cot"], "has traces but no config.json"
    else:  # another writer holds the run's trace log
        strategy, message = ["cot"], f"held by another writer: '{traces}'"
        held.__enter__()
    refused = ["run", "--dataset", "coinflip", "--limit", "1", "--strategy", *strategy,
               "--runs-dir", str(tmp_path / "runs"), "--run-id", "r"]
    monkeypatch.setenv(API_KEY_ENV, "k")
    monkeypatch.setattr(cli, "LiveBackend",
                        functools.partial(LiveBackend, transport=_transport_that_fails))
    fresh, torn, replay = (tmp_path / f"{name}.jsonl" for name in ("fresh", "torn", "replay"))
    for cache in (torn, replay):
        RecordingBackend(ScriptedBackend({"q": ["a"]}), ReplayStore(str(cache))).complete(
            CompletionRequest(model="m", user_text="q"))
    with open(torn, "ab") as fh:
        fh.write(b'{"key": "ab')
    before = {cache: cache.read_bytes() for cache in (torn, replay)}
    capsys.readouterr()
    for flag, cache in (("--record", fresh), ("--record", torn), ("--replay", replay)):
        assert main(refused + [flag, str(cache)]) == 2
        assert message in capsys.readouterr().err
    held.close()
    assert not fresh.exists()
    assert {cache: cache.read_bytes() for cache in (torn, replay)} == before
    assert not os.path.exists(f"{replay}.index")


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


def _run_fresh(script, *args):
    """Run the Python ``script`` with ``args`` in a fresh interpreter that
    imports this checkout's breadth, so no module this process loaded counts."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(sys.modules["breadth"].__file__)))
    return subprocess.run([sys.executable, "-c", script, *args],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)


_OFFLINE_IMPORTS = """
import socket, sys
from breadth.cli import main

def assert_not_loaded(step):
    loaded = [m for m in ("numpy", "requests", "http.client", "ssl") if m in sys.modules]
    assert not loaded, f"{step} loaded {loaded}"

mock_script, study_script, subset, cache, runs = sys.argv[1:]
assert_not_loaded("import breadth.cli")
run = ["run", "--dataset", "coinflip", "--seed", "5", "--limit", "2", "--strategy", "sc",
       "--m", "3", "--runs-dir", runs]
assert main(run + ["--mock-script", mock_script, "--run-id", "mock"]) == 0
assert_not_loaded("a --mock-script run")
assert main(run + ["--replay", cache, "--run-id", "replay"]) == 0
assert_not_loaded("a --replay run")
assert main(["run", "--dataset", "coinflip", "--limit", "1", "--strategy", "questionc-sc",
             "--n", "3", "--m", "3", "--dry-run"]) == 0
assert_not_loaded("a dry run")
assert main(["cache", "--file", cache, "--verify"]) == 0
assert_not_loaded("cache --verify")
assert main(["report", "--runs", runs + "/mock"]) == 0
# One method's two runs on one dataset share no table; JSON lists both.
assert main(["report", "--runs", runs + "/mock", runs + "/replay", "--format", "json"]) == 0
assert_not_loaded("report")
assert main(["pilot-subset", "--cot", runs + "/mock", "--deep", runs + "/replay"]) == 0
assert_not_loaded("pilot-subset")
assert main(["entropy", "--factors", "question,prompt,sampling", "--k", "3",
             "--subset", subset, "--mock-script", study_script]) == 0
assert_not_loaded("entropy")
assert main(["reformulate", "--target", "prompt", "--n", "2", "--text", "Let's think.",
             "--mock-script", study_script]) == 0
assert_not_loaded("reformulate")

assert main(["votemodel", "--p", "0.6", "--n", "2", "--m", "2", "--trials", "100"]) == 0
assert "numpy" in sys.modules

from breadth.llmio import CompletionRequest, LiveBackend, NetworkError

with socket.socket() as probe:  # a loopback port nothing listens on
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
live = LiveBackend(f"http://127.0.0.1:{port}/v1", api_key="k")
try:
    live._post(CompletionRequest(model="m", user_text="q"))
except NetworkError as exc:
    assert "refused" in str(exc)
else:
    raise AssertionError("no NetworkError")
assert "requests" not in sys.modules and "http.client" in sys.modules
"""


def test_offline_commands_load_neither_numpy_nor_requests(tmp_path):
    script = {"step by step": ["thinking"] * 6, YES_TRIGGER: ["the answer is yes"] * 6}
    mock_script = _mock_script_file(tmp_path, script)
    study_script = _mock_script_file(tmp_path, {
        "rephrase the following question": ["After Ann flips it, is the coin heads up?",
                                            "Ann flips a heads-up coin. Is it still heads up?"],
        "Rephrase the following sentence": ["Let us reason one step at a time.",
                                            "Work through it step by step."],
        "": ["reasoning about coins"] * 9,
        YES_TRIGGER: ["the answer is no"] * 9,
    }, name="study.json")
    subset = tmp_path / "subset.jsonl"
    subset.write_text(json.dumps({
        "id": "s0", "text": "A coin is heads up. Ann flips the coin. Is the coin still heads up?",
        "answer_format": "yes_no", "gold": {"kind": "yes_no", "value": "no"}}) + "\n",
        encoding="utf-8")
    cache = str(tmp_path / "cache.jsonl")
    run_experiment("coinflip", generate_synthetic("coinflip", 2, seed=5),
                   default_config(StrategyKind.SC, m_samples=3),
                   RecordingBackend(ScriptedBackend(script), ReplayStore(cache)),
                   runs_dir=str(tmp_path / "record"), run_id="r0")
    proc = _run_fresh(_OFFLINE_IMPORTS, mock_script, study_script, str(subset), cache,
                      str(tmp_path / "runs"))
    assert proc.returncode == 0, proc.stderr
    for run_id in ("mock", "replay"):
        summary = json.loads((tmp_path / "runs" / run_id / "summary.json").read_text())
        assert [o.get("error") for o in summary["outcomes"]] == [None, None]
    assert "dataset,question,prompt,sampling\nsubset,0.0000,0.0000,0.0000\n" in proc.stdout


_VOTEMODEL_WITHOUT_NUMPY = """
import sys
sys.modules["numpy"] = None  # as if numpy were not installed
from breadth.cli import main
sys.exit(main(["votemodel", "--p", "0.6", "--trials", "10"]))
"""


def test_votemodel_without_numpy_exits_2_naming_it():
    # ModuleNotFoundError escaped main with a traceback and exit 1, the code
    # of a usage error.
    proc = _run_fresh(_VOTEMODEL_WITHOUT_NUMPY)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: votemodel needs numpy: ")
    assert proc.stderr.count("\n") == 1


# Imports every module of the package in a fresh interpreter, and prints
# the top-level names of the modules that loaded.
_PACKAGE_IMPORTS = """
import pkgutil, sys
before = set(sys.modules)
import breadth
for module in pkgutil.iter_modules(breadth.__path__):
    __import__(f"breadth.{module.name}")
print(" ".join(sorted({name.split(".")[0] for name in set(sys.modules) - before})))
"""


def test_every_breadth_module_imports_only_the_standard_library():
    proc = _run_fresh(_PACKAGE_IMPORTS)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"breadth"}, loaded
