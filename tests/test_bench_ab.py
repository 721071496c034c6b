"""``tools/bench_ab.py`` over canned ``perfbench/run.py`` output: no
benchmark is run here."""

import argparse
import json
import os
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)
sys.path.insert(0, os.path.join(ROOT, "tools"))

import bench_ab  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)["end_to_end"]


def _canned_output(rate, correct=True):
    """What ``run.py --workload replay-sc`` prints: report lines, then its result."""
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in DECLARED}
    metrics["questions_per_s"]["value"] = rate
    result = {"correct": correct, "attempted": 600, "failed": 0, "metrics": metrics}
    return ("replay-sc: seed 11; 40 untraced rounds of 100 questions\n"
            f"  questions_per_s                      {rate:>14.6g} 1/s\n"
            + json.dumps(result) + "\n")


def test_a_run_reads_as_its_last_json_line():
    result = bench_ab.parse_result(_canned_output(4700.5))
    assert result["metrics"]["questions_per_s"] == {"value": 4700.5, "unit": "1/s"}


@pytest.mark.parametrize("stdout", [
    _canned_output(4700.5, correct=False),
    "replay-sc: seed 11\n  CHECK FAILED: round 0: calls 10 != 11\n",
    "",
], ids=["not-correct", "no-json", "empty"])
def test_a_run_that_is_not_correct_fails_the_script(stdout):
    with pytest.raises(RuntimeError):
        bench_ab.parse_result(stdout)


def test_seeds_are_a_range():
    assert bench_ab.parse_seeds("11-16") == [11, 12, 13, 14, 15, 16]
    assert bench_ab.parse_seeds("7") == [7]
    for empty in ("16-11", "11-x", "x", ""):
        with pytest.raises(argparse.ArgumentTypeError):
            bench_ab.parse_seeds(empty)


@pytest.mark.parametrize("seeds", ["16-11", "11-x"])
def test_a_seed_range_that_names_no_seed_is_a_usage_error_before_any_export(
        seeds, monkeypatch, capsys):
    def no_git(*args):
        raise AssertionError("git was called")

    monkeypatch.setattr(bench_ab, "_git", no_git)
    with pytest.raises(SystemExit) as exc:
        bench_ab.main(["--parent", "p", "--workload", "replay-sc", "--seeds", seeds])
    assert exc.value.code == 2
    assert f"--seeds: expected a range of seeds as 11-16, got {seeds!r}" in capsys.readouterr().err


def test_medians_quartiles_and_pairs_won():
    assert bench_ab.summarize([6, 1, 5, 2, 4, 3]) == {
        "median": 3.5, "q1": 1.75, "q3": 5.25, "count": 6}
    assert bench_ab.summarize([2.0]) == {"median": 2.0, "q1": 2.0, "q3": 2.0, "count": 1}
    parent, change = [10, 10, 10, 10], [11, 9, 10, 12]
    assert bench_ab.pairs_won(parent, change, "higher") == 2
    assert bench_ab.pairs_won(parent, change, "lower") == 1


def test_write_appends_one_entry_per_side_with_every_declared_metric(tmp_path):
    runs = {side: [bench_ab.parse_result(_canned_output(rate)) for rate in rates]
            for side, rates in (("parent", [4600, 4700, 4650]), ("change", [4800, 4750, 4700]))}
    path = str(tmp_path / "BENCH_replay-sc.json")
    for _ in range(2):
        bench_ab.append_entries(path, [
            bench_ab.entry(f"{side}-commit", "tree", [11, 12, 13], 5.0, "3.11.7", runs[side],
                           DECLARED) for side in ("parent", "change")])
    with open(path, encoding="utf-8") as fh:
        history = json.load(fh)["history"]
    assert [e["commit"] for e in history] == ["parent-commit", "change-commit"] * 2
    change = history[1]
    assert change["seeds"] == [11, 12, 13] and change["harness"] == "tree"
    assert change["metrics"]["questions_per_s"] == {
        "median": 4750, "q1": 4700, "q3": 4800, "count": 3, "unit": "1/s"}
    assert {name: m["unit"] for name, m in change["metrics"].items()} == {
        m["name"]: m["unit"] for m in DECLARED}
    report = bench_ab.report("replay-sc", runs, DECLARED)
    assert "questions_per_s" in report and "change better in 3/3" in report


def test_a_write_interrupted_midway_leaves_the_history_byte_identical(tmp_path, monkeypatch):
    # The file was rewritten in place, so a failure during json.dump cut it short.
    runs = [bench_ab.parse_result(_canned_output(4700))]
    path = tmp_path / "BENCH_replay-sc.json"
    entries = [bench_ab.entry("parent-commit", "tree", [11], 5.0, "3.11.7", runs, DECLARED)]
    bench_ab.append_entries(str(path), entries)
    before = path.read_bytes()

    def dump_half(obj, fh, **kwargs):
        fh.write(json.dumps(obj, **kwargs)[:100])
        raise KeyboardInterrupt

    monkeypatch.setattr(bench_ab.json, "dump", dump_half)
    with pytest.raises(KeyboardInterrupt):
        bench_ab.append_entries(str(path), entries)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["BENCH_replay-sc.json"]


def test_each_export_is_compiled_before_any_run(tmp_path, monkeypatch):
    # git, the exports and every child process are stand-ins: main only
    # decides which commands run, in which directory and in which order.
    def fake_git(root, *args):
        if args[-1] == "--show-toplevel":
            return str(tmp_path)
        return args[-1].split("^")[0]

    def fake_export(root, commit, where):
        os.makedirs(where)
        with open(os.path.join(where, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
            json.dump({"end_to_end": DECLARED}, fh)

    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append((os.path.basename(cwd), cmd[1:3]))
        stdout = "" if "compileall" in cmd else _canned_output(4700.5)
        return bench_ab.subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(bench_ab, "_git", fake_git)
    monkeypatch.setattr(bench_ab, "_export", fake_export)
    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    assert bench_ab.main(["--parent", "p", "--change", "c", "--workload", "replay-sc",
                          "--seeds", "11-12", "--seconds", "1"]) == 0
    harness = os.path.join(str(tmp_path), ".perfbench_work", "ab-change-c", "perfbench", "run.py")
    compile_, run = ["-m", "compileall"], [harness, "--workload"]
    assert calls == [("ab-parent-p", compile_), ("ab-change-c", compile_),
                     ("ab-parent-p", run), ("ab-change-c", run),
                     ("ab-change-c", run), ("ab-parent-p", run)]
    assert not os.path.exists(tmp_path / ".perfbench_work")
