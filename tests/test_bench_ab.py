"""``tools/bench_ab.py`` over canned ``perfbench/run.py`` output: no
benchmark is run here."""

import argparse
import json
import os
import statistics
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


_METRIC = {m["name"]: m for m in DECLARED}
_PARENT = [5300, 5310, 5320, 5330, 5340, 5350, 5360, 5370, 5380, 5390]  # quartiles 55 apart


@pytest.mark.parametrize("name, parent, change, expected", [
    ("questions_per_s", _PARENT, [r + 200 for r in _PARENT], "gain"),
    # Better in 8 of 10 pairs only.
    ("questions_per_s", _PARENT, [r + 200 for r in _PARENT[:8]] + [5000, 5000], "within bound"),
    # Better in every pair, but by less than the parent's quartile spread.
    ("questions_per_s", _PARENT, [r + 10 for r in _PARENT], "within bound"),
    ("questions_per_s", _PARENT, [r * 0.8 for r in _PARENT], "within bound"),
    ("questions_per_s", _PARENT, [r * 0.7 for r in _PARENT], "worse than bound"),
    ("questions_per_s", [40, 160] * 5, [28] * 10, "unresolved"),
    ("calls_per_question", [11.0] * 10, [11.0] * 10, "within bound"),
    ("calls_per_question", [11.0] * 10, [10.0] * 10, "gain"),
    ("calls_per_question", [11.0] * 10, [12.0] * 10, "worse than bound"),
], ids=["gain", "8-of-10", "inside-spread", "within", "worse", "unresolved",
        "lower-equal", "lower-gain", "lower-worse"])
def test_each_metric_gets_a_verdict_against_its_declared_bound(name, parent, change, expected):
    relative, judged = bench_ab.verdict(parent, change, _METRIC[name])
    assert judged == expected
    assert relative == pytest.approx(statistics.median(change) / statistics.median(parent) - 1)


def test_the_report_prints_each_metrics_change_bound_and_verdict():
    runs = {side: [bench_ab.parse_result(_canned_output(rate)) for rate in rates]
            for side, rates in (("parent", _PARENT), ("change", [r * 0.7 for r in _PARENT]))}
    lines = bench_ab.report("replay-sc", runs, DECLARED).splitlines()
    assert lines[1].startswith("  questions_per_s ")
    assert lines[1].endswith("change better in 0/10; -30.0% (higher is better, bound 25%): "
                             "worse than bound")
    assert lines[2].endswith("change better in 0/10; +0.0% (lower is better, bound 5%): "
                             "within bound")
    assert bench_ab.worse_than_bound(runs, DECLARED) == ["questions_per_s"]


def _fake_ab(tmp_path, monkeypatch, rates):
    """Stand in for git, the exports and every child process; a run in the
    ``side`` export reads ``rates[side]``. Returns the list of (export,
    command) pairs that main runs."""
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
        side = os.path.basename(cwd).split("-")[1]
        stdout = "" if "compileall" in cmd else _canned_output(rates[side])
        return bench_ab.subprocess.CompletedProcess(cmd, 0, stdout, "")

    monkeypatch.setattr(bench_ab, "_git", fake_git)
    monkeypatch.setattr(bench_ab, "_export", fake_export)
    monkeypatch.setattr(bench_ab.subprocess, "run", fake_run)
    return calls


def test_each_export_is_compiled_before_any_run(tmp_path, monkeypatch):
    # main only decides which commands run, in which directory and in which order.
    calls = _fake_ab(tmp_path, monkeypatch, {"parent": 4700.5, "change": 4700.5})
    assert bench_ab.main(["--parent", "p", "--change", "c", "--workload", "replay-sc",
                          "--seeds", "11-12", "--seconds", "1"]) == 0
    harness = os.path.join(str(tmp_path), ".perfbench_work", "ab-change-c", "perfbench", "run.py")
    compile_, run = ["-m", "compileall"], [harness, "--workload"]
    assert calls == [("ab-parent-p", compile_), ("ab-change-c", compile_),
                     ("ab-parent-p", run), ("ab-change-c", run),
                     ("ab-change-c", run), ("ab-parent-p", run)]
    assert not os.path.exists(tmp_path / ".perfbench_work")


def test_a_metric_worse_than_its_bound_exits_1_after_the_entries_are_written(
        tmp_path, monkeypatch, capsys):
    _fake_ab(tmp_path, monkeypatch, {"parent": 4700.5, "change": 3000.0})
    assert bench_ab.main(["--parent", "p", "--change", "c", "--workload", "replay-sc",
                          "--seeds", "11-12", "--seconds", "1", "--write"]) == 1
    out, err = capsys.readouterr()
    assert "-36.2% (higher is better, bound 25%): worse than bound" in out
    assert "bench_ab: worse than its bound: replay-sc questions_per_s" in err
    with open(tmp_path / "BENCH_replay-sc.json", encoding="utf-8") as fh:
        assert [e["commit"] for e in json.load(fh)["history"]] == ["p", "c"]
