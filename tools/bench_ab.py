"""Measure two commits under one benchmark harness, and publish the readings.

Run from anywhere inside the repository:

    python3 tools/bench_ab.py --parent HEAD~1 --workload replay-sc --seeds 11-16 --seconds 5
    python3 tools/bench_ab.py --parent HEAD~1 --change HEAD --workload all --write

Each revision is exported with ``git archive`` under ``.perfbench_work/``,
so ``.git`` is never written, and the change's ``perfbench/run.py`` runs in
each export: the program under test comes from the export, the harness from
the change. Each export's ``src`` and ``perfbench`` are compiled to
``__pycache__`` first, so that where ``PYTHONDONTWRITEBYTECODE`` is set no
run compiles them again inside its ``setup_s`` and ``peak_rss_mb``. Parent
and change alternate which runs first from one seed to the next. Each run's
last stdout line is the harness's JSON result; a run that exits non-zero or
is not ``correct`` stops the script with exit 1.

For each end-to-end metric of the change's ``BENCHMARK.json`` the script
prints both sides' medians and quartiles, the pairs (one per seed) in which
the change is better, and the relative change of the medians next to the
metric's declared bound and direction, with a verdict (see :func:`verdict`).
The bounds are read, never written. A metric worse than its bound makes the
script exit 1 once every workload is measured (and written, under
``--write``). With ``--write`` it appends one entry per side
to ``BENCH_<workload>.json`` at the repository root: the commit, the
harness's tree hash (``git rev-parse REV:perfbench``), the seeds, the
seconds per run, ``nproc``, the Python version and, per metric, its median,
quartiles, unit and count of runs. Entries made under different harness
hashes measure different things and are not a trajectory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from contextlib import suppress
from typing import Dict, List, Sequence, Tuple

WORKLOADS = ("breadth-latency", "replay-sc", "record-deep")

GAIN, UNRESOLVED, WORSE, WITHIN = "gain", "unresolved", "worse than bound", "within bound"


def _git(root: str, *args: str) -> str:
    return subprocess.run(["git", "-C", root, *args], check=True, capture_output=True,
                          text=True).stdout.strip()


def parse_seeds(text: str) -> List[int]:
    """The seeds of a range ``"11-16"``, or of one seed ``"11"``: the
    ``--seeds`` type, so that an empty, reversed or non-numeric range is a
    usage error before any export."""
    first, _, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last or first) + 1))
    except ValueError:
        seeds = []
    if not seeds:
        raise argparse.ArgumentTypeError(f"expected a range of seeds as 11-16, got {text!r}")
    return seeds


def parse_result(stdout: str) -> dict:
    """The harness's result, the JSON object on the last line of its output;
    a ``RuntimeError`` unless it is there and ``correct``."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        raise RuntimeError("the run printed no JSON result line") from None
    if not (isinstance(result, dict) and result.get("correct") is True):
        raise RuntimeError(f"the run is not correct: {lines[-1]:.300}")
    return result


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles and count of one metric's readings."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else list(values) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "count": len(values)}


def pairs_won(parent: Sequence[float], change: Sequence[float], better: str) -> int:
    """The seeds on which the change reads strictly better than the parent."""
    sign = 1 if better == "higher" else -1
    return sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else math.copysign(math.inf, delta)


def verdict(parent: Sequence[float], change: Sequence[float], metric: dict) -> Tuple[float, str]:
    """The relative change of the medians, change over parent, and its
    verdict against ``metric``'s declared ``bound`` and ``better`` direction,
    the first of these that holds:

    - ``gain``: the change is better in at least 9 of 10 pairs, and its
      median is better by more than the parent's quartile spread;
    - ``unresolved``: the parent's quartile spread, relative to its median,
      is wider than the bound, so the runs cannot tell the bound;
    - ``worse than bound``: the median is worse by more than the bound;
    - ``within bound``.
    """
    p, c = summarize(parent), summarize(change)
    sign = 1 if metric["better"] == "higher" else -1
    delta, spread = c["median"] - p["median"], p["q3"] - p["q1"]
    relative = _relative(delta, p["median"])
    if (10 * pairs_won(parent, change, metric["better"]) >= 9 * len(parent)
            and sign * delta > spread):
        return relative, GAIN
    if _relative(spread, p["median"]) > metric["bound"]:
        return relative, UNRESOLVED
    return relative, WORSE if -sign * relative > metric["bound"] else WITHIN


def entry(commit: str, harness: str, seeds: Sequence[int], seconds: float, python: str,
          runs: Sequence[dict], declared: Sequence[dict]) -> dict:
    """One side's ``BENCH_*.json`` entry from its harness results, in seed order."""
    metrics = {}
    for metric in declared:
        values = [run["metrics"][metric["name"]]["value"] for run in runs]
        metrics[metric["name"]] = {**summarize(values), "unit": metric["unit"]}
    return {"commit": commit, "harness": harness, "seeds": list(seeds), "seconds": seconds,
            "nproc": os.cpu_count(), "python": python, "metrics": metrics}


def append_entries(path: str, entries: Sequence[dict]) -> None:
    """Add ``entries`` to the history in ``path``. The file is written to a
    temporary file beside it and moved over it, so a write that fails or is
    interrupted leaves the old history whole."""
    history = []
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            history = json.load(fh)["history"]
    temp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as fh:
            json.dump({"history": history + list(entries)}, fh, indent=2)
            fh.write("\n")
        os.replace(temp, path)
    finally:
        with suppress(FileNotFoundError):
            os.remove(temp)


def report(workload: str, sides: Dict[str, List[dict]], declared: Sequence[dict]) -> str:
    lines = [f"{workload}: {len(sides['parent'])} pairs; median [q1, q3] parent -> change"]
    for metric in declared:
        parent, change = _readings(sides, metric["name"])
        p, c = summarize(parent), summarize(change)
        won = pairs_won(parent, change, metric["better"])
        relative, judged = verdict(parent, change, metric)
        lines.append(f"  {metric['name']:<20} {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}] "
                     f"-> {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {metric['unit']}; "
                     f"change better in {won}/{len(parent)}; {relative:+.1%} "
                     f"({metric['better']} is better, bound {metric['bound']:.0%}): {judged}")
    return "\n".join(lines)


def _readings(sides: Dict[str, List[dict]], name: str) -> List[List[float]]:
    """The parent's and the change's readings of the metric ``name``, in seed order."""
    return [[run["metrics"][name]["value"] for run in sides[side]]
            for side in ("parent", "change")]


def worse_than_bound(sides: Dict[str, List[dict]], declared: Sequence[dict]) -> List[str]:
    """The names of the metrics whose verdict is ``worse than bound``."""
    return [metric["name"] for metric in declared
            if verdict(*_readings(sides, metric["name"]), metric)[1] == WORSE]


def _export(root: str, commit: str, where: str) -> None:
    shutil.rmtree(where, ignore_errors=True)
    os.makedirs(where)
    archive = subprocess.Popen(["git", "-C", root, "archive", commit], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", where], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise RuntimeError(f"git archive {commit} failed")


def _run(export: str, harness: str, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, harness, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds)], cwd=export, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RuntimeError(f"{workload} seed {seed} in {export} exited {proc.returncode}")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="the revision to measure against")
    parser.add_argument("--change", default="HEAD", help="the revision measured (HEAD)")
    parser.add_argument("--workload", required=True, help=f"all, or one of {WORKLOADS}")
    parser.add_argument("--seeds", type=parse_seeds, default="11-16",
                        help="a range of seeds, as 11-16")
    parser.add_argument("--seconds", type=float, default=5.0, help="seconds per run")
    parser.add_argument("--write", action="store_true",
                        help="append both sides' entries to BENCH_<workload>.json")
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    root = _git(os.path.dirname(os.path.abspath(__file__)), "rev-parse", "--show-toplevel")
    commits = {side: _git(root, "rev-parse", "--verify", f"{rev}^{{commit}}")
               for side, rev in (("parent", args.parent), ("change", args.change))}
    harness_tree = _git(root, "rev-parse", f"{commits['change']}:perfbench")
    work = os.path.join(root, ".perfbench_work")
    exports = {side: os.path.join(work, f"ab-{side}-{commit[:12]}")
               for side, commit in commits.items()}
    try:
        for side, commit in commits.items():
            _export(root, commit, exports[side])
            subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "perfbench"],
                           cwd=exports[side], check=True, capture_output=True)
        harness = os.path.join(exports["change"], "perfbench", "run.py")
        with open(os.path.join(exports["change"], "BENCHMARK.json"), encoding="utf-8") as fh:
            declared = json.load(fh)["end_to_end"]
        worse = []
        for workload in workloads:
            sides: Dict[str, List[dict]] = {"parent": [], "change": []}
            for i, seed in enumerate(args.seeds):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    sides[side].append(_run(exports[side], harness, workload, seed, args.seconds))
            print(report(workload, sides, declared), flush=True)
            worse += [f"{workload} {name}" for name in worse_than_bound(sides, declared)]
            if args.write:
                append_entries(os.path.join(root, f"BENCH_{workload}.json"), [
                    entry(commits[side], harness_tree, args.seeds, args.seconds,
                          platform.python_version(), sides[side], declared)
                    for side in ("parent", "change")])
        if worse:
            raise RuntimeError(f"worse than its bound: {', '.join(worse)}")
    except (RuntimeError, subprocess.CalledProcessError) as exc:
        print(f"bench_ab: {exc}", file=sys.stderr)
        return 1
    finally:
        for export in exports.values():
            shutil.rmtree(export, ignore_errors=True)
        with suppress(OSError):
            os.rmdir(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
