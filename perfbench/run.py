"""Benchmark entry point for the ``breadth`` toolkit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload breadth-latency --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

One workload prints its metrics and, as the last line, a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
``--workload all`` runs every workload untraced, one after another, and
prints each one's metrics with their units and sample counts. Either form
exits non-zero when an output check fails.

A run sets up several times (the median is ``setup_s``), then starts a fresh
process for the timed phase. ``peak_rss_mb`` is that process's ``VmHWM``,
the high-water mark of the address space it got at exec, so set-up is left
out; ``ru_maxrss`` would not do, because the kernel carries the parent's
peak into it across exec. The timed process repeats rounds of one
``run_experiment`` call until ``--seconds`` have passed; throughput is the median over rounds. Under ``--trace 1`` the
rounds alternate untraced and traced, which gives the tracing overhead.
All files go under ``.perfbench_work/`` in the checkout and are removed at
the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
SETUP_REPEATS = 3
CHILD_GRACE_S = 150



def _declared_units(trace: int) -> dict:
    """Metric names and units as ``BENCHMARK.json`` declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _import_program():
    """Import ``breadth`` from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "breadth", "__init__.py")):
        sys.exit(f"perfbench: no breadth sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import breadth

    if not os.path.abspath(breadth.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported breadth from {breadth.__file__}, not from {SRC}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--store", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _peak_rss_kb() -> int:
    """High-water resident memory of this process since its exec, in KiB."""
    with open("/proc/self/status", "r", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def _timed_phase(args) -> dict:
    """The child process: repeat rounds until the time is up."""
    from hostspeed import calibrate
    from tracing import Tracer
    from workloads import WITH_LATENCY, WORKLOADS, ZERO_LATENCY, load_questions, run_once, slices

    w = WORKLOADS[args.workload]
    pool = load_questions(w, args.seed)
    chunks = slices(w, pool)
    params = WITH_LATENCY if w.mode == "latency" else ZERO_LATENCY
    tracer = Tracer() if args.trace else None
    rounds = []
    deadline = time.perf_counter() + args.seconds
    index = 0
    os.makedirs(args.workdir, exist_ok=True)
    calibration = calibrate(args.workdir)
    while index < 2 or time.perf_counter() < deadline:
        traced = tracer is not None and index % 2 == 1
        round_dir = os.path.join(args.workdir, f"round-{index}")
        os.makedirs(round_dir)
        store_path = args.store
        if w.mode == "record":
            store_path = os.path.join(round_dir, "cache.jsonl")
        if traced:
            tracer.install()
        try:
            summary, elapsed, cpu = run_once(
                w, args.seed, pool, chunks[index % len(chunks)], round_dir, "timed", params,
                store_path=store_path, replay=w.mode == "replay",
                tracer=tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        shutil.rmtree(round_dir)
        after = calibrate(args.workdir)
        summary.update(slice=index % len(chunks), seconds=elapsed, cpu_s=cpu, traced=traced,
                       calibration_s=(calibration + after) / 2)
        calibration = after
        rounds.append(summary)
        index += 1
        if tracer is None and time.perf_counter() >= deadline:
            break
    out = {"rounds": rounds, "peak_rss_kb": _peak_rss_kb()}
    if tracer is not None:
        out["trace"] = tracer.to_dict()
    return out


def _run_child(args, workdir: str, store_path) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", workdir]
    if store_path:
        cmd += ["--store", store_path]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=args.seconds + CHILD_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"timed phase exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _adjusted_rate(round_summary: dict) -> float:
    """Questions per second with the round's CPU time at nominal host speed."""
    from hostspeed import adjusted_seconds

    r = round_summary
    return r["questions"] / adjusted_seconds(r["seconds"], r["cpu_s"], r["calibration_s"])


def measure(args) -> tuple:
    """Set up, run the timed phase, check it; returns (result, report lines)."""
    from hostspeed import NOMINAL_S, adjusted_seconds, calibrate
    from tracing import Tracer, TraceError, check_called, layer_metrics
    from workloads import (COMMON_SPANS, REQUIRED_SPANS, VOTEMODEL_TRIALS, WORKLOADS,
                           check_round, setup)

    w = WORKLOADS[args.workload]
    workdir = os.path.join(WORK_DIR, f"{w.name}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        setup_tracer = Tracer() if args.trace else None
        if setup_tracer is not None:
            setup_tracer.install()
        try:
            calibration = calibrate(workdir)
            setups = []
            for i in range(SETUP_REPEATS):
                seconds, cpu, reference, store_path = setup(
                    w, args.seed, os.path.join(workdir, f"setup-{i}"))
                after = calibrate(workdir)
                setups.append((adjusted_seconds(seconds, cpu, (calibration + after) / 2),
                               reference, store_path))
                calibration = after
        finally:
            if setup_tracer is not None:
                setup_tracer.uninstall()
        errors = []
        _, reference, store_path = setups[0]
        if any(ref != reference for _, ref, _ in setups[1:]):
            errors.append("set-up gave different reference outputs on the same seed")
        errors += reference.get("votemodel", {}).get("errors", [])

        timed = _run_child(args, os.path.join(workdir, "timed"), store_path)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK_DIR)
        except OSError:
            pass

    rounds = timed["rounds"]
    for i, got in enumerate(rounds):
        errors += [f"round {i}: {e}"
                   for e in check_round(w, got, reference["slices"][got["slice"]])]
    untraced = [r for r in rounds if not r["traced"]]
    qps = [_adjusted_rate(r) for r in untraced]
    raw_qps = [r["questions"] / r["seconds"] for r in untraced]
    attempted = sum(reference["slices"][r["slice"]]["questions"] for r in rounds)
    failed = attempted - sum(r["questions"] for r in rounds) + sum(r["errors"] for r in rounds)
    quartiles = statistics.quantiles(qps, n=4) if len(qps) > 1 else qps * 3
    lines = [f"{w.name}: seed {args.seed}; {len(untraced)} untraced rounds of {w.round_size} "
             f"questions; counts and accuracy over {reference['questions']} questions; "
             f"set-up x{SETUP_REPEATS}"
             + (f" with {VOTEMODEL_TRIALS} vote-model trials each" if w.votemodel else ""),
             f"  questions_per_s by round: quartiles "
             + " ".join(f"{v:.6g}" for v in quartiles)
             + f"; unadjusted median {statistics.median(raw_qps):.6g}"]

    if not args.trace:
        values = {
            "questions_per_s": statistics.median(qps),
            "calls_per_question": reference["calls"] / reference["questions"],
            "tokens_per_question": reference["tokens"] / reference["questions"],
            "accuracy": reference["correct"] / reference["questions"],
            "peak_rss_mb": timed["peak_rss_kb"] / 1024.0,
            "setup_s": statistics.median([s[0] for s in setups]),
        }
    else:
        traced = [r for r in rounds if r["traced"]]
        trace, setup_trace = timed["trace"], setup_tracer.to_dict()
        try:
            check_called(trace["stats"], COMMON_SPANS + REQUIRED_SPANS[w.name])
            check_called(setup_trace["stats"], ("bench.generate_synthetic",) + (
                ("votemodel.simulate_plane", "votemodel.simulate_depth") if w.votemodel else ()))
        except TraceError as exc:
            errors.append(str(exc))
        calls = sum(r["calls"] for r in traced)
        extra = {
            "questions": sum(r["questions"] for r in traced),
            "samples": sum(r["samples"] for r in traced),
            "tokens": sum(r["tokens"] for r in traced),
            "recorded_tokens": sum(r["recorded_tokens"] for r in traced),
            "trace_bytes": sum(r["trace_bytes"] for r in traced),
            "limiter_wait_s": sum(r["limiter_wait_s"] for r in traced),
            "recording_hit_frac": (1 - sum(r["inner_calls"] for r in traced) / calls
                                   if w.mode == "record" else 0.0),
            "untraced_cpu_ms_per_question": statistics.median(
                [r["cpu_s"] * NOMINAL_S / r["calibration_s"] * 1e3 / r["questions"]
                 for r in untraced]),
            "untraced_qps": statistics.median(qps),
            "traced_qps": statistics.median([_adjusted_rate(r) for r in traced]),
            "votemodel_trials": VOTEMODEL_TRIALS * setup_trace["stats"].get(
                "votemodel.simulate_plane", {}).get("count", 0),
        }
        values = layer_metrics(trace, setup_trace, extra)
        lines[0] = (f"{w.name}: seed {args.seed}; {len(traced)} traced and {len(untraced)} "
                    f"untraced rounds of {w.round_size} questions")

    units = _declared_units(args.trace)
    if set(values) != set(units):
        errors.append(f"metrics {sorted(set(values) ^ set(units))} are measured or declared "
                      f"in BENCHMARK.json, not both")
    metrics = {name: {"value": value, "unit": units.get(name, "")}
               for name, value in values.items()}
    for name, entry in metrics.items():
        lines.append(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for e in errors:
        lines.append(f"  CHECK FAILED: {e}")
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def run_all(args) -> int:
    """Every workload untraced, one after another; non-zero if any check
    failed."""
    from workloads import WORKLOADS

    ok = True
    for name in WORKLOADS:
        result, lines = measure(argparse.Namespace(**{**vars(args), "workload": name,
                                                      "trace": 0}))
        print("\n".join(lines), flush=True)
        ok = ok and result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    from tracing import TraceError
    from workloads import WORKLOADS

    if args.workload != "all" and args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: all, {', '.join(WORKLOADS)}")
    if args.child:
        print(json.dumps(_timed_phase(args)))
        return 0
    if args.workload == "all":
        return run_all(args)
    try:
        result, lines = measure(args)
    except TraceError as exc:
        sys.exit(f"perfbench: traced run failed: {exc}")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
