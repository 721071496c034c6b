"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces the module attributes the program looks up at call time
(``breadth.bench.run_strategy``, ``breadth.llmio.cache_key`` and so on) with
timing wrappers and puts the originals back afterwards. Each span adds its
duration to its parent's child time, so a layer's self time is its span
minus the spans it caused. Spans are aggregated per name as they close:
count, total and self time, plus a few per-call results (vote ties,
abstentions, records loaded) that the per-layer metrics need.

A wrapped entry point that no longer exists is an error, and so is one that
recorded no call on a workload that must call it: a rename must not
silently drop a layer's numbers.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Callable, Dict, List, Optional

import breadth.bench
import breadth.extract
import breadth.llmio
import breadth.strategy
import breadth.votemodel

from fakebackend import STAGES, classify_stage


class TraceError(RuntimeError):
    """A wrapped entry point is missing or was never called."""


class Stat:
    __slots__ = ("count", "total_ns", "self_ns")

    def __init__(self):
        self.count = 0
        self.total_ns = 0
        self.self_ns = 0

    def to_dict(self) -> dict:
        return {"count": self.count, "total_ns": self.total_ns, "self_ns": self.self_ns}


def _vote_seen(tracer: "Tracer", result, args, elapsed_ns) -> None:
    counts = sorted((c for _, c in result.counts), reverse=True)
    top = counts[0] if counts else 0
    second = counts[1] if len(counts) > 1 else 0
    tracer.add("vote.ties", int(result.tie))
    tracer.add("vote.margin_paths", top - second)


def _extract_seen(tracer: "Tracer", result, args, elapsed_ns) -> None:
    tracer.add("extract.abstains", int(result.abstain))


def _reformulate_seen(tracer: "Tracer", result, args, elapsed_ns) -> None:
    spec = args[1]
    tracer.add("reformulate.variants", len(result) - int(spec.include_original))


def _store_opened(tracer: "Tracer", result, args, elapsed_ns) -> None:
    tracer.add("replay_store.records", len(args[0]))


# (owner, attribute, span name, result hook). Owners are looked up at the
# moment of the call by the program, so replacing the attribute is enough.
MODULE_ENTRY_POINTS = (
    (breadth.bench, "run_strategy", "strategy.run_strategy", None),
    (breadth.bench, "generate_synthetic", "bench.generate_synthetic", None),
    (breadth.strategy, "reformulate", "reformulate.reformulate", _reformulate_seen),
    (breadth.strategy, "extract_answer", "extract.extract_answer", _extract_seen),
    (breadth.strategy, "majority_vote", "extract.majority_vote", _vote_seen),
    (breadth.extract, "canonical_answer", "core.canonical_answer", None),
    (breadth.llmio, "cache_key", "llmio.cache_key", None),
    (breadth.llmio.ReplayStore, "__init__", "llmio.replay_store.open", _store_opened),
    (breadth.llmio.ReplayStore, "append", "llmio.replay_store.append", None),
    (breadth.votemodel, "simulate_plane", "votemodel.simulate_plane", None),
    (breadth.votemodel, "simulate_depth", "votemodel.simulate_depth", None),
)

BACKEND_SPAN = "llmio.backend.complete"
RUN_SPAN = "bench.run_experiment"


class Tracer:
    """Span aggregates for one process; install, run, uninstall."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self.stats: Dict[str, Stat] = {}
        self.counters: Dict[str, float] = {}
        self.question_ms: List[float] = []
        self._saved: list = []

    # -- recording -----------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def wrap(self, name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            frame = [0]
            stack.append(frame)
            started = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - started
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                tracer._record(name, elapsed, elapsed - frame[0])
            if on_result is not None:
                on_result(tracer, result, args, elapsed)
            return result

        traced.__wrapped__ = fn
        return traced

    def _record(self, name: str, elapsed_ns: int, self_ns: int) -> None:
        with self._lock:
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = Stat()
            stat.count += 1
            stat.total_ns += elapsed_ns
            stat.self_ns += self_ns
            if name == "strategy.run_strategy":
                self.question_ms.append(elapsed_ns / 1e6)

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        for owner, attr, name, hook in MODULE_ENTRY_POINTS:
            original = owner.__dict__.get(attr)
            if original is None:
                raise TraceError(f"{getattr(owner, '__name__', owner)}.{attr} no longer "
                                 f"exists; the {name} span cannot be recorded")
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, hook))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def trace_backend(self, backend) -> None:
        """Span the ``complete`` of the object handed to ``run_experiment``,
        with the request's stage read from its text."""
        def stage_seen(tracer, result, args, elapsed_ns):
            stage = classify_stage(args[0].user_text)
            tracer.add(f"stage.calls.{stage}", 1)
            tracer.add(f"stage.wait_ns.{stage}", elapsed_ns)

        backend.complete = self.wrap(BACKEND_SPAN, backend.complete, stage_seen)

    def to_dict(self) -> dict:
        return {
            "stats": {k: v.to_dict() for k, v in self.stats.items()},
            "counters": dict(self.counters),
            "question_ms": list(self.question_ms),
        }


def check_called(stats: Dict[str, dict], required) -> None:
    missing = [name for name in required if stats.get(name, {}).get("count", 0) == 0]
    if missing:
        raise TraceError("no calls recorded for " + ", ".join(sorted(missing)))


def _percentile(values: List[float], q: float) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[int(q) - 1]


def layer_metrics(timed: dict, setup: dict, extra: dict) -> Dict[str, float]:
    """Per-layer metrics by name.

    ``timed`` holds the traced rounds' spans, ``setup`` the spans of the
    set-up phase, and ``extra`` the benchmark's own counts for the traced
    rounds (questions, boundary samples and tokens, recorded usage, trace
    bytes) plus the untraced rounds' figures for the overhead comparison.
    Counts and times are per question unless the name says otherwise;
    ``open_ms`` and ``records`` are per store opened, the ``votemodel`` and
    ``generate_synthetic`` times per call.
    """
    stats, counters = timed["stats"], timed["counters"]
    questions = extra["questions"]

    def stat(name, source=stats):
        return source.get(name, {"count": 0, "total_ns": 0, "self_ns": 0})

    def per_q_ms(ns):
        return ns / 1e6 / questions

    def ratio(num, den):
        return num / den if den else 0.0

    backend = stat(BACKEND_SPAN)
    run = stat(RUN_SPAN)
    key = stat("llmio.cache_key")
    opened = stat("llmio.replay_store.open")
    append = stat("llmio.replay_store.append")
    reform = stat("reformulate.reformulate")
    votes = stat("extract.majority_vote")
    extracts = stat("extract.extract_answer")
    plane = stat("votemodel.simulate_plane", setup["stats"])
    depth = stat("votemodel.simulate_depth", setup["stats"])
    generate = stat("bench.generate_synthetic", setup["stats"])
    question_ms = timed["question_ms"]

    m = {
        "llmio.backend.calls": backend["count"] / questions,
        "llmio.backend.busy_ms": per_q_ms(backend["total_ns"]),
        "llmio.backend.inflight_mean": ratio(backend["total_ns"], run["total_ns"]),
        "llmio.limiter.wait_ms": extra["limiter_wait_s"] * 1e3 / questions,
        "llmio.cache_key.calls": key["count"] / questions,
        "llmio.cache_key.self_ms": per_q_ms(key["self_ns"]),
        "llmio.cache_key.per_request": ratio(key["count"], extra["samples"]),
        "llmio.replay_store.open_ms": ratio(opened["total_ns"] / 1e6, opened["count"]),
        "llmio.replay_store.records": ratio(counters.get("replay_store.records", 0),
                                            opened["count"]),
        "llmio.replay_store.append.calls": append["count"] / questions,
        "llmio.replay_store.append.self_ms": per_q_ms(append["self_ns"]),
        "llmio.recording.hit_frac": extra["recording_hit_frac"],
        "reformulate.ms": per_q_ms(reform["total_ns"]),
        "reformulate.attempts_per_variant": ratio(counters.get("stage.calls.rewrite", 0),
                                                  counters.get("reformulate.variants", 0)),
        "strategy.question_ms.p50": _percentile(question_ms, 50),
        "strategy.question_ms.p90": _percentile(question_ms, 90),
        "strategy.self_ms": per_q_ms(stat("strategy.run_strategy")["self_ns"]),
    }
    for stage in STAGES:
        m[f"strategy.calls.{stage}"] = counters.get(f"stage.calls.{stage}", 0) / questions
        m[f"strategy.wait_ms.{stage}"] = per_q_ms(counters.get(f"stage.wait_ns.{stage}", 0))
    m.update({
        "extract.extract_answer.self_ms": per_q_ms(extracts["self_ns"]),
        "core.canonical_answer.self_ms": per_q_ms(stat("core.canonical_answer")["self_ns"]),
        "extract.abstain_frac": ratio(counters.get("extract.abstains", 0), extracts["count"]),
        "extract.majority_vote.self_ms": per_q_ms(votes["self_ns"]),
        "extract.vote.tie_frac": ratio(counters.get("vote.ties", 0), votes["count"]),
        "extract.vote.margin_mean": ratio(counters.get("vote.margin_paths", 0), votes["count"]),
        "bench.run_experiment.self_ms": per_q_ms(run["self_ns"]),
        "bench.trace_bytes_per_question": extra["trace_bytes"] / questions,
        "bench.cpu_ms_per_question": extra["untraced_cpu_ms_per_question"],
        "bench.generate_synthetic_ms": ratio(generate["total_ns"] / 1e6, generate["count"]),
        "bench.usage_recorded_frac": ratio(extra["recorded_tokens"], extra["tokens"]),
        "votemodel.simulate_plane.ms": ratio(plane["total_ns"] / 1e6, plane["count"]),
        "votemodel.simulate_depth.ms": ratio(depth["total_ns"] / 1e6, depth["count"]),
        "votemodel.trials_per_s": ratio(extra["votemodel_trials"] * 1e9,
                                        plane["total_ns"] + depth["total_ns"]),
        "trace.questions_per_s.traced": extra["traced_qps"],
        "trace.questions_per_s.untraced": extra["untraced_qps"],
        "trace.overhead_frac": ratio(extra["untraced_qps"], extra["traced_qps"]) - 1.0,
    })
    return m
