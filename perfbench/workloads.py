"""The benchmark's workloads: set-up, one timed round, and output checks.

Each workload drives the library the way ``breadth run`` does: build a
backend, call ``bench.run_experiment`` on generated questions, read the run
directory. A round runs one fixed question set; the timed phase repeats
rounds and reports medians.

- ``breadth-latency``: questionc-sc, N=3, M=3, over coinflip, through a
  fake backend that sleeps per call behind a real ``TokenBucketLimiter``.
  Nearly all wall time is backend waiting, so concurrency and early stopping
  show here and CPU-side changes should not.
- ``replay-sc``: sc, M=10, over coinflip, served by ``ReplayBackend`` from a
  cache recorded at set-up; the round includes opening the store. This is
  the CPU-bound read path: cache keys, store load and lookup, extraction,
  voting and trace serialization.
- ``record-deep``: deep-cot, T=3, fixed stop, over lastletters, recording
  through ``RecordingBackend`` into an empty store. This is the write path,
  a serial chain with no vote and free-form extraction.

Set-up generates the questions and computes reference outputs with a
serial, zero-latency run (for replay-sc that run records the cache). For
breadth-latency it also computes what ``breadth votemodel --q-advance``
prints for the fake model's parameters: the vote model of the
configuration the workload runs.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from math import comb
from typing import Dict, List, Optional

from breadth import bench, votemodel
from breadth.core import Question, StopRule, StrategyConfig, StrategyKind, default_config
from breadth.llmio import RecordingBackend, ReplayBackend, ReplayStore, TokenBucketLimiter

from fakebackend import CountingBackend, FakeBackend, FakeParams

ZERO_LATENCY = FakeParams()
# About 4-8 ms per call: a base wait plus a per-output-token cost.
WITH_LATENCY = FakeParams(base_latency_s=0.004, latency_per_token_s=0.00004)
# The limiter is real but never the bottleneck: a live default of 60/min
# would allow one call a second after the first burst.
LIMITER_CONCURRENCY = 4
LIMITER_PER_MINUTE = 1_000_000

# Large enough that the vote model is about two thirds of breadth-latency's
# set-up, so a vote-model slowdown of 1.4x or more moves setup_s past its
# bound and does not show only per layer.
VOTEMODEL_TRIALS = 2_000_000
VOTEMODEL_T_MAX = 5


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    round_size: int  # questions per run_experiment call
    config: StrategyConfig
    mode: str  # latency | replay | record
    calls_per_question: int  # the path-count law, before rewrite retries

    @property
    def votemodel(self) -> bool:
        return self.mode == "latency"


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("breadth-latency", "coinflip", 20,
                 default_config(StrategyKind.QUESTION_C_SC, n_reformulations=3, m_samples=3),
                 "latency", 2 + 3 + 9),
        Workload("replay-sc", "coinflip", 500,
                 default_config(StrategyKind.SC, m_samples=10),
                 "replay", 1 + 10),
        Workload("record-deep", "lastletters", 500,
                 default_config(StrategyKind.DEEP_COT, max_iterations=3,
                                stop_rule=StopRule.FIXED_T),
                 "record", 2 * 3),
    )
}

# Spans every traced round of a workload must record at least once.
REQUIRED_SPANS = {
    "breadth-latency": ("reformulate.reformulate",),
    "replay-sc": ("llmio.cache_key", "llmio.replay_store.open"),
    "record-deep": ("llmio.cache_key", "llmio.replay_store.open",
                    "llmio.replay_store.append"),
}
COMMON_SPANS = ("bench.run_experiment", "strategy.run_strategy", "llmio.backend.complete",
                "extract.extract_answer", "extract.majority_vote", "core.canonical_answer")


def load_questions(w: Workload, seed: int) -> List[Question]:
    """The workload's question set: the generator's default 500 items."""
    return bench.load_dataset(bench.dataset_spec(w.dataset, seed=seed))


def slices(w: Workload, pool: List[Question]) -> List[List[Question]]:
    """The fixed question slices that rounds run, in order."""
    return [pool[i:i + w.round_size] for i in range(0, len(pool), w.round_size)]


def _digest(value) -> str:
    payload = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _normalized(text: str) -> str:
    # reformulate's duplicate rule, restated so the check does not rely on
    # the code it checks.
    return " ".join(text.split()).lower()


def summarize(record, run_dir: str, counting: CountingBackend,
              fake: Optional[FakeBackend], store: Optional[ReplayStore]) -> dict:
    """Everything the checks compare, read from the run directory and the
    counters at the backend boundary."""
    raw = hashlib.sha256()
    stripped = hashlib.sha256()
    trace_bytes = 0
    contexts: Dict[str, Dict[int, str]] = {}
    with open(os.path.join(run_dir, "traces.jsonl"), "rb") as fh:
        for line in fh:
            raw.update(line)
            trace_bytes += len(line)
            trace = json.loads(line)
            trace.pop("latency_ms")
            stripped.update(json.dumps(trace, sort_keys=True).encode("utf-8"))
            first_line = trace["assembled_input"].split("\n", 1)[0]
            contexts.setdefault(trace["question_id"], {})[trace["reformulation_index"]] = first_line
    kept_duplicates = sum(len(c) - len({_normalized(t) for t in c.values()})
                          for c in contexts.values())
    outcomes = record.outcomes
    return {
        "questions": len(outcomes),
        "correct": sum(1 for o in outcomes if o.correct),
        "finals": _digest([[o.question_id, o.final.to_dict(), o.correct] for o in outcomes]),
        "trace_counts": _digest([o.trace_count for o in outcomes]),
        "errors": sum(1 for o in outcomes if o.error is not None),
        "partial": record.partial,
        "traces_raw": raw.hexdigest(),
        "traces": stripped.hexdigest(),
        "trace_bytes": trace_bytes,
        "calls": counting.calls,
        "samples": counting.samples,
        "tokens": counting.tokens,
        "recorded_tokens": record.usage.total_tokens,
        "inner_calls": fake.calls if fake else 0,
        "stage_calls": dict(fake.stage_calls) if fake else {},
        "duplicates_emitted": fake.duplicates_emitted if fake else 0,
        "duplicates_kept": kept_duplicates,
        "limiter_wait_s": fake.limiter_wait_s if fake else 0.0,
        "store_records": len(store) if store is not None else 0,
    }


def run_once(w: Workload, seed: int, pool: List[Question], questions: List[Question],
             workdir: str, run_id: str, params: FakeParams,
             store_path: Optional[str] = None, replay: bool = False, tracer=None) -> tuple:
    """One ``run_experiment`` call over ``questions``, a slice of ``pool``;
    returns (summary, seconds, cpu seconds).

    With ``store_path`` the fake backend records into that store, or with
    ``replay`` the store serves every call. The timed span covers opening
    the store, because users pay that on every run.
    """
    fake = None
    if not replay:
        limiter = None
        if params != ZERO_LATENCY:
            limiter = TokenBucketLimiter(LIMITER_CONCURRENCY, LIMITER_PER_MINUTE)
        fake = FakeBackend(pool, seed, params, limiter=limiter)
    runs_dir = os.path.join(workdir, "runs")
    run_experiment = bench.run_experiment
    if tracer is not None:
        run_experiment = tracer.wrap("bench.run_experiment", run_experiment)

    started = time.perf_counter()
    cpu_started = time.process_time()
    store = ReplayStore(store_path) if store_path else None
    if replay:
        inner = ReplayBackend(store, model=FakeBackend.MODEL)
    elif store is not None:
        inner = RecordingBackend(fake, store)
    else:
        inner = fake
    counting = CountingBackend(inner)
    if tracer is not None:
        tracer.trace_backend(counting)
    record = run_experiment(w.dataset, questions, w.config, counting,
                            runs_dir=runs_dir, run_id=run_id)
    cpu = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    summary = summarize(record, os.path.join(runs_dir, run_id), counting, fake, store)
    return summary, elapsed, cpu


def _plane_exact(p: float, rho: float, n: int, m: int) -> float:
    """Exact accuracy of the n x m vote (odd total, so no ties)."""
    def context_dist(a):
        return [comb(m, j) * a ** j * (1 - a) ** (m - j) for j in range(m + 1)]
    per_context = [p * x + (1 - p) * y for x, y in zip(
        context_dist(rho + (1 - rho) * p), context_dist((1 - rho) * p))]
    total = [1.0]
    for _ in range(n):
        nxt = [0.0] * (len(total) + m)
        for i, a in enumerate(total):
            for j, b in enumerate(per_context):
                nxt[i + j] += a * b
        total = nxt
    return sum(total[k] for k in range(len(total)) if 2 * k > n * m)


def run_votemodel(w: Workload, seed: int) -> dict:
    """What ``breadth votemodel --q-advance`` computes, on the fake model's
    parameters, with its estimates checked against the exact values."""
    p = ZERO_LATENCY
    n, m = w.config.n_reformulations, w.config.m_samples
    model = votemodel.PlaneModel(p_correct=p.p_correct, rho=p.rho, n_contexts=n,
                                 m_per_context=m, q_advance=p.q_advance)
    plane = votemodel.simulate_plane(model, trials=VOTEMODEL_TRIALS, seed=seed)
    depth = votemodel.simulate_depth(model, t_max=VOTEMODEL_T_MAX,
                                     trials=VOTEMODEL_TRIALS, seed=seed)
    output = votemodel.breadth_curve_csv(plane) + votemodel.depth_curve_csv(depth, model)
    errors = []
    expected = _plane_exact(p.p_correct, p.rho, n, m)
    if abs(plane.breadth_acc - expected) > 5 * plane.breadth_se:
        errors.append(f"votemodel {n}x{m} accuracy {plane.breadth_acc} vs exact {expected}")
    if len(depth) != VOTEMODEL_T_MAX:
        errors.append(f"votemodel gave {len(depth)} depth rounds, expected {VOTEMODEL_T_MAX}")
    for point in depth:
        exact = votemodel.closed_form_depth(p.p_correct, p.q_advance, point.round)
        if abs(point.accuracy - exact) > 5 * point.std_err + 1e-12:
            errors.append(f"votemodel round {point.round} accuracy {point.accuracy} "
                          f"vs closed form {exact}")
    return {"digest": hashlib.sha256(output.encode("utf-8")).hexdigest(), "errors": errors}


def setup(w: Workload, seed: int, workdir: str) -> tuple:
    """Generate the questions and the reference outputs, slice by slice;
    returns (seconds, CPU seconds, reference, store path or None)."""
    os.makedirs(workdir, exist_ok=True)
    started = time.perf_counter()
    cpu_started = time.process_time()
    pool = load_questions(w, seed)
    store_path = os.path.join(workdir, "cache.jsonl") if w.mode == "replay" else None
    per_slice = [run_once(w, seed, pool, chunk, workdir, f"reference-{i}", ZERO_LATENCY,
                          store_path=store_path)[0]
                 for i, chunk in enumerate(slices(w, pool))]
    reference = {"slices": per_slice}
    for key in ("questions", "correct", "calls", "tokens"):
        reference[key] = sum(r[key] for r in per_slice)
    if w.votemodel:
        reference["votemodel"] = run_votemodel(w, seed)
    cpu = time.process_time() - cpu_started
    elapsed = time.perf_counter() - started
    return elapsed, cpu, reference, store_path


def check_round(w: Workload, got: dict, ref: dict) -> List[str]:
    """Differences between a timed round and the reference run of the same
    slice, and breaches of the path-count law; empty when the round is
    correct."""
    errors = []
    for key in ("questions", "correct", "finals", "trace_counts", "traces", "calls", "tokens"):
        if got[key] != ref[key]:
            errors.append(f"{key}: {got[key]!r} != reference {ref[key]!r}")
    if w.mode == "replay" and got["traces_raw"] != ref["traces_raw"]:
        errors.append("replayed traces are not byte-identical to the recorded ones")
    if got["errors"] or got["partial"]:
        errors.append(f"{got['errors']} failed questions, partial={got['partial']}")
    q = got["questions"]
    retries = 0
    if w.mode == "latency":
        stages = got["stage_calls"]
        retries = got["duplicates_emitted"] - got["duplicates_kept"]
        n, m = w.config.n_reformulations, w.config.m_samples
        expected = {"rewrite": (n - 1) * q + retries, "reasoning": n * q,
                    "prediction": n * m * q, "iteration": 0}
        if stages != expected:
            errors.append(f"stage calls {stages} break the path-count law {expected}")
    if got["calls"] != w.calls_per_question * q + retries:
        errors.append(f"{got['calls']} calls for {q} questions; the path-count law gives "
                      f"{w.calls_per_question} per question plus {retries} rewrite retries")
    if w.mode == "record":
        if got["inner_calls"] != got["calls"] or got["store_records"] != got["calls"]:
            errors.append(f"recording served {got['calls'] - got['inner_calls']} hits and "
                          f"stored {got['store_records']} records for {got['calls']} calls")
    return errors
