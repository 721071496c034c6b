"""Output bytes of record-then-replay runs, pinned for every strategy kind.

Each case records a small fixed question set through a deterministic
backend, replays it from the recorded cache, and compares sha256 digests of
both runs' ``traces.jsonl`` and ``summary.json``, of the cache file and of
the requests ``plan_calls`` lists with ``tests/data/run_golden.json``. A refactor
that keeps behaviour keeps every digest.

To regenerate the golden file after a deliberate output change:

    PYTHONPATH=src python tests/test_golden_runs.py --write
"""

import hashlib
import json
import os
import sys
import tempfile
from dataclasses import asdict

import pytest

from breadth.bench import generate_synthetic, run_experiment
from breadth.core import KIND_KNOBS, StopRule, StrategyConfig, StrategyKind
from breadth.llmio import RecordingBackend, ReplayBackend, ScriptedBackend
from breadth.store import ReplayStore
from breadth.strategy import plan_calls

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

from fakebackend import FakeBackend  # noqa: E402

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "data", "run_golden.json")
DATASETS = ("coinflip", "lastletters")
N_QUESTIONS = 10
QUESTION_SEED = 11
BACKEND_SEED = 5


def _configs():
    """N=M=T=3, each kind given the knobs of that shape it reads."""
    for kind in StrategyKind:
        shape = {knob: 3 for knob in ("n_reformulations", "m_samples", "max_iterations")
                 if knob in KIND_KNOBS[kind]}
        if kind == StrategyKind.DEEP_COT:
            for rule in StopRule:
                yield f"{kind.value}-{rule.value}", StrategyConfig(kind, stop_rule=rule, **shape)
        else:
            yield kind.value, StrategyConfig(kind, **shape)


CASES = [(dataset, label) for dataset in DATASETS for label, _ in _configs()]


def _inner_backend(questions, cfg):
    if cfg.kind != StrategyKind.ZERO_SHOT:
        return FakeBackend(questions, seed=BACKEND_SEED)
    # The fake model has no zero-shot stage; one catch-all rule answers
    # every other question right and leaves the rest unparseable.
    replies = [f"The answer is {q.gold.value}." if i % 2 == 0 else "I cannot tell."
               for i, q in enumerate(questions)]
    return ScriptedBackend({"": replies})


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return _digest(fh.read())


def run_case(dataset: str, label: str) -> dict:
    """Digests of one record-then-replay case, keyed by output name."""
    cfg = dict(_configs())[label]
    questions = generate_synthetic(dataset, N_QUESTIONS, seed=QUESTION_SEED)
    inner = _inner_backend(questions, cfg)
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "cache.jsonl")
        run_experiment(dataset, questions, cfg,
                       RecordingBackend(inner, ReplayStore(cache_path)),
                       runs_dir=tmp, run_id="record")
        run_experiment(dataset, questions, cfg,
                       ReplayBackend(ReplayStore(cache_path), model=inner.model),
                       runs_dir=tmp, run_id="replay")
        for run_id in ("record", "replay"):
            for name in ("traces.jsonl", "summary.json"):
                digests[f"{run_id}/{name}"] = _file_digest(os.path.join(tmp, run_id, name))
        digests["cache.jsonl"] = _file_digest(cache_path)
    plans = [plan_calls(q, cfg) for q in questions]
    digests["plan_calls"] = _digest(
        json.dumps(plans, sort_keys=True, default=asdict).encode("utf-8"))
    return digests


def _load_golden() -> dict:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("dataset,label", CASES)
def test_run_outputs_match_golden(dataset, label):
    assert run_case(dataset, label) == _load_golden()[f"{dataset}/{label}"]


def test_golden_covers_every_case():
    assert sorted(_load_golden()) == sorted(f"{d}/{l}" for d, l in CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden_runs.py --write")
    golden = {f"{d}/{l}": run_case(d, l) for d, l in CASES}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
