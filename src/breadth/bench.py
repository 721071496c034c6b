"""Benchmark ingestion, synthetic generators, the experiment runner, pilot
subset filtering, and report emission.

Upstream dataset schemas vary, so each dataset is one row of ``DATASETS``:
its format, size, default file and where a record keeps each field. Runs
persist every trace to ``runs/<run_id>/traces.jsonl`` plus a
``summary.json`` whose outcomes are derived from those traces alone, are
resumable (completed questions are skipped on restart), and are
byte-reproducible under a deterministic backend.
"""

from __future__ import annotations

import functools
import itertools
import json
import logging
import os
import random
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from importlib import resources
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from .core import (
    Answer,
    AnswerFormat,
    KIND_KNOBS,
    Question,
    ReasoningTrace,
    Record,
    StopRule,
    StrategyConfig,
    StrategyKind,
    Usage,
    canonical_answer,
    check_json_fields,
    json_string,
    parse_json,
)
from .llmio import MAX_IN_FLIGHT, Backend
from .store import AppendLog, read_json_lines, replaced
from .strategy import StrategyError, run_strategy, vote_from_traces

logger = logging.getLogger(__name__)


class UnknownBaselineError(ValueError):
    """A report baseline that is no run's method."""


@dataclass(frozen=True)
class DatasetSpec:
    """Read from ``path`` as ``DATASETS[name]`` says, or generated from
    ``seed`` when ``path`` is None."""

    name: str
    path: Optional[str] = None
    seed: int = 0


# Readers of a record's gold or choices field: each takes the field's value
# and raises ``ValueError`` on one it cannot read.

def _first_solution(raw) -> str:
    if not raw:
        raise ValueError("empty solution list")
    return str(raw[0])


def _after_hash_marker(raw) -> str:
    _, sep, tail = str(raw).rpartition("####")
    if not sep:
        raise ValueError("missing #### answer marker")
    return tail.strip()


def _best_target(raw) -> str:
    if not isinstance(raw, dict):
        raise ValueError("target_scores must be a mapping")
    if not raw:
        raise ValueError("target_scores is empty")
    top = max(raw.values())
    best = [label for label, score in raw.items() if score == top]
    if len(best) > 1:
        raise ValueError(f"target_scores ties its top score between {best}")
    return str(best[0])


def _label_paren_options(raw) -> tuple:
    """Entries like ``"A)24"`` or ``"(A) 24"``."""
    choices = []
    for entry in raw:
        label, _, text = str(entry).partition(")")
        label = label.strip().strip("(").upper()
        if not label:
            raise ValueError(f"unparseable option {entry!r}")
        choices.append((label, text.strip()))
    return tuple(choices)


def _label_text_pairs(raw) -> tuple:
    return tuple((str(_dig(entry, "label")).upper(), str(_dig(entry, "text"))) for entry in raw)


@dataclass(frozen=True)
class Dataset:
    """One benchmark: its answer format, its documented size and, for a file
    dataset, its default file name and where a record keeps its question
    text (dotted paths, joined by a space), gold and choices. A ``.jsonl``
    file holds one record per line, any other a JSON list of records, or an
    object with an ``examples`` list when ``examples`` is set. A dataset with
    no file is generated."""

    answer_format: AnswerFormat
    expected_count: int
    default_file: Optional[str] = None
    question_fields: tuple = ()
    gold_field: str = ""
    gold: Callable[[Any], str] = str
    choices_field: str = ""
    choices: Optional[Callable[[Any], tuple]] = None
    examples: bool = False


_SOLUTIONS = (("sQuestion",), "lSolutions", _first_solution)  # singleeq, addsub, multiarith
DATASETS: Dict[str, Dataset] = {
    "singleeq": Dataset(AnswerFormat.NUMERIC, 508, "questions.json", *_SOLUTIONS),
    "addsub": Dataset(AnswerFormat.NUMERIC, 395, "AddSub.json", *_SOLUTIONS),
    "multiarith": Dataset(AnswerFormat.NUMERIC, 600, "MultiArith.json", *_SOLUTIONS),
    "gsm8k": Dataset(AnswerFormat.NUMERIC, 1319, "test.jsonl", ("question",), "answer",
                     _after_hash_marker),
    "aqua": Dataset(AnswerFormat.MULTIPLE_CHOICE, 254, "test.jsonl", ("question",), "correct",
                    choices_field="options", choices=_label_paren_options),
    "svamp": Dataset(AnswerFormat.NUMERIC, 1000, "SVAMP.json", ("Body", "Question"), "Answer"),
    "commonsenseqa": Dataset(AnswerFormat.MULTIPLE_CHOICE, 1221, "dev_rand_split.jsonl",
                             ("question.stem",), "answerKey", choices_field="question.choices",
                             choices=_label_text_pairs),
    "strategyqa": Dataset(AnswerFormat.YES_NO, 2290, "task.json", ("input",), "target_scores",
                          _best_target, examples=True),
    "lastletters": Dataset(AnswerFormat.FREE_FORM, 500),
    "coinflip": Dataset(AnswerFormat.YES_NO, 500),
}


def dataset_spec(name: str, path: Optional[str] = None,
                 seed: Optional[int] = None) -> DatasetSpec:
    """Build a spec from the built-in table. A file dataset needs a path and
    takes no seed; a generated one takes a seed (default 0) and no path."""
    key = name.strip().lower()
    if key not in DATASETS:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASETS)}")
    row = DATASETS[key]
    if row.default_file is None:
        if path is not None:
            raise ValueError(f"dataset {key} is generated, not read from a file; "
                             f"drop --data-path {path}")
        return DatasetSpec(key, seed=0 if seed is None else seed)
    if seed is not None:
        raise ValueError(f"dataset {key} is read from a file; --seed {seed} "
                         "selects only a generated dataset")
    if path is None:
        raise FileNotFoundError(f"dataset {key} needs a source file (default name "
                                f"{row.default_file!r}); pass --data-path")
    if os.path.isdir(path):
        path = os.path.join(path, row.default_file)
    return DatasetSpec(key, path=path)


def _dig(record: dict, dotted: str):
    value = record
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            raise ValueError(f"no field {dotted!r}")
        value = value[part]
    return value


def _records_from_file(path: str, row: Dataset, dataset: str) -> List[dict]:
    if not os.path.exists(path):
        raise FileNotFoundError(f"dataset file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        if path.endswith(".jsonl"):
            return [parse_json(line, path, lineno)
                    for lineno, line in enumerate(fh, 1) if line.strip()]
        data = parse_json(fh.read(), path)
    if row.examples:
        if not isinstance(data, dict):
            raise ValueError(f"{dataset}[0]: expected an object with an 'examples' list")
        data = data.get("examples", [])
    if not isinstance(data, list):
        raise ValueError(f"{dataset}[0]: expected a list of records")
    return data


def load_dataset(spec: DatasetSpec) -> List[Question]:
    """Normalize a dataset into Questions, in the format its row of
    ``DATASETS`` gives; warns (not errors) on a count mismatch against it."""
    row = DATASETS[spec.name]
    if spec.path is None:
        questions = generate_synthetic(spec.name, row.expected_count, spec.seed)
    else:
        questions = []
        for index, record in enumerate(_records_from_file(spec.path, row, spec.name)):
            try:
                parts = [str(_dig(record, f)).strip() for f in row.question_fields]
                text = " ".join(p for p in parts if p)
                choices = None
                if row.choices is not None:
                    choices = row.choices(_dig(record, row.choices_field))
                    text += "\nAnswer Choices: " + " ".join(f"({l}) {t}" for l, t in choices)
                raw = _dig(record, row.gold_field)
                gold = canonical_answer(row.gold(raw), row.answer_format)
                if gold.abstain:
                    raise ValueError(f"gold value {raw!r} unparseable as "
                                     f"{row.answer_format.value}")
                questions.append(Question(
                    id=f"{spec.name}-{index}", text=text,
                    answer_format=row.answer_format, gold=gold, choices=choices,
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"{spec.name}[{index}]: {exc}") from exc
    if len(questions) != row.expected_count:
        logger.warning("dataset %s: loaded %d questions, expected %d",
                       spec.name, len(questions), row.expected_count)
    return questions


def _name_pool(filename: str) -> List[str]:
    content = resources.files("breadth").joinpath(f"data/{filename}").read_text("utf-8")
    return [line.strip() for line in content.splitlines() if line.strip()]


def last_letters_gold(words: str) -> str:
    return "".join(w[-1].lower() for w in words.split())


def generate_synthetic(kind: str, n: int, seed: int = 0) -> List[Question]:
    """Seed-deterministic symbolic items: coin-flip parity or last-letter
    concatenation, four names each."""
    if n < 1:
        raise ValueError("n must be >= 1")
    kind = kind.strip().lower()
    rng = random.Random(seed)
    first_names = _name_pool("names.txt")
    surnames = _name_pool("surnames.txt")
    questions = []
    if kind == "coinflip":
        for i in range(n):
            people = rng.sample(first_names, 4)
            flips = [rng.random() < 0.5 for _ in people]
            sentences = ["A coin is heads up."]
            for person, flipped in zip(people, flips):
                verb = "flips" if flipped else "does not flip"
                sentences.append(f"{person} {verb} the coin.")
            sentences.append('Is the coin still heads up? Note that "flip" here '
                             'means "reverse".')
            gold = "yes" if sum(flips) % 2 == 0 else "no"
            questions.append(Question(
                id=f"coinflip-{i}", text=" ".join(sentences),
                answer_format=AnswerFormat.YES_NO,
                gold=Answer(AnswerFormat.YES_NO, gold),
            ))
    elif kind == "lastletters":
        for i in range(n):
            words = " ".join([
                rng.choice(first_names), rng.choice(surnames),
                rng.choice(first_names), rng.choice(surnames),
            ])
            text = (f'Take the last letters of each word in "{words}" '
                    "and concatenate them.")
            questions.append(Question(
                id=f"lastletters-{i}", text=text,
                answer_format=AnswerFormat.FREE_FORM,
                gold=Answer(AnswerFormat.FREE_FORM, last_letters_gold(words)),
            ))
    else:
        raise ValueError(f"unknown generator kind {kind!r}")
    return questions


@dataclass(frozen=True)
class QuestionOutcome(Record):
    question_id: str
    final: Answer
    correct: bool
    rounds: int = 1
    trace_count: int = 0
    error: Optional[str] = None


@dataclass(frozen=True)
class RunRecord(Record):
    """One experiment run: config snapshot, per-question outcomes, totals."""

    run_id: str
    dataset: str
    config: dict
    outcomes: tuple
    accuracy: float
    usage: Usage
    wall_time_s: float
    partial: bool = False

    @classmethod
    def from_dict(cls, d: dict) -> "RunRecord":
        kwargs = check_json_fields(cls, d)
        kwargs["outcomes"] = tuple(QuestionOutcome.from_dict(o) for o in kwargs["outcomes"])
        return cls(**kwargs)


# One outcome in ``summary.json``, as ``json.dumps(..., sort_keys=True,
# indent=2)`` writes it in the top-level outcomes list. The second slot is
# the ``error`` line, empty when the question did not fail.
_OUTCOME_BLOCK = ('    {\n      "correct": %s,\n%s      "final": {\n        "abstain": %s,\n'
                  '        "kind": %s,\n        "value": %s\n      },\n'
                  '      "question_id": %s,\n      "rounds": %d,\n      "trace_count": %d\n    }')


def summary_json(record: RunRecord) -> str:
    """``json.dumps(record.to_dict(), sort_keys=True, indent=2)`` and a
    newline, with the outcomes written from ``_OUTCOME_BLOCK`` into the one
    ``"outcomes"`` key at two spaces' indent."""
    text = json.dumps(replace(record, outcomes=()).to_dict(), sort_keys=True, indent=2) + "\n"
    if not record.outcomes:
        return text
    blocks = ",\n".join([_OUTCOME_BLOCK % (
        "true" if o.correct else "false",
        "" if o.error is None else '      "error": %s,\n' % json_string(o.error),
        "true" if o.final.abstain else "false", json_string(o.final.kind),
        json_string(o.final.value), json_string(o.question_id), o.rounds, o.trace_count)
        for o in record.outcomes])
    return text.replace('\n  "outcomes": [],', '\n  "outcomes": [\n%s\n  ],' % blocks, 1)


# The config keys a resume may change: a larger ``limit`` extends a run, and
# a run may be replayed from its own cache.
_RESUMABLE_KEYS = ("limit", "backend_mode")


def _check_run_config(run_dir: str, run_id: str, config: dict) -> Optional[str]:
    """The text of ``config.json`` to write in ``run_dir`` for a run under
    ``config``, or None when the file already holds it. If the file is there,
    first raise a ``ValueError`` naming every key, other than
    ``_RESUMABLE_KEYS``, whose value differs from ``config``: traces made
    under another config are never resumed. Nor is a ``traces.jsonl`` with
    no ``config.json`` beside it, whose config is unknown."""
    path, traces = (os.path.join(run_dir, name) for name in ("config.json", "traces.jsonl"))
    text = json.dumps(config, sort_keys=True, indent=2) + "\n"
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            stored_text = fh.read()
        stored = parse_json(stored_text, path)
        if not isinstance(stored, dict):
            raise ValueError(f"{path}: expected a JSON object, got {stored!r:.80}")
        ours = json.loads(text)
        changed = sorted(key for key in stored.keys() | ours.keys()
                         if key not in _RESUMABLE_KEYS and stored.get(key) != ours.get(key))
        if changed:
            raise ValueError(f"run {run_id} was made under another config ({path}): "
                             f"{', '.join(changed)} differ; resume it with its own "
                             "config, or start a new run id")
        if stored_text == text:
            return None
    elif os.path.exists(traces) and os.path.getsize(traces):
        raise ValueError(f"run {run_id} has traces but no config.json ({path}), so "
                         "their config is unknown; start a new run id")
    return text


def run_experiment(dataset_name: str, questions: Sequence[Question],
                   cfg: StrategyConfig, backend: Backend | Callable[[], Backend],
                   max_total_tokens: Optional[int] = None,
                   runs_dir: str = "runs", run_id: Optional[str] = None,
                   run_keys: Optional[dict] = None) -> RunRecord:
    """Execute a strategy over every question, persisting traces as it goes.

    The run's config, in ``config.json`` and ``summary.json``, is the
    caller's provenance ``run_keys`` (model, dataset, ...) and ``cfg``.
    ``backend`` is a built ``Backend`` or a function that opens one.

    Completed questions found in an existing trace store are skipped, so
    interrupted runs resume; a run with no ``run_id`` is a new one, in a
    directory it makes once its backend is open. A run id whose traces
    another log holds is an ``OSError``, and a resume under another config
    a ``ValueError`` (see :func:`_check_run_config`), each before the
    backend opens; the log stays locked to the end of the run. Reaching
    ``max_total_tokens`` stops the run gracefully with the record flagged
    partial; single-question failures are recorded and skipped, never fatal.

    Under a non-deterministic backend up to ``MAX_IN_FLIGHT`` questions run
    at once on worker threads; a deterministic one runs each inline when it
    is written, one at a time. Either way each question's traces, outcome
    and usage are written in question order, and the budget is checked
    before each question starts, against the questions written so far, so a
    run may overshoot it by the cost of the questions in flight.
    """
    if run_id is None:  # suffixed when another run took this second's id
        backend = backend if isinstance(backend, Backend) else backend()
        stem = f"{dataset_name}-{cfg.kind.value}-{int(time.time())}"
        for run_id in itertools.chain([stem], (f"{stem}-{i}" for i in itertools.count(1))):
            with suppress(FileExistsError):
                os.makedirs(os.path.join(runs_dir, run_id))
                break
    run_dir = os.path.join(runs_dir, run_id)
    os.makedirs(run_dir, exist_ok=True)
    trace_log = AppendLog(os.path.join(run_dir, "traces.jsonl"))
    config = {**(run_keys or {}), **cfg.to_dict()}
    outcomes: List[QuestionOutcome] = []
    total_usage = Usage()
    partial = False
    # Started questions not yet written, oldest first, each with a callable
    # that returns its traces (running it, or waiting for it).
    window: Deque[tuple] = deque()

    def add_outcome(q: Question, traces: Sequence[ReasoningTrace]):
        """The question's outcome and usage, from its traces alone, whether
        it ran now or was resumed."""
        nonlocal total_usage
        final = vote_from_traces(traces).winner
        outcomes.append(QuestionOutcome(q.id, final, final == q.gold,
                                        max([t.round for t in traces]), len(traces)))
        prompt, completion = total_usage.prompt_tokens, total_usage.completion_tokens
        for trace in traces:
            prompt += trace.usage.prompt_tokens
            completion += trace.usage.completion_tokens
        total_usage = Usage(prompt, completion)

    def write_oldest():
        q, result = window.popleft()
        try:
            traces = result()
        except StrategyError as exc:
            logger.error("run %s: %s", run_id, exc)
            outcomes.append(QuestionOutcome(
                question_id=q.id, final=Answer.abstained(q.answer_format),
                correct=False, rounds=0, trace_count=0, error=str(exc),
            ))
            return
        trace_log.append("".join([trace.json_line() for trace in traces]).encode("utf-8"))
        add_outcome(q, traces)

    # Entering the log creates and locks traces.jsonl before it is read, the
    # backend opened or config.json written, so a second writer of this run
    # id changes nothing, and a run that writes no trace still leaves one;
    # leaving it closes it. An idle pool starts no thread.
    with trace_log, ThreadPoolExecutor(MAX_IN_FLIGHT,
                                       thread_name_prefix="breadth-question") as pool:
        existing: Dict[str, List[ReasoningTrace]] = {}  # traces by question id
        for trace in read_json_lines(trace_log.path, keep=ReasoningTrace.from_dict):
            existing.setdefault(trace.question_id, []).append(trace)
        config_text = _check_run_config(run_dir, run_id, config)
        backend = backend if isinstance(backend, Backend) else backend()
        if config_text is not None:
            with replaced(os.path.join(run_dir, "config.json")) as fh:
                fh.write(config_text)
        # A deterministic backend answers in-process, so nothing overlaps, and
        # a scripted one answers in call order: its window holds one question.
        depth = 1 if backend.deterministic else MAX_IN_FLIGHT
        started = time.monotonic()
        for q in questions:
            if q.id in existing:
                while window:
                    write_oldest()
                add_outcome(q, existing[q.id])
                continue
            if len(window) == depth:
                write_oldest()
            if max_total_tokens is not None and total_usage.total_tokens >= max_total_tokens:
                logger.warning("run %s: token budget %d exhausted, stopping early",
                               run_id, max_total_tokens)
                partial = True
                break
            task = (run_strategy, q, cfg, backend)
            window.append((q, functools.partial(*task) if backend.deterministic else
                           pool.submit(*task).result))
        while window:
            write_oldest()

    wall = 0.0 if backend.deterministic else round(time.monotonic() - started, 3)
    accuracy = sum(1 for o in outcomes if o.correct) / len(outcomes) if outcomes else 0.0
    record = RunRecord(
        run_id=run_id, dataset=dataset_name,
        config=config,
        outcomes=tuple(outcomes), accuracy=accuracy,
        usage=total_usage, wall_time_s=wall, partial=partial,
    )
    with replaced(os.path.join(run_dir, "summary.json")) as fh:
        fh.write(summary_json(record))
    return record


def load_run_record(run_dir: str) -> RunRecord:
    path = os.path.join(run_dir, "summary.json")
    if not os.path.exists(path):
        raise FileNotFoundError(f"no summary at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        data = parse_json(fh.read(), path)
    try:
        return RunRecord.from_dict(data)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def pilot_subset(cot_record: RunRecord, deep_record: RunRecord) -> List[str]:
    """Question ids the plain CoT run got wrong but the deep run got right."""
    cot = {o.question_id: o for o in cot_record.outcomes}
    deep = {o.question_id: o for o in deep_record.outcomes}
    if cot.keys() != deep.keys():
        raise ValueError(
            "runs cover different questions: only the CoT run has "
            f"{sorted(cot.keys() - deep.keys())}; only the deep run has "
            f"{sorted(deep.keys() - cot.keys())}")
    return [qid for qid in cot if not cot[qid].correct and deep[qid].correct]


# The shape knobs a report label names, each as the word that prefixes its value.
_SHAPE_WORDS = (("n_reformulations", "n="), ("m_samples", "m="), ("max_iterations", "T="))


def _method_label(record: RunRecord) -> str:
    """The run's kind and the shape its config records, as far as the kind
    reads it: ``n=``, ``m=`` and ``T=``, ``stable`` for a stable-stop chain,
    and ``t=`` for a temperature other than the kind's default by value; for
    example ``sc m=3`` or ``questionc_sc n=3 m=3``."""
    config = record.config
    kind = str(config.get("kind", "unknown"))
    try:
        knobs = KIND_KNOBS[StrategyKind(kind)]
    except ValueError:
        return kind
    words = [kind] + [f"{word}{config[knob]}" for knob, word in _SHAPE_WORDS
                      if knob in knobs and knob in config]
    if "stop_rule" in knobs and config.get("stop_rule") == StopRule.STABLE_STOP.value:
        words.append("stable")
    temperature = config.get("temperature", knobs["temperature"])
    if temperature != knobs["temperature"]:
        words.append(f"t={float(temperature)!r}")
    return " ".join(words)


def emit_report(records: Sequence[RunRecord], fmt: str = "table",
                baselines: Sequence[str] = ()) -> str:
    """Methods as rows, datasets plus overall average as columns.

    With ``baselines``, each non-baseline method row is followed by one
    parenthesized signed-diff row per baseline, Table-style. A baseline that
    is no run's method raises :class:`UnknownBaselineError`; two runs of one
    method on one dataset, which would share a cell, raise a ``ValueError``.
    """
    methods = list(dict.fromkeys(_method_label(r) for r in records))
    unknown = [b for b in baselines if b not in methods]
    if unknown:
        raise UnknownBaselineError(f"no run has method {', '.join(unknown)}; "
                                   f"the runs have {', '.join(methods)}")
    if fmt == "json":
        return json.dumps({"records": [r.to_dict() for r in records]},
                          sort_keys=True, indent=2) + "\n"
    datasets = list(dict.fromkeys(r.dataset for r in records))
    cells: Dict[str, Dict[str, RunRecord]] = {}  # method -> dataset -> run
    for record in records:
        method = _method_label(record)
        other = cells.setdefault(method, {}).setdefault(record.dataset, record)
        if other is not record:
            raise ValueError(f"runs {other.run_id} and {record.run_id} both give method "
                             f"{method} on dataset {record.dataset}; report one of them")

    def row_values(method: str) -> List[Optional[float]]:
        values = [cells[method][d].accuracy * 100.0 if d in cells[method] else None
                  for d in datasets]
        present = [v for v in values if v is not None]
        avg = sum(present) / len(present) if present else None
        return values + [avg]

    header = ["method"] + datasets + ["avg"]
    rows: List[List[str]] = []
    for method in methods:
        values = row_values(method)
        rows.append([method] + [f"{v:.1f}" if v is not None else "-" for v in values])
        for baseline in baselines:
            if method == baseline:
                continue
            base_values = row_values(baseline)
            delta_cells = []
            for value, base in zip(values, base_values):
                if value is None or base is None:
                    delta_cells.append("-")
                else:
                    delta_cells.append(f"({value - base:+.1f})")
            rows.append([f"  vs {baseline}"] + delta_cells)

    if fmt == "csv":
        lines = [",".join(header)] + [",".join(r) for r in rows]
        return "\n".join(lines) + "\n"
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
              for i in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(lines) + "\n"
