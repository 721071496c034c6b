"""Benchmark ingestion, synthetic generators, the experiment runner, pilot
subset filtering, and report emission.

Upstream dataset schemas vary, so each loader is a small data-driven field
map in ``ADAPTERS``. Runs persist every trace to
``runs/<run_id>/traces.jsonl`` plus a ``summary.json`` whose outcomes are
derived from those traces alone, are resumable (completed questions are
skipped on restart), and are byte-reproducible under a deterministic
backend.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import random
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext, suppress
from dataclasses import dataclass
from importlib import resources
from typing import Deque, Dict, List, Optional, Sequence

from .core import (
    Answer,
    AnswerFormat,
    Question,
    ReasoningTrace,
    Record,
    StrategyConfig,
    Usage,
    canonical_answer,
    check_json_fields,
    parse_json,
)
from .llmio import MAX_IN_FLIGHT, Backend, read_json_lines, repair_tail
from .strategy import StrategyError, run_strategy, vote_from_traces

logger = logging.getLogger(__name__)


class MissingFileError(FileNotFoundError):
    pass


class SchemaError(ValueError):
    """A dataset record did not match its adapter's field map."""

    def __init__(self, dataset: str, index: int, message: str):
        super().__init__(f"{dataset}[{index}]: {message}")
        self.index = index


class MismatchedQuestionSetsError(ValueError):
    pass


@dataclass(frozen=True)
class DatasetSpec:
    """Read from ``path`` with ``ADAPTERS[name]``, or generated from ``seed``
    when ``path`` is None."""

    name: str
    answer_format: AnswerFormat
    expected_count: int
    path: Optional[str] = None
    seed: int = 0


@dataclass(frozen=True)
class FieldMap:
    """Where to find the question text, gold answer, and choices in a record."""

    container: str  # json_list | jsonl | json_examples
    question_fields: tuple
    gold_field: str
    gold_kind: str  # number | number_list | gsm8k_hash | label | target_scores
    choices_field: str = ""
    choices_layout: str = ""  # label_paren_text | label_text_pairs


ADAPTERS: Dict[str, FieldMap] = {
    "singleeq": FieldMap("json_list", ("sQuestion",), "lSolutions", "number_list"),
    "addsub": FieldMap("json_list", ("sQuestion",), "lSolutions", "number_list"),
    "multiarith": FieldMap("json_list", ("sQuestion",), "lSolutions", "number_list"),
    "gsm8k": FieldMap("jsonl", ("question",), "answer", "gsm8k_hash"),
    "aqua": FieldMap("jsonl", ("question",), "correct", "label",
                     choices_field="options", choices_layout="label_paren_text"),
    "svamp": FieldMap("json_list", ("Body", "Question"), "Answer", "number"),
    "commonsenseqa": FieldMap("jsonl", ("question.stem",), "answerKey", "label",
                              choices_field="question.choices",
                              choices_layout="label_text_pairs"),
    "strategyqa": FieldMap("json_examples", ("input",), "target_scores", "target_scores"),
}

# name -> (answer format, expected count, default filename or generator kind)
DATASET_TABLE: Dict[str, tuple] = {
    "singleeq": (AnswerFormat.NUMERIC, 508, "questions.json"),
    "addsub": (AnswerFormat.NUMERIC, 395, "AddSub.json"),
    "multiarith": (AnswerFormat.NUMERIC, 600, "MultiArith.json"),
    "gsm8k": (AnswerFormat.NUMERIC, 1319, "test.jsonl"),
    "aqua": (AnswerFormat.MULTIPLE_CHOICE, 254, "test.jsonl"),
    "svamp": (AnswerFormat.NUMERIC, 1000, "SVAMP.json"),
    "commonsenseqa": (AnswerFormat.MULTIPLE_CHOICE, 1221, "dev_rand_split.jsonl"),
    "strategyqa": (AnswerFormat.YES_NO, 2290, "task.json"),
    "lastletters": (AnswerFormat.FREE_FORM, 500, "generator"),
    "coinflip": (AnswerFormat.YES_NO, 500, "generator"),
}

def dataset_spec(name: str, path: Optional[str] = None,
                 seed: Optional[int] = None) -> DatasetSpec:
    """Build a spec from the built-in table. A file dataset needs a path and
    takes no seed; a generated one takes a seed (default 0) and no path."""
    key = name.strip().lower()
    if key not in DATASET_TABLE:
        raise KeyError(f"unknown dataset {name!r}; known: {sorted(DATASET_TABLE)}")
    fmt, expected, default_file = DATASET_TABLE[key]
    if key not in ADAPTERS:
        if path is not None:
            raise ValueError(f"dataset {key} is generated, not read from a file; "
                             f"drop --data-path {path}")
        return DatasetSpec(key, fmt, expected, seed=0 if seed is None else seed)
    if seed is not None:
        raise ValueError(f"dataset {key} is read from a file; --seed {seed} "
                         "selects only a generated dataset")
    if path is None:
        raise MissingFileError(f"dataset {key} needs a source file (default name "
                               f"{default_file!r}); pass --data-path")
    if os.path.isdir(path):
        path = os.path.join(path, default_file)
    return DatasetSpec(key, fmt, expected, path=path)


def _dig(record: dict, dotted: str):
    value = record
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            raise KeyError(dotted)
        value = value[part]
    return value


def _parse_choices(record: dict, fmap: FieldMap, dataset: str, index: int) -> tuple:
    raw = _dig(record, fmap.choices_field)
    choices = []
    if fmap.choices_layout == "label_paren_text":
        # entries like "A)24" or "A) 24"
        for entry in raw:
            label, _, text = str(entry).partition(")")
            label = label.strip().strip("(").upper()
            if not label:
                raise SchemaError(dataset, index, f"unparseable option {entry!r}")
            choices.append((label, text.strip()))
    elif fmap.choices_layout == "label_text_pairs":
        for entry in raw:
            choices.append((str(entry["label"]).upper(), str(entry["text"])))
    else:
        raise SchemaError(dataset, index, f"unknown choices layout {fmap.choices_layout!r}")
    return tuple(choices)


def _format_choices_block(choices: Sequence[tuple]) -> str:
    rendered = " ".join(f"({label}) {text}" for label, text in choices)
    return f"Answer Choices: {rendered}"


def _parse_gold(record: dict, fmap: FieldMap, fmt: AnswerFormat,
                dataset: str, index: int) -> Answer:
    raw = _dig(record, fmap.gold_field)
    if fmap.gold_kind == "number":
        gold = canonical_answer(str(raw), AnswerFormat.NUMERIC)
    elif fmap.gold_kind == "number_list":
        if not raw:
            raise SchemaError(dataset, index, "empty solution list")
        gold = canonical_answer(str(raw[0]), AnswerFormat.NUMERIC)
    elif fmap.gold_kind == "gsm8k_hash":
        _, sep, tail = str(raw).rpartition("####")
        if not sep:
            raise SchemaError(dataset, index, "missing #### answer marker")
        gold = canonical_answer(tail.strip(), AnswerFormat.NUMERIC)
    elif fmap.gold_kind == "label":
        gold = canonical_answer(str(raw), AnswerFormat.MULTIPLE_CHOICE)
    elif fmap.gold_kind == "target_scores":
        if not isinstance(raw, dict):
            raise SchemaError(dataset, index, "target_scores must be a mapping")
        best = max(raw.items(), key=lambda kv: kv[1])[0]
        gold = canonical_answer(str(best), AnswerFormat.YES_NO)
    else:
        raise SchemaError(dataset, index, f"unknown gold kind {fmap.gold_kind!r}")
    if gold.abstain:
        raise SchemaError(dataset, index, f"gold value {raw!r} unparseable as {fmt.value}")
    return gold


def _records_from_file(path: str, fmap: FieldMap, dataset: str) -> List[dict]:
    if not os.path.exists(path):
        raise MissingFileError(f"dataset file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        if fmap.container == "jsonl":
            return [parse_json(line, path, lineno)
                    for lineno, line in enumerate(fh, 1) if line.strip()]
        data = parse_json(fh.read(), path)
    if fmap.container == "json_examples":
        if not isinstance(data, dict):
            raise SchemaError(dataset, 0, "expected an object with an 'examples' list")
        data = data.get("examples", [])
    if not isinstance(data, list):
        raise SchemaError(dataset, 0, "expected a list of records")
    return data


def load_dataset(spec: DatasetSpec) -> List[Question]:
    """Normalize a dataset into Questions; warns (not errors) on a count
    mismatch against the built-in table."""
    if spec.path is None:
        questions = generate_synthetic(spec.name, spec.expected_count, spec.seed)
    else:
        fmap = ADAPTERS[spec.name]
        records = _records_from_file(spec.path, fmap, spec.name)
        questions = []
        for index, record in enumerate(records):
            try:
                parts = [str(_dig(record, f)).strip() for f in fmap.question_fields]
                text = " ".join(p for p in parts if p)
                choices = None
                if fmap.choices_field:
                    choices = _parse_choices(record, fmap, spec.name, index)
                    text = f"{text}\n{_format_choices_block(choices)}"
                gold = _parse_gold(record, fmap, spec.answer_format, spec.name, index)
                questions.append(Question(
                    id=f"{spec.name}-{index}", text=text,
                    answer_format=spec.answer_format, gold=gold, choices=choices,
                ))
            except SchemaError:
                raise
            except (KeyError, TypeError, ValueError) as exc:
                raise SchemaError(spec.name, index, str(exc)) from exc
    if len(questions) != spec.expected_count:
        logger.warning("dataset %s: loaded %d questions, expected %d",
                       spec.name, len(questions), spec.expected_count)
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


def _run_dir(runs_dir: str, run_id: str) -> str:
    path = os.path.join(runs_dir, run_id)
    os.makedirs(path, exist_ok=True)
    return path


# The config keys a resume may change: a larger ``limit`` extends a run, and
# a run may be replayed from its own cache.
_RESUMABLE_KEYS = ("limit", "backend_mode")


def _claim_run_config(run_dir: str, run_id: str, config: dict, resuming: bool):
    """Write the run's config to ``config.json`` in ``run_dir``. If the file
    is already there, first raise a ``ValueError`` naming every key, other
    than ``_RESUMABLE_KEYS``, whose value differs from ``config``: traces
    made under another config are never resumed. A run directory with
    traces but no ``config.json`` resumes unchecked, with a warning."""
    path = os.path.join(run_dir, "config.json")
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
            return
    elif resuming:
        logger.warning("run %s: %s has traces but no config.json; resuming them "
                       "without checking their config", run_id, run_dir)
    with _replaced(path) as fh:
        fh.write(text)


@contextmanager
def _replaced(path: str):
    """A text file to write in place of ``path``: written to a temporary
    file, which ``os.replace`` moves over ``path`` once the block ends, so
    that a crash leaves the old file or the new one, never a torn one."""
    temp = f"{path}.{os.getpid()}.{threading.get_ident()}.tmp"
    try:
        with open(temp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(temp, path)
    except BaseException:
        with suppress(OSError):
            os.remove(temp)
        raise


def _load_existing_traces(traces_path: str) -> tuple:
    """Traces by question id, and the repair the file's tail needs before the
    next append (see :func:`read_json_lines`)."""
    traces, repair = read_json_lines(traces_path, keep=ReasoningTrace.from_dict)
    by_question: Dict[str, List[ReasoningTrace]] = {}
    for trace in traces:
        by_question.setdefault(trace.question_id, []).append(trace)
    return by_question, repair


def run_experiment(dataset_name: str, questions: Sequence[Question],
                   cfg: StrategyConfig, backend: Backend,
                   max_total_tokens: Optional[int] = None,
                   runs_dir: str = "runs", run_id: Optional[str] = None,
                   triggers: Optional[dict] = None,
                   effective_config: Optional[dict] = None) -> RunRecord:
    """Execute a strategy over every question, persisting traces as it goes.

    Completed questions found in an existing trace store are skipped, so
    interrupted runs resume; a resume under another config is a
    ``ValueError`` before any call (see :func:`_claim_run_config`). Reaching
    ``max_total_tokens`` stops the run gracefully with the record flagged
    partial; single-question failures are recorded and skipped, never fatal.

    Under a non-deterministic backend up to ``MAX_IN_FLIGHT`` questions run
    at once on worker threads; a deterministic one runs them inline, one at
    a time. Either way each question's traces, outcome and usage are written
    in question order, and the budget is checked before each question
    starts, against the questions written so far, so a run may overshoot it
    by the cost of the questions in flight.
    """
    if run_id is None:
        run_id = f"{dataset_name}-{cfg.kind.value}-{int(time.time())}"
    run_dir = _run_dir(runs_dir, run_id)
    traces_path = os.path.join(run_dir, "traces.jsonl")
    existing, repair = _load_existing_traces(traces_path)
    config = dict(effective_config or cfg.to_dict())
    _claim_run_config(run_dir, run_id, config, resuming=bool(existing))

    started = time.monotonic()
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
        outcomes.append(QuestionOutcome(
            question_id=q.id, final=final,
            correct=(not final.abstain) and final == q.gold,
            rounds=max(t.round for t in traces), trace_count=len(traces),
        ))
        prompt, completion = total_usage.prompt_tokens, total_usage.completion_tokens
        for trace in traces:
            prompt += trace.usage.prompt_tokens
            completion += trace.usage.completion_tokens
        total_usage = Usage(prompt, completion)

    def write_oldest():
        nonlocal repair
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
        lines = "".join(trace.json_line() for trace in traces)
        if repair is not None:
            lines, repair = repair_tail(traces_path, repair) + lines, None
        trace_file.write(lines)
        trace_file.flush()
        add_outcome(q, traces)

    # Deterministic backends answer in-process, so there is nothing to
    # overlap; scripted ones also hand out their responses in call order.
    workers = (nullcontext() if backend.deterministic else
               ThreadPoolExecutor(MAX_IN_FLIGHT, thread_name_prefix="breadth-question"))
    with open(traces_path, "a", encoding="utf-8") as trace_file, workers as pool:
        for q in questions:
            if q.id in existing:
                while window:
                    write_oldest()
                add_outcome(q, existing[q.id])
                continue
            if len(window) == MAX_IN_FLIGHT:
                write_oldest()
            if max_total_tokens is not None and total_usage.total_tokens >= max_total_tokens:
                logger.warning("run %s: token budget %d exhausted, stopping early",
                               run_id, max_total_tokens)
                partial = True
                break
            task = (run_strategy, q, cfg, backend, triggers)
            if pool is None:
                window.append((q, functools.partial(*task)))
                write_oldest()
            else:
                window.append((q, pool.submit(*task).result))
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
    with _replaced(os.path.join(run_dir, "summary.json")) as fh:
        json.dump(record.to_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return record


def load_run_record(runs_dir: str, run_id: str) -> RunRecord:
    path = os.path.join(runs_dir, run_id, "summary.json")
    if not os.path.exists(path):
        raise MissingFileError(f"no summary at {path}")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return RunRecord.from_dict(json.load(fh))
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc


def pilot_subset(cot_record: RunRecord, deep_record: RunRecord) -> List[str]:
    """Question ids the plain CoT run got wrong but the deep run got right."""
    cot = {o.question_id: o for o in cot_record.outcomes}
    deep = {o.question_id: o for o in deep_record.outcomes}
    if set(cot) != set(deep):
        raise MismatchedQuestionSetsError(
            f"runs cover different questions: {len(cot)} vs {len(deep)}")
    return [qid for qid in cot if not cot[qid].correct and deep[qid].correct]


def _method_label(record: RunRecord) -> str:
    return str(record.config.get("kind", "unknown"))


def emit_report(records: Sequence[RunRecord], fmt: str = "table",
                baselines: Sequence[str] = ()) -> str:
    """Methods as rows, datasets plus overall average as columns.

    With ``baselines``, each non-baseline method row is followed by one
    parenthesized signed-diff row per baseline, Table-style.
    """
    if fmt == "json":
        return json.dumps({"records": [r.to_dict() for r in records]},
                          sort_keys=True, indent=2) + "\n"
    datasets: List[str] = []
    methods: List[str] = []
    cells: Dict[str, Dict[str, float]] = {}
    for record in records:
        method = _method_label(record)
        if record.dataset not in datasets:
            datasets.append(record.dataset)
        if method not in methods:
            methods.append(method)
        cells.setdefault(method, {})[record.dataset] = record.accuracy * 100.0

    def row_values(method: str) -> List[Optional[float]]:
        values = [cells[method].get(d) for d in datasets]
        present = [v for v in values if v is not None]
        avg = sum(present) / len(present) if present else None
        return values + [avg]

    header = ["method"] + datasets + ["avg"]
    rows: List[List[str]] = []
    for method in methods:
        values = row_values(method)
        rows.append([method] + [f"{v:.1f}" if v is not None else "-" for v in values])
        for baseline in baselines:
            if baseline not in cells or method == baseline:
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
