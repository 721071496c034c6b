"""Command-line entry point wiring all modules together.

Exit codes: 0 success, 1 usage error, 2 runtime error. Backend selection is
shared across subcommands: ``--replay`` serves recorded responses only,
``--record`` wraps the live client in a read-through cache, ``--mock-script``
loads a scripted backend, and plain live mode needs ``BREADTH_API_KEY``.
"""

from __future__ import annotations

import argparse
import hashlib
import logging
import os
import sys
from typing import Callable, List, Optional, Sequence

from . import bench, diversity, votemodel
from .core import (
    Question,
    StrategyConfig,
    StrategyKind,
    canonical_json,
    default_config,
    parse_json,
)
from .llmio import (
    API_KEY_ENV,
    DEFAULT_MODEL,
    Backend,
    LiveBackend,
    LlmIoError,
    RecordingBackend,
    ReplayBackend,
    ScriptedBackend,
)
from .reformulate import ReformulationSpec, ReformulationTarget, reformulate
from .store import ReplayStore, check_servable, read_json_lines, replaced
from .strategy import plan_calls

logger = logging.getLogger(__name__)

DEFAULT_BASE_URL = "https://api.openai.com/v1"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; remap through UsageError so main can
    # return 1 for usage problems and keep 2 for runtime failures.
    def error(self, message):
        raise UsageError(message)


def _add_backend_flags(parser: argparse.ArgumentParser):
    group = parser.add_argument_group("backend")
    group.add_argument("--base-url", default=DEFAULT_BASE_URL,
                       help="chat-completions endpoint base URL")
    group.add_argument("--model", default=DEFAULT_MODEL, help="model identifier")
    group.add_argument("--replay", metavar="FILE",
                       help="serve all calls from this recorded cache")
    group.add_argument("--record", metavar="FILE",
                       help="run live but record every call into this cache")
    group.add_argument("--mock-script", metavar="FILE",
                       help="scripted backend rules (JSON) instead of live calls")


def _backend_mode(args) -> str:
    """The one backend flag given: ``replay``, ``record`` or ``mock``; else ``live``."""
    modes = [mode for mode, flag in (("replay", args.replay), ("record", args.record),
                                     ("mock", args.mock_script)) if flag]
    if len(modes) > 1:
        raise UsageError("choose one of --replay, --record, --mock-script")
    return modes[0] if modes else "live"


def _build_backend(args) -> Callable[[], Backend]:
    """Check every backend flag; return a function that opens the backend."""
    mode = _backend_mode(args)
    if mode == "replay":
        # A store opened on a missing file is empty, and would fail every call.
        if not os.path.isfile(args.replay):
            raise RuntimeError(f"--replay: no cache file at {args.replay}")
        return lambda: ReplayBackend(ReplayStore(args.replay), model=args.model)
    if mode == "mock":
        with open(args.mock_script, "r", encoding="utf-8") as fh:
            script = parse_json(fh.read(), f"--mock-script {args.mock_script}")
        try:
            scripted = ScriptedBackend(script, model=args.model)
        except ValueError as exc:
            raise ValueError(f"--mock-script {args.mock_script}: {exc}") from None
        return lambda: scripted
    if not os.environ.get(API_KEY_ENV):
        raise RuntimeError(
            f"live mode needs the {API_KEY_ENV} environment variable; set it, "
            "or pass --replay/--mock-script for an offline backend")
    live = LiveBackend(args.base_url, model=args.model)
    if mode == "record":
        # Locked before it is read and before any call: a second writer exits 2.
        return lambda: RecordingBackend(live, ReplayStore(args.record, record=True))
    return lambda: live


def _load_config_file(path: Optional[str]) -> dict:
    if not path:
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        config = parse_json(fh.read(), f"--config {path}")
    if not isinstance(config, dict):
        raise ValueError(f"--config {path}: expected a JSON object, got {config!r:.80}")
    return config


def _strategy_config(args, file_config: dict) -> StrategyConfig:
    """CLI flags beat the config file, which beats the kind's defaults."""
    flags = {"kind": args.strategy, "n_reformulations": args.n, "m_samples": args.m,
             "max_iterations": args.max_iter, "stop_rule": args.stop,
             "temperature": args.temperature}
    values = {**file_config, **{k: v for k, v in flags.items() if v is not None}}
    if not values.get("kind"):
        raise UsageError("--strategy is required (or 'kind' in --config)")
    defaults = default_config(StrategyKind.parse(str(values["kind"]))).to_dict()
    return StrategyConfig.from_dict({**defaults, **values})


def _cmd_run(args) -> int:
    if args.limit is not None and args.limit < 1:
        raise UsageError("--limit must be at least 1")
    if args.token_budget is not None and args.token_budget < 1:
        raise UsageError("--token-budget must be at least 1")
    cfg = _strategy_config(args, _load_config_file(args.config))
    spec = bench.dataset_spec(args.dataset, path=args.data_path, seed=args.seed)
    questions = bench.load_dataset(spec)[: args.limit]
    if not questions:
        raise RuntimeError(f"dataset {args.dataset} produced no questions")
    if args.dry_run:
        requests, paths = plan_calls(questions[0], cfg)
        print(f"{len(requests)} planned calls over {paths} paths "
              f"for question {questions[0].id}:")
        for k, req in enumerate(requests, 1):
            print(f"--- call {k}: n_samples={req.n_samples} temperature={req.temperature}")
            print(req.user_text)
        return 0
    run_keys = {
        "model": args.model,
        "backend_mode": _backend_mode(args),
        "dataset": args.dataset,
        # Questions keep their ids across seeds and files, so a resume under
        # another seed or file would score old traces against new golds. The
        # path is absolute, so one file matches however it is named, and a
        # relative name resumed from another directory does not.
        "seed": spec.seed,
        "data_path": os.path.abspath(spec.path) if spec.path else None,
        "limit": args.limit,
    }
    record = bench.run_experiment(
        args.dataset, questions, cfg, _build_backend(args),
        max_total_tokens=args.token_budget, runs_dir=args.runs_dir, run_id=args.run_id,
        run_keys=run_keys,
    )
    print(f"run {record.run_id}: accuracy {record.accuracy:.3f} over "
          f"{len(record.outcomes)} questions"
          + (" (partial)" if record.partial else ""))
    print(os.path.join(args.runs_dir, record.run_id, "summary.json"))
    return 0


def _cmd_reformulate(args) -> int:
    text = args.text
    if text is None:
        text = sys.stdin.read().strip()
    if not text:
        raise UsageError("no text given (use --text or pipe via stdin)")
    spec = ReformulationSpec(
        target=ReformulationTarget(args.target),
        n_variants=args.n,
        include_original=args.include_original,
    )
    for variant in reformulate(text, spec, _build_backend(args)()):
        print(variant.replace("\n", " "))
    return 0


def _load_subset(path: str) -> List[Question]:
    where = f"--subset {path}"
    with open(path, "r", encoding="utf-8") as fh:
        records = [parse_json(line, where, lineno)
                   for lineno, line in enumerate(fh, 1) if line.strip()]
    try:
        return [Question.from_dict(record) for record in records]
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


def _cmd_entropy(args) -> int:
    if any(c in args.dataset for c in ',"\r\n'):  # the label is a raw CSV cell
        raise UsageError(f"--dataset {args.dataset!r}: a label may not hold a comma, "
                         "a double quote or a line break")
    questions = _load_subset(args.subset)
    factors = [diversity.Factor.parse(name) for name in args.factors.split(",") if name.strip()]
    if not factors:
        raise UsageError("--factors must name at least one factor")
    repeated = sorted({f.value for f in factors if factors.count(f) > 1})
    if repeated:
        raise UsageError(f"--factors names {', '.join(repeated)} more than once")
    diversity.check_study(questions, factors, args.k)
    results = diversity.run_factor_study(questions, factors, args.k, _build_backend(args)())
    _emit(diversity.report_to_csv(args.dataset, results, factors), args.out)
    return 0


def _cmd_votemodel(args) -> int:
    model = votemodel.PlaneModel(
        p_correct=args.p, rho=args.rho,
        n_contexts=args.n, m_per_context=args.m,
        q_advance=args.q_advance or 0.0,
    )
    try:
        result = votemodel.simulate_plane(model, trials=args.trials, seed=args.seed)
        output = votemodel.breadth_curve_csv(result)
        if args.q_advance is not None:
            points = votemodel.simulate_depth(model, t_max=args.t_max,
                                              trials=args.trials, seed=args.seed)
            output += votemodel.depth_curve_csv(points, model)
    except ImportError as exc:  # only the simulators import numpy
        raise RuntimeError(f"votemodel needs numpy: {exc}") from None
    _emit(output, args.out)
    return 0


def _emit(text: str, out: Optional[str]) -> None:
    """Print ``text``, or write it in place of the file ``out`` and print the path."""
    if out:
        with replaced(out) as fh:
            fh.write(text)
        print(out)
    else:
        print(text, end="")


def _cmd_report(args) -> int:
    records = [bench.load_run_record(run) for run in args.runs]
    try:
        report = bench.emit_report(records, fmt=args.format, baselines=args.baseline or ())
    except bench.UnknownBaselineError as exc:
        raise UsageError(f"--baseline: {exc}") from None
    print(report, end="")
    return 0


def _cmd_pilot_subset(args) -> int:
    cot = bench.load_run_record(args.cot)
    deep = bench.load_run_record(args.deep)
    for qid in bench.pilot_subset(cot, deep):
        print(qid)
    return 0


def _cache_verdict(record: dict) -> Optional[str]:
    """What ``--verify`` says of a cache record: ``key mismatch`` unless its
    key is the SHA-256 of its request's canonical JSON, else ``cannot
    serve`` if a store could not serve it, else None."""
    request = canonical_json(record.get("request")).encode("ascii")
    if hashlib.sha256(request).hexdigest() != record["key"]:
        return f"key mismatch: {record['key']}"
    try:
        check_servable(record)
    except ValueError as exc:
        return f"cannot serve: {exc}"
    return None


def _cmd_cache(args) -> int:
    if not os.path.exists(args.file):
        raise RuntimeError(f"no cache file at {args.file}")
    # One pass, keeping per key only what --verify says of its last record:
    # the one replay serves.
    verdict = _cache_verdict if args.verify else lambda record: None
    last = dict(read_json_lines(args.file, "key",
                                keep=lambda record: (record["key"], verdict(record))))
    print(f"{len(last)} recorded responses in {args.file}")
    if args.verify:
        bad = [message for message in last.values() if message is not None]
        for message in bad:
            print(message)
        if bad:
            raise RuntimeError(f"{len(bad)} corrupt cache records")
        print("all keys verified")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="breadth",
                     description="Reasoning strategies over chat-completion backends")
    parser.add_argument("--verbose", action="store_true", help="log at INFO level")
    sub = parser.add_subparsers(dest="command", metavar="command")

    run = sub.add_parser("run", help="run a strategy over a dataset")
    run.add_argument("--dataset", required=True,
                     help=f"one of {sorted(bench.DATASETS)}")
    run.add_argument("--data-path", help="dataset file or directory")
    run.add_argument("--limit", type=int, help="cap on question count")
    run.add_argument("--strategy",
                     help="|".join(kind.value.replace("_", "-") for kind in StrategyKind))
    run.add_argument("--n", type=int, help="number of reformulations")
    run.add_argument("--m", type=int, help="samples per reformulation")
    run.add_argument("--max-iter", type=int, help="depth iteration cap")
    run.add_argument("--stop", choices=["fixed", "stable"], help="depth stop rule")
    run.add_argument("--temperature", type=float)
    run.add_argument("--token-budget", type=int, help="stop after this many tokens")
    run.add_argument("--seed", type=int, help="generator dataset seed (default 0)")
    run.add_argument("--runs-dir", default="runs")
    run.add_argument("--run-id", help="run id to start or resume (default: a new run)")
    run.add_argument("--config", help="JSON config file (flags override it)")
    run.add_argument("--dry-run", action="store_true",
                     help="print the calls a run of the first question sends, sending none")
    _add_backend_flags(run)
    run.set_defaults(func=_cmd_run)

    ref = sub.add_parser("reformulate", help="rewrite a question or prompt")
    ref.add_argument("--target", choices=["question", "prompt"], required=True)
    ref.add_argument("--n", type=int, required=True, help="variants to emit")
    ref.add_argument("--include-original", action="store_true")
    ref.add_argument("--text", help="text to rewrite (default: stdin)")
    _add_backend_flags(ref)
    ref.set_defaults(func=_cmd_reformulate)

    ent = sub.add_parser("entropy", help="prediction-entropy factor study")
    ent.add_argument("--factors", required=True,
                     help="comma list: question,prompt,sampling")
    ent.add_argument("--subset", required=True,
                     help="JSONL of serialized questions")
    ent.add_argument("--dataset", default="subset", help="label for the report row")
    ent.add_argument("--k", type=int, default=10, help="paths per factor")
    ent.add_argument("--out", help="write CSV here instead of stdout")
    _add_backend_flags(ent)
    ent.set_defaults(func=_cmd_entropy)

    vm = sub.add_parser("votemodel", help="analytic/Monte-Carlo vote model")
    vm.add_argument("--p", type=float, required=True, help="per-path correctness")
    vm.add_argument("--rho", type=float, default=0.0, help="within-context correlation")
    vm.add_argument("--n", type=int, default=1, help="contexts")
    vm.add_argument("--m", type=int, default=1, help="samples per context")
    vm.add_argument("--trials", type=int, default=100000)
    vm.add_argument("--seed", type=int, default=0)
    vm.add_argument("--q-advance", type=float,
                    help="also emit a depth curve with this advance probability")
    vm.add_argument("--t-max", type=int, default=5)
    vm.add_argument("--out", help="write CSV here instead of stdout")
    vm.set_defaults(func=_cmd_votemodel)

    rep = sub.add_parser("report", help="tabulate finished runs")
    rep.add_argument("--runs", nargs="+", required=True, help="run directories")
    rep.add_argument("--format", choices=["table", "csv", "json"], default="table")
    rep.add_argument("--baseline", action="append",
                     help="method label to diff against (repeatable)")
    rep.set_defaults(func=_cmd_report)

    pilot = sub.add_parser("pilot-subset",
                           help="questions CoT missed but deep reasoning solved")
    pilot.add_argument("--cot", required=True, help="CoT run directory")
    pilot.add_argument("--deep", required=True, help="deep run directory")
    pilot.set_defaults(func=_cmd_pilot_subset)

    cache = sub.add_parser("cache", help="inspect a record/replay cache file")
    cache.add_argument("--file", required=True)
    cache.add_argument("--verify", action="store_true",
                       help="check every key digest, and that every record can be served")
    cache.set_defaults(func=_cmd_cache)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --help prints and exits itself
            return int(exc.code or 0)
        logging.basicConfig(
            level=logging.INFO if args.verbose else logging.WARNING,
            stream=sys.stderr, format="%(levelname)s %(name)s: %(message)s",
        )
        if not getattr(args, "func", None):
            parser.print_help()
            return 0
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (LlmIoError, RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
