"""The benchmark's traced run wraps program entry points by name; renaming
one, or hiding one behind a memo, must fail here, not only in a traced
benchmark run."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_traced_entry_points_exist():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()


def test_a_warm_traced_round_still_extracts_and_canonicalizes_every_path(tmp_path):
    # The untraced first pass warms every memo the program keeps; the traced
    # second pass must still see each path go through both layers.
    w = workloads.WORKLOADS["record-deep"]
    pool = workloads.load_questions(w, seed=7)
    questions = pool[:5]
    for run_id, tracer in (("cold", None), ("warm", tracing.Tracer())):
        if tracer is not None:
            tracer.install()
        try:
            workloads.run_once(w, 7, pool, questions, str(tmp_path), run_id,
                               workloads.ZERO_LATENCY, tracer=tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    with open(tmp_path / "runs" / "warm" / "traces.jsonl", encoding="utf-8") as fh:
        paths = sum(1 for _ in fh)
    assert paths == len(questions) * w.config.max_iterations
    stats = tracer.to_dict()["stats"]
    tracing.check_called(stats, workloads.COMMON_SPANS)
    assert stats["extract.extract_answer"]["count"] == paths
    # A path abstains before canonicalizing, or because canonicalizing did.
    parsed = paths - tracer.counters.get("extract.abstains", 0)
    assert 0 < parsed <= stats["core.canonical_answer"]["count"] <= paths
