"""The benchmark's traced run wraps program entry points by name; renaming
one must fail here, not only in a traced benchmark run."""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import tracing  # noqa: E402


def test_traced_entry_points_exist():
    tracer = tracing.Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
