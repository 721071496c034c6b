"""Host-speed adjustment for CPU time.

The benchmark's host is shared: for tens of seconds at a time the same
pure-Python round runs up to twice as slow, and process CPU time grows with
wall time, so the cause is the speed of the host, not I/O or waiting. Raw
throughput of a CPU-bound round therefore wanders far more between runs
than any change worth measuring.

A fixed calibration loop, made of the same standard-library work the
program does (JSON encoding with sorted keys, SHA-256 digests, appends that
reopen a file, decoding JSON records read back from the file, regular
expressions), runs between rounds. Its time, against
``NOMINAL_S``, says how fast the host is at that moment. A round's CPU time
is rescaled by that factor and its waiting time is kept, so a round that
only sleeps is left as it is. The loop does not use the program, so no
change to the program moves it.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import time

# The loop's time on this benchmark's reference host when it runs at full
# speed (Intel Xeon, 2.1 GHz, Python 3.11). Only the ratio matters.
NOMINAL_S = 0.027

_RESULT = re.compile(r"The result is ([^.\n]*)\.")
_RECORDS = [
    {
        "request": {
            "model": "fake-model", "system_text": None,
            "user_text": f"Question {i}: " + "word " * (20 + i % 40),
            "temperature": 0.8, "top_k": None, "n_samples": 1, "max_tokens": None,
            "sample_batch_id": i % 10,
        },
        "texts": [f"Path {i:012x}: track each step in order. "
                  f"The result is {'yes' if i % 3 else 'no'}."],
        "usage": {"prompt_tokens": 40 + i % 40, "completion_tokens": 20},
    }
    for i in range(1000)
]


def calibrate(workdir: str) -> float:
    """Seconds the fixed loop takes now; writes one temporary file in ``workdir``."""
    path = os.path.join(workdir, "calibration.jsonl")
    started = time.perf_counter()
    index = {}
    lines = []
    for record in _RECORDS:
        payload = json.dumps(record["request"], sort_keys=True, separators=(",", ":"))
        index[hashlib.sha256(payload.encode("utf-8")).hexdigest()] = record
        lines.append(json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n")
    for line in lines[:100]:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line)
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)
    for _ in range(3):
        with open(path, "r", encoding="utf-8") as fh:
            for line in fh:
                text = json.loads(line)["texts"][0]
                _RESULT.search(text)
                text.split()
    elapsed = time.perf_counter() - started
    os.remove(path)
    return elapsed


def adjusted_seconds(wall_s: float, cpu_s: float, calibration_s: float) -> float:
    """Wall time with its CPU part rescaled to nominal host speed."""
    return wall_s - cpu_s + cpu_s * NOMINAL_S / calibration_s
