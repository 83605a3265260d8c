"""One `ighit verify` battery in a fresh process, as a user runs it.

    python3 bench/battery.py OUT_JSON

Imports ighit, then times ighit.cli.main(["verify", "--out", OUT_JSON]) and
prints one JSON line: when the battery started (perf_counter), its seconds,
the speed checkpoints taken right before, during and after it, exit code,
captured standard output and this process's peak resident memory in MB.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parents[1] / "src"),
                str(Path(__file__).resolve().parent)]

import speed


def run_battery(out: str, checkpoints: speed.Checkpoints | None = None) -> dict:
    """The battery; given `checkpoints`, they are taken around and inside it."""
    import ighit.cli

    stdout = io.StringIO()
    with contextlib.ExitStack() as stack:
        if checkpoints is not None:
            checkpoints.take()
            stack.enter_context(checkpoints.timer())
        stack.enter_context(contextlib.redirect_stdout(stdout))
        start = time.perf_counter()
        code = ighit.cli.main(["verify", "--out", out])
        seconds = time.perf_counter() - start
    if checkpoints is not None:
        checkpoints.take()
    return {"start": start, "seconds": seconds,
            "checkpoints": checkpoints.points if checkpoints is not None else [],
            "exit_code": code, "stdout": stdout.getvalue(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


if __name__ == "__main__":
    print(json.dumps(run_battery(sys.argv[1], speed.Checkpoints())))
