"""Closed-loop CLI calls in one fresh interpreter, timed from outside the library.

    python3 perfbench/child.py RESULT_JSON SRC_DIR MODE SECONDS OUT_DIR SEEDS -- CLI_ARGV...

MODE is `setup` (import only), `run` (time `hjb_planner.cli.main` calls)
or `trace` (the same, with per-layer spans recorded; the first call's
spans are written out).  The CLI is called again, one call at a time,
while the next call is expected to finish within SECONDS of the first
call's start; call i writes to OUT_DIR/call<i> and, when SEEDS is a comma
list rather than `-`, gets `--seed` from its i-th entry.  The result file holds the CLOCK_MONOTONIC reading once the
package is imported and the argv is built (the parent read the same clock
just before starting this interpreter), the library's file and versions,
and per call the CLI's return code and wall time, plus the process's peak
RSS.  The CLI's own stdout goes wherever the parent sent this process's.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

MAX_CALLS = 64


def main() -> int:
    result_path, src, mode, seconds, out_dir, seeds, sep, *argv = sys.argv[1:]
    if sep != "--" or mode not in ("setup", "run", "trace"):
        raise SystemExit(
            "usage: child.py RESULT_JSON SRC_DIR setup|run|trace SECONDS OUT_DIR SEEDS -- ARGV..."
        )
    sys.path.insert(0, src)
    import numpy
    import scipy
    from hjb_planner import cli

    seed_list = seeds.split(",") if seeds != "-" else [None] * MAX_CALLS
    calls = [
        [*argv, "--out", f"{out_dir}/call{i}", *(["--seed", s] if s is not None else [])]
        for i, s in enumerate(seed_list[:MAX_CALLS])
    ]
    result = {
        "ready": time.monotonic(),
        "module": cli.__file__,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "rc": [],
        "wall_s": [],
    }
    tracer = None
    if mode == "trace":
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    elif mode == "setup":
        calls = []
    start = time.perf_counter()
    for call in calls:
        began = time.perf_counter()
        result["rc"].append(cli.main(call))
        result["wall_s"].append(time.perf_counter() - began)
        if tracer is not None and "spans" not in result:
            result["spans"] = list(tracer.spans)
        typical = statistics.median(result["wall_s"])
        if time.perf_counter() - start + typical > float(seconds):
            break
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
