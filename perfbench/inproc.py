"""Run one workload's CLI sequence inside this interpreter.

    python3 perfbench/inproc.py STEPS_JSON RESULT_JSON SEED TRACE

STEPS_JSON lists ``[command, config, out_dir]`` triples.  With TRACE=1 every
platelab layer is wrapped first (see ``spans.install``).  The sequence's
wall time excludes the imports, so the untraced and traced runs of the same
steps differ by the tracing overhead alone.  Writes RESULT_JSON with the
exit codes, wall time and, when traced, the spans and counters.
"""
from __future__ import annotations

import json
import sys
import time


def main(argv):
    steps_path, result_path, seed, trace = argv
    with open(steps_path, encoding="utf-8") as f:
        steps = json.load(f)
    from platelab import cli

    result = {"spans": [], "counters": {}, "absent": []}
    if trace == "1":
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)
    start = time.perf_counter()
    codes = [cli.cli_main([command, "--config", config, "--out", out,
                           "--seed", seed])
             for command, config, out in steps]
    result["wall_s"] = time.perf_counter() - start
    result["codes"] = codes
    if trace == "1":
        result.update(spans=tracer.spans, counters=dict(tracer.counters),
                      absent=tracer.absent)
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
