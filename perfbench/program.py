"""The program's process: import ``splitevidence`` and run the passes.

Started by ``run.py`` with one BLAS/OpenMP thread set in its environment.
It prints ``ready`` once the package is imported (the end of set-up), runs
one untimed warm-up pass and then timed passes until ``seconds`` have gone
by, every CLI call through ``splitevidence.cli.main`` in this one process.
With tracing on, every second pass is traced.  The last line on standard
output is one JSON object with the pass times and what the checks need.

Usage: python3 program.py <config.json>
"""
import json
import sys

with open(sys.argv[1]) as _fh:
    CONFIG = json.load(_fh)
sys.path.insert(0, CONFIG["src"])

from splitevidence import cli  # noqa: E402  (set-up ends here)

print("ready", flush=True)

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from time import perf_counter  # noqa: E402


import tracing  # noqa: E402
from checks import digests  # noqa: E402


def run_pass(commands):
    """Run one pass; returns (seconds, failed operations, error lines)."""
    failed, errors = 0, []
    start = perf_counter()
    for argv in commands:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            failed += 1
            errors.append(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
    return perf_counter() - start, failed, errors


def main():
    os.chdir(CONFIG["workdir"])
    commands = CONFIG["commands"]
    trace = bool(CONFIG["trace"])
    tracer = tracing.Tracer()
    walls, traced_walls, layers, spans = [], [], [], []
    failed, errors, mismatched = 0, [], set()
    first = None
    passes = 0
    began = None
    while True:
        warm_up = passes == 0
        traced = trace and not warm_up and passes % 2 == 0
        gc.collect()
        if traced:
            tracer.reset()
            with tracer.installed():
                wall, bad, why = run_pass(commands)
            layers.append(tracing.layer_metrics(tracer.spans, tracer.counts, wall))
            spans.append(tracer.spans)
            traced_walls.append(wall)
        else:
            wall, bad, why = run_pass(commands)
            if not warm_up:
                walls.append(wall)
        passes += 1
        failed += bad
        errors += why
        seen = digests(CONFIG["artifacts"])
        if first is None:
            first = seen
            began = perf_counter()
        mismatched.update(f for f in first if seen[f] != first[f])
        enough = perf_counter() - began >= CONFIG["seconds"] and walls
        if enough and (not trace or traced):
            break
    comm_bytes = sum(os.path.getsize(f) for f in CONFIG["comm_files"] if os.path.exists(f))
    result = {
        "passes": passes,
        "attempted": passes * len(commands),
        "failed": failed,
        "errors": errors[:5],
        "mismatched": sorted(mismatched),
        "missing": sorted(f for f, d in first.items() if d == "missing"),
        "walls": walls,
        "traced_walls": traced_walls,
        "layers": layers,
        "comm_bytes": comm_bytes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        with open("spans.json", "w") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent", "shard"],
                    "passes": spans,
                    "self_s": [tracing.self_times(s) for s in spans],
                },
                fh,
            )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
